#include "apps/kmeans.h"

#include <cassert>
#include <cmath>
#include <limits>

#include "apps/text_util.h"

namespace eclipse::apps {

std::string EncodeCentroids(const Centroids& c) {
  std::string out;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i > 0) out.push_back(';');
    out += JoinDoubles(c[i]);
  }
  return out;
}

Centroids DecodeCentroids(const std::string& s) {
  Centroids out;
  for (const auto& piece : Split(s, ';')) out.push_back(ParseDoubles(piece));
  return out;
}

std::size_t NearestCentroid(const std::vector<double>& point, const Centroids& centroids) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < centroids.size(); ++i) {
    double d = 0.0;
    std::size_t dims = std::min(point.size(), centroids[i].size());
    for (std::size_t j = 0; j < dims; ++j) {
      double diff = point[j] - centroids[i][j];
      d += diff * diff;
    }
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

void KMeansMapper::Map(std::string_view record, mr::MapContext& ctx) {
  if (centroids_.empty()) {
    centroids_ = DecodeCentroids(ctx.shared_state());
    sums_.assign(centroids_.size(), {});
    counts_.assign(centroids_.size(), 0);
  }
  auto point = ParseDoubles(record);
  if (point.empty() || centroids_.empty()) return;
  std::size_t c = NearestCentroid(point, centroids_);
  auto& sum = sums_[c];
  if (sum.size() < point.size()) sum.resize(point.size(), 0.0);
  for (std::size_t j = 0; j < point.size(); ++j) sum[j] += point[j];
  ++counts_[c];
}

void KMeansMapper::Finish(mr::MapContext& ctx) {
  for (std::size_t c = 0; c < counts_.size(); ++c) {
    if (counts_[c] == 0) continue;
    ctx.Emit('c' + std::to_string(c),
             std::to_string(counts_[c]) + "|" + JoinDoubles(sums_[c]));
  }
  sums_.clear();
  counts_.clear();
  centroids_.clear();
}

void KMeansReducer::Reduce(std::string_view key, const std::vector<std::string_view>& values,
                           mr::ReduceContext& ctx) {
  std::uint64_t total = 0;
  std::vector<double> sum;
  for (std::string_view v : values) {
    std::size_t bar = v.find('|');
    if (bar == std::string_view::npos) continue;
    total += ParseU64(v.substr(0, bar));
    auto partial = ParseDoubles(v.substr(bar + 1));
    if (sum.size() < partial.size()) sum.resize(partial.size(), 0.0);
    for (std::size_t j = 0; j < partial.size(); ++j) sum[j] += partial[j];
  }
  if (total == 0) return;
  for (auto& s : sum) s /= static_cast<double>(total);
  ctx.Emit(key, JoinDoubles(sum));
}

mr::IterationSpec KMeansIterations(std::string name, std::string input_file,
                                   const Centroids& initial, int iterations) {
  mr::IterationSpec spec;
  spec.base.name = name;
  spec.base.input_file = std::move(input_file);
  spec.base.mapper = [] { return std::make_unique<KMeansMapper>(); };
  spec.base.reducer = [] { return std::make_unique<KMeansReducer>(); };
  spec.tag = std::move(name);
  spec.max_iterations = iterations;
  spec.initial_state = EncodeCentroids(initial);
  std::size_t k = initial.size();
  spec.update = [k](const std::vector<mr::KV>& output, const std::string& current,
                    std::string* next_state) {
    // Rebuild the centroid set; a cluster that attracted no points keeps
    // its previous centroid (the standard empty-cluster rule).
    Centroids next = DecodeCentroids(current);
    next.resize(k);
    for (const auto& kv : output) {
      if (kv.key.size() < 2 || kv.key[0] != 'c') continue;
      std::size_t idx = std::stoul(kv.key.substr(1));
      if (idx < k) next[idx] = ParseDoubles(kv.value);
    }
    *next_state = EncodeCentroids(next);
    return true;
  };
  return spec;
}

Centroids KMeansSerialStep(const std::vector<std::vector<double>>& points,
                           const Centroids& centroids) {
  Centroids next(centroids.size());
  std::vector<std::uint64_t> counts(centroids.size(), 0);
  for (const auto& p : points) {
    std::size_t c = NearestCentroid(p, centroids);
    if (next[c].size() < p.size()) next[c].resize(p.size(), 0.0);
    for (std::size_t j = 0; j < p.size(); ++j) next[c][j] += p[j];
    ++counts[c];
  }
  for (std::size_t c = 0; c < next.size(); ++c) {
    if (counts[c] == 0) {
      next[c] = centroids[c];  // empty cluster keeps its centroid
      continue;
    }
    for (auto& v : next[c]) v /= static_cast<double>(counts[c]);
  }
  return next;
}

}  // namespace eclipse::apps
