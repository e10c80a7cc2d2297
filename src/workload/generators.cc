#include "workload/generators.h"

#include <algorithm>
#include <cmath>

namespace eclipse::workload {
namespace {

std::string WordFor(std::size_t rank) { return 'w' + std::to_string(rank); }

}  // namespace

std::string GenerateText(Rng& rng, const TextOptions& options) {
  ZipfSampler zipf(options.vocabulary, options.zipf_s);
  std::string out;
  out.reserve(options.target_bytes + 64);
  while (out.size() < options.target_bytes) {
    for (std::size_t i = 0; i < options.words_per_line; ++i) {
      if (i > 0) out.push_back(' ');
      out += WordFor(zipf.Sample(rng));
    }
    out.push_back('\n');
  }
  return out;
}

std::string GenerateDocuments(Rng& rng, std::size_t num_docs, std::size_t words_per_doc,
                              const TextOptions& options) {
  ZipfSampler zipf(options.vocabulary, options.zipf_s);
  std::string out;
  for (std::size_t d = 0; d < num_docs; ++d) {
    out += "doc" + std::to_string(d);
    out.push_back('\t');
    for (std::size_t i = 0; i < words_per_doc; ++i) {
      if (i > 0) out.push_back(' ');
      out += WordFor(zipf.Sample(rng));
    }
    out.push_back('\n');
  }
  return out;
}

std::string GeneratePoints(Rng& rng, const PointsOptions& options,
                           std::vector<std::vector<double>>* centers_out) {
  std::vector<std::vector<double>> centers(options.clusters);
  for (auto& c : centers) {
    c.resize(options.dims);
    for (auto& v : c) v = rng.NextDouble() * options.domain;
  }
  std::string out;
  for (std::size_t i = 0; i < options.num_points; ++i) {
    const auto& c = centers[rng.Below(options.clusters)];
    for (std::size_t j = 0; j < options.dims; ++j) {
      if (j > 0) out.push_back(',');
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.6f", c[j] + rng.NextGaussian(0.0, options.cluster_stddev));
      out += buf;
    }
    out.push_back('\n');
  }
  if (centers_out) *centers_out = std::move(centers);
  return out;
}

std::string GenerateLabeledPoints(Rng& rng, std::size_t num_points, std::size_t dims,
                                  std::vector<double>* weights_out) {
  std::vector<double> w(dims + 1);
  for (auto& v : w) v = rng.NextGaussian(0.0, 1.0);
  std::string out;
  for (std::size_t i = 0; i < num_points; ++i) {
    std::vector<double> x(dims);
    double z = w[0];
    for (std::size_t j = 0; j < dims; ++j) {
      x[j] = rng.NextGaussian(0.0, 1.0);
      z += w[j + 1] * x[j];
    }
    int label = z + rng.NextGaussian(0.0, 0.1) > 0 ? 1 : 0;
    out += std::to_string(label);
    for (double v : x) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " %.6f", v);
      out += buf;
    }
    out.push_back('\n');
  }
  if (weights_out) *weights_out = std::move(w);
  return out;
}

std::string GenerateGraph(Rng& rng, const GraphOptions& options) {
  const std::size_t n = options.num_nodes;
  // Preferential attachment over a seed clique: node i links to
  // edges_per_node targets drawn proportional to current in-degree + 1.
  std::vector<std::uint32_t> degree(n, 1);
  std::vector<std::vector<std::uint32_t>> adj(n);
  std::uint64_t total_degree = n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t targets = std::min(options.edges_per_node, n - 1);
    for (std::size_t e = 0; e < targets; ++e) {
      // Weighted draw by degree.
      std::uint64_t pick = rng.Below(total_degree);
      std::size_t t = 0;
      for (; t < n; ++t) {
        if (pick < degree[t]) break;
        pick -= degree[t];
      }
      if (t >= n) t = n - 1;
      if (t == i) t = (t + 1) % n;
      if (std::find(adj[i].begin(), adj[i].end(), static_cast<std::uint32_t>(t)) !=
          adj[i].end()) {
        continue;  // skip duplicate edge
      }
      adj[i].push_back(static_cast<std::uint32_t>(t));
      ++degree[t];
      ++total_degree;
    }
  }
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    out += 'n' + std::to_string(i);
    for (auto t : adj[i]) out += " n" + std::to_string(t);
    out.push_back('\n');
  }
  return out;
}

HashKey TraceBlockKey(std::uint32_t block) {
  return KeyOf("trace-block-" + std::to_string(block));
}

std::vector<std::uint32_t> GenerateTrace(Rng& rng, const TraceOptions& options) {
  std::vector<std::uint32_t> trace;
  trace.reserve(options.length);
  switch (options.shape) {
    case TraceShape::kUniform: {
      for (std::size_t i = 0; i < options.length; ++i) {
        trace.push_back(static_cast<std::uint32_t>(rng.Below(options.num_blocks)));
      }
      break;
    }
    case TraceShape::kZipf: {
      ZipfSampler zipf(options.num_blocks, options.zipf_s);
      for (std::size_t i = 0; i < options.length; ++i) {
        trace.push_back(static_cast<std::uint32_t>(zipf.Sample(rng)));
      }
      break;
    }
    case TraceShape::kTwoNormals: {
      // Rank blocks by hash key so a draw at key-space fraction f maps to
      // the block whose key sits at that fraction: the resulting key-space
      // access density is the two-normal mixture of Fig. 3.
      std::vector<std::uint32_t> ranked(options.num_blocks);
      for (std::uint32_t b = 0; b < options.num_blocks; ++b) ranked[b] = b;
      std::sort(ranked.begin(), ranked.end(), [](std::uint32_t a, std::uint32_t b) {
        return TraceBlockKey(a) < TraceBlockKey(b);
      });
      GaussianMixture mix({{1.0, options.mean1, options.stddev1},
                           {1.0, options.mean2, options.stddev2}});
      for (std::size_t i = 0; i < options.length; ++i) {
        double f = mix.Sample(rng, 0.0, std::nextafter(1.0, 0.0));
        auto idx = static_cast<std::size_t>(f * static_cast<double>(options.num_blocks));
        if (idx >= ranked.size()) idx = ranked.size() - 1;
        trace.push_back(ranked[idx]);
      }
      break;
    }
  }
  return trace;
}

}  // namespace eclipse::workload
