#include "common/metrics.h"

#include <algorithm>
#include <cstdio>

namespace eclipse {
namespace {

std::size_t BucketOf(std::uint64_t sample) {
  std::size_t b = 0;
  while (sample > 1 && b + 1 < Histogram::kBuckets) {
    sample >>= 1;
    ++b;
  }
  return b;
}

void AppendLabelValueEscaped(std::string& out, const std::string& v) {
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
}

// Serialized sorted label set: `k1="v1",k2="v2"` — used both as the series
// key and verbatim inside the rendered `{...}`.
std::string SerializeLabels(const MetricLabels& labels) {
  if (labels.empty()) return {};
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const auto& [k, v] : sorted) {
    if (!out.empty()) out += ',';
    out += k;
    out += "=\"";
    AppendLabelValueEscaped(out, v);
    out += '"';
  }
  return out;
}

std::string SeriesName(const std::string& family, const std::string& labels) {
  if (labels.empty()) return family;
  return family + "{" + labels + "}";
}

// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's dotted names
// map onto that by replacing every other character with '_'.
std::string SanitizePromName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
              c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

void AppendPromSeries(std::string& out, const std::string& family, const std::string& suffix,
                      const std::string& labels, const std::string& extra_label,
                      unsigned long long value) {
  out += family;
  out += suffix;
  if (!labels.empty() || !extra_label.empty()) {
    out += '{';
    out += labels;
    if (!labels.empty() && !extra_label.empty()) out += ',';
    out += extra_label;
    out += '}';
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, " %llu\n", value);
  out += buf;
}

}  // namespace

ECLIPSE_HOT_PATH
void Histogram::Record(std::uint64_t sample) {
  buckets_[BucketOf(sample)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
}

double Histogram::mean() const {
  auto c = count();
  return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
}

std::uint64_t Histogram::ApproxQuantile(double quantile) const {
  std::uint64_t total = count();
  if (total == 0) return 0;
  auto threshold =
      static_cast<std::uint64_t>(quantile * static_cast<double>(total) + 0.999999);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= threshold) return b + 1 >= 64 ? ~0ull : (std::uint64_t{1} << (b + 1)) - 1;
  }
  return ~0ull;
}

std::array<std::uint64_t, Histogram::kBuckets> Histogram::BucketCounts() const {
  std::array<std::uint64_t, kBuckets> out{};
  for (std::size_t b = 0; b < kBuckets; ++b) {
    out[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

template <typename T>
T& MetricsRegistry::GetIn(std::map<std::string, Family<T>>& families, const std::string& name,
                          const MetricLabels& labels) {
  auto& slot = families[name][SerializeLabels(labels)];
  if (!slot) slot = std::make_unique<T>();
  return *slot;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  return GetCounter(name, {});
}

Counter& MetricsRegistry::GetCounter(const std::string& name, const MetricLabels& labels) {
  MutexLock lock(mu_);
  return GetIn(counters_, name, labels);
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) { return GetGauge(name, {}); }

Gauge& MetricsRegistry::GetGauge(const std::string& name, const MetricLabels& labels) {
  MutexLock lock(mu_);
  return GetIn(gauges_, name, labels);
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  return GetHistogram(name, {});
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name, const MetricLabels& labels) {
  MutexLock lock(mu_);
  return GetIn(histograms_, name, labels);
}

void MetricsRegistry::AddToBoundedCounter(const std::string& name, const MetricLabels& labels,
                                          std::uint64_t delta, std::size_t keep) {
  MutexLock lock(mu_);
  Family<Counter>& family = counters_[name];
  auto [it, created] = family.try_emplace(SerializeLabels(labels));
  if (created) it->second = std::make_unique<Counter>();
  it->second->Add(delta);
  if (!created) return;
  std::deque<std::string>& order = bounded_[name];
  order.push_back(it->first);
  while (order.size() > keep) {
    family.erase(order.front());
    order.pop_front();
  }
}

std::size_t MetricsRegistry::SeriesCount() const {
  MutexLock lock(mu_);
  std::size_t n = 0;
  for (const auto& [name, family] : counters_) n += family.size();
  for (const auto& [name, family] : gauges_) n += family.size();
  for (const auto& [name, family] : histograms_) n += family.size();
  return n;
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::CounterSnapshot() const {
  MutexLock lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, family] : counters_) {
    for (const auto& [labels, counter] : family) {
      out.emplace_back(SeriesName(name, labels), counter->value());
    }
  }
  return out;
}

std::string MetricsRegistry::Render() const {
  MutexLock lock(mu_);
  std::string out;
  char buf[160];
  for (const auto& [name, family] : counters_) {
    for (const auto& [labels, counter] : family) {
      std::snprintf(buf, sizeof buf, "%-40s %llu\n", SeriesName(name, labels).c_str(),
                    static_cast<unsigned long long>(counter->value()));
      out += buf;
    }
  }
  for (const auto& [name, family] : gauges_) {
    for (const auto& [labels, gauge] : family) {
      std::snprintf(buf, sizeof buf, "%-40s %lld\n", SeriesName(name, labels).c_str(),
                    static_cast<long long>(gauge->value()));
      out += buf;
    }
  }
  for (const auto& [name, family] : histograms_) {
    for (const auto& [labels, hist] : family) {
      std::snprintf(buf, sizeof buf, "%-40s n=%llu mean=%.1f p50<=%llu p99<=%llu\n",
                    SeriesName(name, labels).c_str(),
                    static_cast<unsigned long long>(hist->count()), hist->mean(),
                    static_cast<unsigned long long>(hist->ApproxQuantile(0.5)),
                    static_cast<unsigned long long>(hist->ApproxQuantile(0.99)));
      out += buf;
    }
  }
  return out;
}

std::string MetricsRegistry::RenderPrometheus() const {
  MutexLock lock(mu_);
  std::string out;
  for (const auto& [name, family] : counters_) {
    std::string prom = SanitizePromName(name);
    out += "# TYPE " + prom + " counter\n";
    for (const auto& [labels, counter] : family) {
      AppendPromSeries(out, prom, "", labels, "", counter->value());
    }
  }
  for (const auto& [name, family] : gauges_) {
    std::string prom = SanitizePromName(name);
    out += "# TYPE " + prom + " gauge\n";
    for (const auto& [labels, gauge] : family) {
      out += prom;
      if (!labels.empty()) out += "{" + labels + "}";
      char buf[32];
      std::snprintf(buf, sizeof buf, " %lld\n", static_cast<long long>(gauge->value()));
      out += buf;
    }
  }
  for (const auto& [name, family] : histograms_) {
    std::string prom = SanitizePromName(name);
    out += "# TYPE " + prom + " histogram\n";
    for (const auto& [labels, hist] : family) {
      auto buckets = hist->BucketCounts();
      std::size_t top = 0;
      for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
        if (buckets[b] != 0) top = b + 1;
      }
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < top; ++b) {
        cumulative += buckets[b];
        std::uint64_t le = b + 1 >= 64 ? ~0ull : (std::uint64_t{1} << (b + 1)) - 1;
        char lebuf[48];
        std::snprintf(lebuf, sizeof lebuf, "le=\"%llu\"",
                      static_cast<unsigned long long>(le));
        AppendPromSeries(out, prom, "_bucket", labels, lebuf, cumulative);
      }
      AppendPromSeries(out, prom, "_bucket", labels, "le=\"+Inf\"", hist->count());
      AppendPromSeries(out, prom, "_sum", labels, "", hist->sum());
      AppendPromSeries(out, prom, "_count", labels, "", hist->count());
    }
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(mu_);
  for (auto& [name, family] : counters_) {
    for (auto& [labels, counter] : family) counter->Reset();
  }
  for (auto& [name, family] : gauges_) {
    for (auto& [labels, gauge] : family) gauge->Reset();
  }
  for (auto& [name, family] : histograms_) {
    for (auto& [labels, hist] : family) hist->Reset();
  }
}

}  // namespace eclipse
