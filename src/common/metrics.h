// Lightweight process-wide metrics: named counters, gauges, and duration
// histograms, with optional Prometheus-style labels.
//
// Components record operational events (blocks served, remote reads, task
// retries, spill bytes…) into a MetricsRegistry; operators snapshot and
// render it (see Cluster::metrics() and the `metrics` / `prom` commands in
// the eclipsemr_shell example). Counters and gauges are lock-free;
// histograms use fixed log-scaled buckets. Render() gives the human
// format, RenderPrometheus() the Prometheus text exposition format
// (docs/observability.md documents every metric the engine emits).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/hot_path.h"
#include "common/mutex.h"

namespace eclipse {

/// Label set for one metric instance, e.g. {{"server", "3"},
/// {"locality", "memory"}}. Order-insensitive: label sets are sorted by key
/// before lookup, so {{a,1},{b,2}} and {{b,2},{a,1}} name the same series.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  ECLIPSE_HOT_PATH void Add(std::uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A value that can go up and down (queue depth, cache bytes, live servers).
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  ECLIPSE_HOT_PATH void Add(std::int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log2-bucketed histogram of non-negative samples (e.g. microseconds or
/// bytes): bucket b counts samples in [2^b, 2^(b+1)).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  void Record(std::uint64_t sample);  // hot path (annotated at the definition)
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;

  /// Smallest upper bound v such that at least `quantile` (0..1] of samples
  /// are <= v. Bucket-granular (a power of two).
  std::uint64_t ApproxQuantile(double quantile) const;

  /// Per-bucket counts. After all recording threads are joined, these sum to
  /// count() exactly (each Record increments one bucket and the count once);
  /// mid-flight snapshots may observe the two increments independently.
  std::array<std::uint64_t, kBuckets> BucketCounts() const;

  void Reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Named metric registry. Get-or-create accessors are cheap after first use;
/// returned references live as long as the registry. The no-label overloads
/// address the unlabeled series of the same family.
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name);
  Counter& GetCounter(const std::string& name, const MetricLabels& labels);
  Gauge& GetGauge(const std::string& name);
  Gauge& GetGauge(const std::string& name, const MetricLabels& labels);
  Histogram& GetHistogram(const std::string& name);
  Histogram& GetHistogram(const std::string& name, const MetricLabels& labels);

  /// Add `delta` to the counter `name{labels}` of a family that keeps only
  /// its `keep` newest series: creating one more removes the oldest. For
  /// series that come and go, such as one per job, which would otherwise
  /// grow the registry forever. The add happens under the registry lock and
  /// no reference is handed out, since a removed series is freed.
  void AddToBoundedCounter(const std::string& name, const MetricLabels& labels,
                           std::uint64_t delta, std::size_t keep);

  /// Number of series of every kind.
  std::size_t SeriesCount() const;

  /// Snapshot of every counter value, sorted by name. Labeled series render
  /// as `name{k="v",...}` and sort after the unlabeled series of the same
  /// family.
  std::vector<std::pair<std::string, std::uint64_t>> CounterSnapshot() const;

  /// Multi-line human-readable dump (counters, gauges, then histogram
  /// summaries).
  std::string Render() const;

  /// Prometheus text exposition format: `# TYPE` headers, sanitized names
  /// ('.' and '-' become '_'), label sets, and cumulative `_bucket{le=...}`
  /// series for histograms (le bounds are the log2 bucket upper bounds,
  /// 2^(b+1)-1).
  std::string RenderPrometheus() const;

  void ResetAll();

 private:
  // One family = one metric name; series within it are keyed by the
  // serialized sorted label set ("" = unlabeled).
  template <typename T>
  using Family = std::map<std::string, std::unique_ptr<T>>;

  template <typename T>
  static T& GetIn(std::map<std::string, Family<T>>& families, const std::string& name,
                  const MetricLabels& labels);

  mutable Mutex mu_{Rank::kMetrics, "MetricsRegistry::mu_"};
  // The maps are guarded; the pointed-to Counter/Gauge/Histogram objects are
  // internally atomic and safely shared outside the lock.
  std::map<std::string, Family<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, Family<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, Family<Histogram>> histograms_ GUARDED_BY(mu_);
  // Each bounded counter family's series keys, oldest first.
  std::map<std::string, std::deque<std::string>> bounded_ GUARDED_BY(mu_);
};

}  // namespace eclipse
