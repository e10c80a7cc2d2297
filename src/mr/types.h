// Public MapReduce programming model of EclipseMR.
//
// Applications implement Mapper and Reducer, describe a job with JobSpec,
// and submit it to a Cluster (cluster.h). Iterative applications use the
// IterativeDriver (iterative.h), which threads shared state (e.g. k-means
// centroids) between iterations and can persist iteration outputs to the
// DHT file system for restart-from-iteration fault tolerance (§II-C).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/units.h"

namespace eclipse::mr {

struct KV {
  std::string key;
  std::string value;

  bool operator==(const KV&) const = default;
};

/// Non-owning pair: the data path stages intermediates as views into an
/// arena (mapper side) or into pinned spill payloads (reducer side), so
/// per-record costs are two pointer+length copies, never a heap allocation.
/// Lifetime is the backing buffer's — see docs/performance.md ("Lifetimes").
struct KVView {
  std::string_view key;
  std::string_view value;
};

/// Sink for a mapper's intermediate pairs plus read access to job-level
/// shared state (iteration broadcast data such as current centroids).
/// Emitted bytes are copied by the sink before Emit returns — callers may
/// pass views into transient buffers.
class MapContext {
 public:
  virtual ~MapContext() = default;
  virtual void Emit(std::string_view key, std::string_view value) = 0;
  virtual const std::string& shared_state() const = 0;
};

/// Sink for a reducer's output pairs (bytes copied before Emit returns).
class ReduceContext {
 public:
  virtual ~ReduceContext() = default;
  virtual void Emit(std::string_view key, std::string_view value) = 0;
};

/// One mapper instance processes one input block, record by record. The
/// record view aliases the block buffer (or a per-task arena for records
/// spanning block boundaries) and is valid only during the call.
class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual void Map(std::string_view record, MapContext& ctx) = 0;

  /// Called once after the block's last record — combiner-style mappers
  /// (e.g. logistic regression's per-block gradient) emit here.
  virtual void Finish(MapContext& ctx) { (void)ctx; }
};

/// One reducer call per distinct intermediate key, values unordered. Key
/// and value views alias the pinned spill payloads and are valid only
/// during the call — copy what must outlive it (Emit already copies).
class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual void Reduce(std::string_view key, const std::vector<std::string_view>& values,
                      ReduceContext& ctx) = 0;
};

using MapperFactory = std::function<std::unique_ptr<Mapper>()>;
using ReducerFactory = std::function<std::unique_ptr<Reducer>()>;

/// What Submit does with a job whose predicted completion misses its
/// deadline (docs/fault-tolerance.md §7).
enum class AdmissionPolicy {
  /// Fail fast: the handle completes immediately with kResourceExhausted
  /// and the predicted completion time in JobResult::eta_us.
  kRejectOnMiss,
  /// Run anyway; the ETA is advisory (readable via JobHandle::eta_us()
  /// while queued and JobResult::eta_us afterwards).
  kQueueOnMiss,
};

struct JobSpec {
  std::string name;        // job label (need not be unique: spill scopes are
                           // namespaced by job_id, so same-named concurrent
                           // submissions cannot collide)
  std::string input_file;  // DHT-FS path

  /// Submitting user, for weighted max-min fair slot sharing between
  /// concurrent jobs (SlotArbiter). Empty: the cluster's default user.
  std::string user;
  /// Additional DHT-FS inputs mapped alongside input_file (one map task per
  /// block of every input; reducers see the union of intermediates).
  std::vector<std::string> extra_inputs;
  MapperFactory mapper;
  ReducerFactory reducer;

  /// Records are input lines split on this delimiter.
  char record_delim = '\n';

  /// Cache input blocks in iCache on read (paper: implicit input caching).
  bool cache_input = true;

  /// Non-empty: tag intermediate results for cross-job reuse (§II-B oCache).
  /// A later job with the same tag and input skips its map computation and
  /// feeds reducers from the stored spills. Only tagged spills enter the
  /// reducer-side oCache: an untagged spill is read once, by its own job.
  std::string intermediate_tag;

  /// TTL for persisted intermediate results (zero: keep until deleted).
  std::chrono::milliseconds intermediate_ttl{0};

  /// Mapper spill-buffer threshold per hash-key range (paper used 32 MB;
  /// tests scale this down).
  Bytes spill_threshold = 32_MiB;

  /// Broadcast state visible to every mapper via MapContext.
  std::string shared_state;

  /// Non-empty: also persist the job output into the DHT file system under
  /// this name, one "key<TAB>value" line per pair (replacing any previous
  /// file of that name). Applications "tag and store ... job outputs for
  /// future reuse" this way (§II).
  std::string output_file;

  // ---- Fault-tolerance knobs (docs/fault-tolerance.md) --------------------

  /// Zero: no deadline. Otherwise each map/reduce task attempt runs under a
  /// net::ScopedDeadline of this length, propagated to every RPC the task
  /// makes (DHT-FS reads, cache fetches, spill pushes): a gray-failed peer
  /// costs at most this long before the attempt fails kDeadlineExceeded and
  /// is retried elsewhere.
  std::chrono::milliseconds task_deadline{0};

  /// Launch a backup attempt for straggling tasks (LATE-style mitigation):
  /// when a running task's elapsed time exceeds
  /// percentile(completed) × multiplier, a duplicate attempt starts on
  /// another live server and the first completion wins. Safe because spill
  /// ids are deterministic and re-execution is idempotent (§II-D).
  bool speculative_execution = false;

  /// Percentile of completed-task durations anchoring the straggler
  /// threshold (0..1].
  double straggler_percentile = 0.75;

  /// Straggler threshold = percentile duration × this multiplier.
  double straggler_multiplier = 2.0;

  /// Completed tasks required before any speculation happens (a cold
  /// cluster's first tasks are not stragglers, the job just started).
  int speculation_min_completed = 3;

  /// Anchor straggler thresholds at the cluster RuntimePredictor's task
  /// duration estimate (deviation mode) when it is warm for this job name;
  /// the percentile threshold above stays the fallback while cold. Only
  /// meaningful with speculative_execution on.
  bool predictor_speculation = true;

  /// Deviation-mode straggler threshold = predicted task duration × this.
  double straggler_deviation = 2.0;

  // ---- SLO / admission control (docs/fault-tolerance.md §7) ---------------

  /// Zero: no deadline. Otherwise Submit runs admission control: the
  /// cluster predicts this job's completion time (RuntimePredictor history
  /// for this job name plus the predicted remaining work of running and
  /// queued jobs) and applies `admission` when the prediction misses the
  /// deadline. A cold predictor admits optimistically; Cluster::Run (the
  /// synchronous path) bypasses admission entirely.
  std::chrono::milliseconds deadline{0};

  /// Soft latency target: never rejects. Completions slower than this are
  /// counted in mr.slo_miss{user} and flagged in JobResult::slo_missed.
  std::chrono::milliseconds slo{0};

  /// Policy applied when the predicted completion misses `deadline`.
  AdmissionPolicy admission = AdmissionPolicy::kRejectOnMiss;
};

struct JobStats {
  std::uint64_t map_tasks = 0;
  std::uint64_t reduce_tasks = 0;
  std::uint64_t maps_skipped = 0;       // served entirely from tagged spills
  std::uint64_t map_retries = 0;        // re-executions after worker failure
  std::uint64_t maps_speculated = 0;    // backup attempts launched for straggling maps
  std::uint64_t reduces_speculated = 0; // backup attempts launched for straggling reduces
  std::uint64_t speculative_wins = 0;   // backups that finished before their original

  // Map-task locality classes (the paper's Fig. 6 task-state breakdown):
  // where each completed map task's input actually came from. The three
  // classes plus maps_skipped partition map_tasks.
  std::uint64_t maps_memory = 0;       // iCache hit on the assigned server
  std::uint64_t maps_local_disk = 0;   // block served by the server's own DHT-FS node
  std::uint64_t maps_remote_disk = 0;  // block pulled from a replica on another server

  std::uint64_t icache_hits = 0;
  std::uint64_t icache_misses = 0;
  std::uint64_t ocache_hits = 0;
  std::uint64_t ocache_misses = 0;
  std::uint64_t spills = 0;
  Bytes bytes_spilled = 0;
  Bytes input_bytes = 0;
  Bytes output_bytes = 0;  // persisted output size (when output_file is set)
  double wall_seconds = 0.0;

  double InputHitRatio() const {
    auto total = icache_hits + icache_misses;
    return total == 0 ? 0.0 : static_cast<double>(icache_hits) / static_cast<double>(total);
  }
};

struct JobResult {
  Status status;
  /// All reducer emissions, sorted by key (stable, deterministic).
  std::vector<KV> output;
  JobStats stats;
  /// Process-wide monotonically-assigned job id — the `job` label on this
  /// job's trace spans, metrics, and spill scopes.
  std::uint64_t job_id = 0;
  /// Admission-time predicted completion (µs from submit). 0 when the job
  /// set no deadline/slo or the predictor was cold at submit.
  std::uint64_t eta_us = 0;
  /// The job completed but its wall time exceeded JobSpec::slo.
  bool slo_missed = false;
};

}  // namespace eclipse::mr
