// Job orchestration: Fig. 2's flow on the emulated cluster.
//
//  1. resolve the input file's metadata at its metadata owner,
//  2. assign one map task per block — LAF (Algorithm 1) or Delay (§II-F),
//  3. map tasks read input through iCache (falling back to the DHT FS) and
//     proactively spill intermediates to the reducer-side DHT FS (§II-D),
//  4. reduce tasks run where the intermediate hash keys live, reading spills
//     through oCache,
//  5. failures re-execute the affected map tasks and re-place reduces on the
//     take-over servers (intermediates that died with a server are rebuilt
//     by re-running their producers).
//
// Both phases run their tasks through one attempt driver (AttemptSet):
// every task of a phase is in flight at once, the driver sleeps until an
// attempt completes, relaunches failures within a per-task budget, and —
// with JobSpec::speculative_execution — races one backup attempt against
// each straggler.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <vector>

#include "fault/straggler.h"
#include "mr/cluster.h"
#include "mr/shuffle.h"

namespace eclipse::mr {

class JobRunner {
 public:
  /// `job_id` is the process-wide id from Cluster::NextJobId(); it
  /// namespaces the job's spill scope and labels its observability.
  /// `cancel` (optional) is the job-level cancellation token
  /// (JobHandle::Cancel): every task attempt, slot wait, and phase boundary
  /// observes it. `spec` must outlive the runner.
  JobRunner(Cluster& cluster, const JobSpec& spec, std::uint64_t job_id,
            std::shared_ptr<std::atomic<bool>> cancel = nullptr);

  /// Run the job. A failed or cancelled job has deleted its private spills
  /// when Run returns; a successful one keeps them until CleanupSpills, so
  /// that the caller can publish the result first.
  JobResult Run();

  /// Delete this job's private spills from the DHT FS: one DeleteObjects
  /// call per range, at the range's owner, carries every spill of the range,
  /// failed attempts' orphans included. A tagged job keeps its spills and
  /// manifests for §II-C reuse. Best effort: a dropped call, or a range
  /// whose owner changed after the push, leaves that range's spills behind.
  /// A second call finds nothing to delete.
  void CleanupSpills();

 private:
  /// Run's body (Fig. 2 end to end): metadata, map phase, reduce phase,
  /// the merge of the per-range runs, and the optional output upload.
  Status Execute(std::vector<KV>* output);

  struct MapOutcome {
    Status status;
    std::vector<SpillInfo> spills;
    bool skipped = false;     // fed entirely from tagged intermediates
    bool icache_hit = false;
    Bytes input_bytes = 0;
    /// Locality class of the input read: "memory", "local_disk",
    /// "remote_disk", or "skipped" (string literal; also used as the trace
    /// span's `locality` argument and the metrics label value).
    const char* locality = "skipped";
  };

  struct ReduceOutcome {
    Status status;
    std::vector<KV> output;  // sorted by key, equal keys in emission order
    std::uint64_t ocache_hits = 0;
    std::uint64_t ocache_misses = 0;
    std::vector<std::size_t> missing_spills;  // indices into the task's spill group
  };

  /// A map task's input: (index into metas_, block index).
  struct BlockRef {
    std::size_t file;
    std::uint64_t block;
    bool operator<(const BlockRef& o) const {
      return file != o.file ? file < o.file : block < o.block;
    }
    bool operator==(const BlockRef&) const = default;
  };

  /// A registered intermediate and the input block that produced it.
  struct Spill {
    SpillInfo info;
    BlockRef block;
  };

  /// Task bodies, run by the attempt driver while holding one of `w`'s
  /// slots. `cancel` is the attempt's duplicate-cancellation token: it flips
  /// once a sibling attempt wins, and the task exits kCancelled at its next
  /// record or key boundary. Output stays correct either way — spill ids are
  /// deterministic and contents identical, so concurrent duplicate attempts
  /// overwrite each other idempotently (first-writer-wins).
  MapOutcome RunMapTask(WorkerServer& w, BlockRef ref, bool force_recompute,
                        const std::atomic<bool>& cancel);
  ReduceOutcome RunReduceTask(WorkerServer& w, const std::vector<Spill>& spills,
                              const std::atomic<bool>& cancel);

  /// True when a running attempt must stop at this record or key boundary
  /// — its worker died, a sibling attempt won, or the job was cancelled —
  /// with the reason in `*why`. `task` is "map" or "reduce".
  bool Interrupted(WorkerServer& w, const std::atomic<bool>& cancel, const char* task,
                   Status* why) const;

  /// Pick the map server for a block key under this job's scheduler epoch.
  /// For Delay this may block up to the locality-wait timeout (the wait
  /// budget is a local per-call deadline, so concurrent jobs cannot consume
  /// each other's budgets).
  int PickMapServer(HashKey hkey);

  /// Backup-attempt placement: the live server (≠ `avoid`) with the most
  /// free slots of `kind`, or -1 when no other server is alive.
  int PickBackupServer(int avoid, sched::SlotKind kind);

  /// Has JobHandle::Cancel been called on this job?
  bool JobCancelled() const {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }

  /// The attempt driver both phases share (defined in job_runner.cc). It
  /// owns queueing attempts for their workers' slots at the SlotArbiter,
  /// first-success-wins with the losers' tokens flipped, the
  /// kMaxAttemptsPerTask relaunch budget, the predictor and
  /// straggler-detector records, and the optional backup attempt. Outcomes are consumed on the driver thread only, so stats_
  /// stays single-threaded.
  template <typename Outcome>
  class AttemptSet;

  /// One pass over the reduce plan derived from the current spill set: every
  /// range group's reduce runs at once on the range's current owner, and
  /// `runs` gets each reduce's key-sorted output in ascending range order.
  /// Returns NotFound after re-running producers of lost spills (caller
  /// rebuilds the plan and retries), or the first fatal status.
  Status RunReducePhase(std::vector<std::vector<KV>>* runs);

  /// Run the map phase over `blocks`, adding the winners' spills to spills_.
  /// `force_recompute` bypasses tagged-intermediate reuse — required when
  /// re-running maps whose spills died with a server. Returns first fatal
  /// status.
  Status RunMapPhase(const std::vector<BlockRef>& blocks, bool force_recompute = false);

  Cluster& cluster_;
  const JobSpec& spec_;
  const std::uint64_t job_id_;
  std::shared_ptr<std::atomic<bool>> cancel_;  // null when not cancellable
  std::string user_;  // spec_.user, or the cluster default when empty
  /// This job's immutable scheduling epoch, captured once at Run start:
  /// another job's LAF repartition mutates only the shared epoch scheduler
  /// (internally locked), and a membership rebuild publishes a *new* epoch —
  /// neither can silently re-route this job's in-flight shuffle.
  std::shared_ptr<const SchedulerEpoch> epoch_;
  std::vector<dfs::FileMetadata> metas_;  // input_file first, then extras
  RangeTable fs_ranges_;  // epoch_->fs_ranges; spill range identities are
                          // stable across mid-job membership changes

  Mutex state_mu_{Rank::kJobRunnerState, "JobRunner::state_mu_"};
  /// Range begin -> the spills of that range: one reduce's input. A group is
  /// sorted by spill id (and deduplicated) when a reduce plan is built, so a
  /// reduce reads its spills in id order; reducers that sum floating-point
  /// values depend on that order for bit-identical output.
  std::map<HashKey, std::vector<Spill>> spills_ GUARDED_BY(state_mu_);
  /// Spills reported by failed or cancelled attempts. Not part of the reduce
  /// plan; CleanupSpills deletes them alongside spills_, so a job leaves no
  /// partial intermediates in the DHT FS. An orphan's id may also be in
  /// spills_: spill ids are deterministic, so a retried attempt re-registers
  /// the same ids.
  std::vector<SpillInfo> orphan_spills_ GUARDED_BY(state_mu_);
  JobStats stats_;            // driver-thread only (outcomes are collected on
                              // the submitting thread, never on slot threads)
};

}  // namespace eclipse::mr
