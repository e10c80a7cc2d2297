// The emulated EclipseMR cluster: worker servers on a shared transport, a
// job scheduler (LAF or Delay), the DHT file system spanning the workers,
// and optional membership heartbeats.
//
// This is the library's main entry point:
//
//   mr::ClusterOptions opts;
//   opts.num_servers = 8;
//   mr::Cluster cluster(opts);
//   cluster.dfs().Upload("corpus.txt", text);
//   mr::JobSpec job = ...;
//   mr::JobResult result = cluster.Run(job);
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "dfs/recovery.h"
#include "dht/membership.h"
#include "fault/fault_plan.h"
#include "mr/job_queue.h"
#include "mr/types.h"
#include "mr/worker.h"
#include "sched/delay_scheduler.h"
#include "sched/laf_scheduler.h"
#include "sched/runtime_predictor.h"
#include "sched/slot_arbiter.h"

namespace eclipse::mr {

class DeploymentCoordinator;

enum class SchedulerKind { kLaf, kDelay };

/// One immutable generation of scheduling state. RebuildSchedulers (worker
/// join/leave) publishes a fresh epoch; a JobRunner captures the current
/// epoch once at start and works from it for the whole job, so a membership
/// change — or another job's LAF repartition, which mutates only that
/// epoch's scheduler — can never silently re-route an in-flight job's
/// shuffle. The schedulers themselves are internally thread-safe, so the
/// concurrent runners sharing an epoch contend only on their fine-grained
/// locks.
struct SchedulerEpoch {
  std::uint64_t version = 0;
  /// DHT-FS range table at epoch creation: spill placement + reduce-side
  /// range identities for jobs started under this epoch.
  RangeTable fs_ranges;
  std::shared_ptr<sched::LafScheduler> laf;
  std::shared_ptr<sched::DelayScheduler> delay;
};

struct ClusterOptions {
  int num_servers = 8;
  int map_slots = 2;
  int reduce_slots = 2;
  Bytes cache_capacity = 64_MiB;  // per server (paper sweeps 0..8 GB)
  Bytes block_size = 4_KiB;       // DHT-FS block size (paper used 128 MiB)
  std::size_t replication = 3;    // owner + successor + predecessor
  int vnodes = 1;                 // virtual ring positions per server
                                  // (consistent-hashing balance extension)

  SchedulerKind scheduler = SchedulerKind::kLaf;
  sched::LafOptions laf{};
  sched::DelayOptions delay{.wait_timeout_sec = 0.05};  // scaled for tests;
                                                        // the paper's Spark
                                                        // value is 5 s

  /// Run heartbeat-based membership agents on every worker (integration and
  /// failure tests); off by default to keep unit tests quiet and fast.
  bool start_membership = false;
  dht::MembershipConfig membership{};

  /// Multi-process deployment (docs/deployment.md): worker data planes are
  /// separate eclipse-worker processes already bootstrapped by this
  /// coordinator. The cluster borrows the coordinator's TCP transport,
  /// builds remote-mode WorkerServers over the active worker set
  /// (num_servers is overridden by it), replaces in-process membership
  /// agents with the coordinator's heartbeat monitor, and pushes ring/peer
  /// updates to workers on every membership change. The coordinator must
  /// outlive the Cluster.
  std::shared_ptr<DeploymentCoordinator> deployment;

  /// When set, the cluster transport is wrapped in a
  /// fault::FaultInjectingTransport and every worker's BlockStore consults
  /// the controller for slow-disk latency — install a FaultPlan on the
  /// controller to run a chaos drill (docs/fault-tolerance.md). Null: no
  /// fault layer, zero overhead.
  std::shared_ptr<fault::FaultController> fault_controller;

  /// Per-RPC retry policy used by every DfsClient in the cluster (workers
  /// and the external client). See net/retry.h for the defaults.
  net::RetryPolicy rpc_retry;

  /// Default submitting user (jobs with an empty JobSpec::user inherit it).
  std::string user = "eclipse";

  /// JobRunners executing at once through Submit (further submissions queue
  /// FIFO). Thread count is NOT scaled by this: each worker's slots are
  /// exactly map_slots + reduce_slots threads, and concurrent jobs' attempts
  /// wait in the SlotArbiter's queues, holding no thread, until it grants
  /// them a slot.
  int max_concurrent_jobs = 4;

  /// Fair-share weights per user for contended-slot arbitration (absent
  /// users weigh 1.0). A user with weight 2 receives twice the contended
  /// slots of a weight-1 user under sustained demand.
  std::map<std::string, double> user_weights;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// DHT-FS client bound to an external (non-worker) endpoint.
  dfs::DfsClient& dfs() { return *client_; }

  /// Execute one MapReduce job to completion on the calling thread. Safe to
  /// call concurrently with Submit-ted jobs (slots are arbitrated either
  /// way); for multi-job workloads prefer Submit.
  JobResult Run(const JobSpec& spec);

  /// Enqueue a job for asynchronous execution; up to max_concurrent_jobs
  /// run in parallel over the shared workers. See job_queue.h.
  JobHandle Submit(JobSpec spec);

  /// The multi-job front end (pending/running introspection for tests).
  JobQueue& queue() { return *queue_; }

  /// Cross-job per-worker slot arbitration (weighted max-min fair).
  sched::SlotArbiter& arbiter() { return arbiter_; }

  /// Online runtime predictor shared by every job this cluster runs: task
  /// and whole-job durations recorded by JobRunners, consulted by straggler
  /// deviation mode, JobQueue admission control, and the arbiter's
  /// remaining-work demand weighting. Persists across jobs.
  sched::RuntimePredictor& predictor() { return predictor_; }

  /// Predicted wall time (µs) of running `spec` on this cluster, from the
  /// predictor's whole-job history for spec.name scaled to the job's input
  /// size (one GetMetadata round per input). 0 while the predictor is cold
  /// for that name or the inputs don't resolve.
  std::uint64_t PredictJobUs(const JobSpec& spec);

  /// Process-wide monotonic job-id source — unique across every Cluster in
  /// the process, so one trace capture holding several clusters' jobs still
  /// attributes tasks unambiguously.
  static std::uint64_t NextJobId();

  /// The current scheduling epoch (never null after construction). Callers
  /// keep the shared_ptr for as long as they need a consistent view.
  std::shared_ptr<const SchedulerEpoch> CurrentEpoch() const;

  /// Current alive membership.
  dht::Ring ring() const;

  /// Immutable snapshot of the current membership: one refcount bump, no
  /// ring copy. This is what the DFS data path consumes (dfs::RingProvider)
  /// — a fresh snapshot is published on every membership change.
  std::shared_ptr<const dht::Ring> ring_snapshot() const;

  /// Worker access (fault injection, cache inspection). Asserts on bad id.
  WorkerServer& worker(int id);
  std::vector<int> WorkerIds() const;

  /// Crash a worker (in deployment mode its process is asked to exit first),
  /// then run the departure every failure detector runs: see Depart. A
  /// worker already off the ring returns an empty report.
  dfs::RecoveryReport KillServer(int id);

  /// Grow the cluster: boot a fresh worker, place it on the ring, rebuild
  /// the schedulers, and rebalance — blocks and metadata whose replica sets
  /// now include the newcomer are copied to it, and ex-replica copies are
  /// retired (§II: the resource manager handles "server join, leave,
  /// failure recovery"). Returns the new server's id.
  int AddServer(dfs::RecoveryReport* report = nullptr);

  /// §II-E option: move cache entries that a LAF re-partition left on the
  /// wrong server to the new range owner. No job runs it (the paper disabled
  /// it in its experiments); bench_ablation and tests call it directly.
  std::size_t MigrateMisplacedCache();

  /// Cache statistics summed over live workers.
  cache::CacheStats AggregateCacheStats() const;
  void ResetCacheStats();

  const ClusterOptions& options() const { return options_; }
  net::Transport& transport() { return *transport_raw_; }

  /// Multi-process mode: push the fault controller's current per-worker
  /// slow-disk delays to the worker processes (the in-process BlockStore
  /// hook consults the controller directly; a remote BlockStore sleeps the
  /// last value pushed). No-op without a deployment or controller.
  void SyncDiskDelays();

  /// The cache-layer partition currently in force (LAF's dynamic ranges or
  /// Delay's static ones).
  RangeTable CacheRanges() const;

  /// Membership agent of a worker (only when start_membership was set).
  dht::MembershipAgent* membership(int id);

  /// Cluster-wide operational metrics (job counts, task retries, cache
  /// hits, recovery activity, job-duration histogram). See
  /// MetricsRegistry::Render for the report format.
  MetricsRegistry& metrics() { return metrics_; }

  /// Prometheus text exposition of metrics(). Refreshes point-in-time gauges
  /// first (cluster.live_servers plus per-server cache.used_bytes /
  /// cache.capacity_bytes / cache.entries, labelled {server="N"}), then
  /// renders every family. See docs/observability.md for the full catalog.
  std::string MetricsPrometheus();

 private:
  friend class JobRunner;

  void RebuildSchedulers();
  /// The one path by which a worker leaves: KillServer, a membership
  /// agent's verdict and the deployment coordinator's heartbeat monitor all
  /// call it. It marks the worker dead, withdraws its slots, takes it off the
  /// ring, rebuilds the schedulers, restores every file's replication
  /// (FsRecovery::Repair) and counts cluster.recoveries,
  /// cluster.blocks_rereplicated and cluster.blocks_lost. Safe to call from
  /// several threads for one worker: only the first call that finds it on
  /// the ring does the work, the others return an empty report.
  dfs::RecoveryReport Depart(int id);
  /// Point the worker's BlockStore op hook at the fault controller's
  /// slow-disk delay (no-op without a controller).
  void WireSlowDisk(WorkerServer& w);
  /// Stable worker pointers without holding workers_mu_ (remote-mode cache
  /// queries are RPCs and must not run under cluster locks).
  std::vector<WorkerServer*> SnapshotWorkers(bool live_only) const;
  int ClientEndpointId() const { return 1'000'000; }

  // Lock hierarchy (outermost first): workers_mu_ → ring_mu_ → sched_mu_.
  // All three are held only for brief state reads/copies; no transport call,
  // scheduler decision, or recovery pass runs under any of them.
  ClusterOptions options_;
  // Declared before transport_ so it outlives it: the owned transport
  // accounts its calls into counters here until its own destructor runs.
  MetricsRegistry metrics_;
  // Owned transport (in-process mode, and the fault wrapper in every mode);
  // null when the deployment coordinator's transport is borrowed bare.
  std::unique_ptr<net::Transport> transport_;
  // The transport every component actually uses (owned or borrowed).
  net::Transport* transport_raw_ = nullptr;

  mutable Mutex ring_mu_ ACQUIRED_AFTER(workers_mu_){Rank::kClusterRing, "Cluster::ring_mu_"};
  dht::Ring ring_ GUARDED_BY(ring_mu_);
  // Republished (one make_shared copy) on every ring_ mutation so readers
  // get an immutable view for a refcount bump.
  std::shared_ptr<const dht::Ring> ring_snapshot_ GUARDED_BY(ring_mu_);

  // AddServer grows these vectors while jobs, heartbeat callbacks, and tests
  // read them concurrently; the mutex protects the vectors themselves. The
  // pointed-to WorkerServer/MembershipAgent objects are stable once inserted
  // (never erased — KillServer only marks them dead) and internally
  // thread-safe, so references handed out by worker() stay valid unlocked.
  mutable Mutex workers_mu_{Rank::kClusterWorkers, "Cluster::workers_mu_"};
  std::vector<std::unique_ptr<WorkerServer>> workers_ GUARDED_BY(workers_mu_);
  std::vector<std::unique_ptr<dht::MembershipAgent>> agents_
      GUARDED_BY(workers_mu_);  // empty when membership is off
  std::unique_ptr<dfs::DfsClient> client_;

  // Internally synchronized; takes no other cluster lock, so it may be
  // called from anywhere. Owns the slot threads, which run task bodies that
  // touch workers_: declared after workers_ so it is destroyed (threads
  // joined) first, and after every runner is gone (see queue_).
  sched::SlotArbiter arbiter_;

  // Internally synchronized like the arbiter; outlives the queue (runner
  // threads record completions into it until they drain).
  sched::RuntimePredictor predictor_;

  mutable Mutex sched_mu_ ACQUIRED_AFTER(ring_mu_){Rank::kClusterSched, "Cluster::sched_mu_"};
  std::shared_ptr<const SchedulerEpoch> epoch_ GUARDED_BY(sched_mu_);

  // Destroyed first (declaration order): runner threads drain before the
  // arbiter, workers, and transport they use go away.
  std::unique_ptr<JobQueue> queue_;
};

}  // namespace eclipse::mr
