#include "mr/cluster.h"

#include "mr/deployment.h"

#include <atomic>
#include <cassert>
#include <thread>

#include "common/log.h"
#include "fault/fault_plan.h"
#include "fault/fault_transport.h"
#include "obs/trace.h"

namespace eclipse::mr {

namespace {
// Process-wide job sequence: the `job` argument on every job span, spill
// scope, and metrics label — letting one capture hold several jobs (even
// from several clusters) and still attribute tasks to the right one.
std::atomic<std::uint64_t> g_job_seq{0};

WorkerOptions WorkerOptionsFor(const ClusterOptions& o) {
  WorkerOptions w;
  w.map_slots = o.map_slots;
  w.reduce_slots = o.reduce_slots;
  w.cache_capacity = o.cache_capacity;
  w.dfs_client.default_block_size = o.block_size;
  w.dfs_client.replication = o.replication;
  w.dfs_client.user = o.user;
  w.dfs_client.retry = o.rpc_retry;
  w.remote = o.deployment != nullptr;
  return w;
}
}  // namespace

std::uint64_t Cluster::NextJobId() { return g_job_seq.fetch_add(1) + 1; }

Cluster::Cluster(ClusterOptions options) : options_(std::move(options)) {
  const char* transport_label;
  if (options_.deployment) {
    // Multi-process mode: borrow the coordinator's transport (it owns the
    // bootstrap endpoint and the peer routes to every worker process) and
    // map the cluster onto the already-activated worker set.
    transport_label = "tcp";
    transport_raw_ = &options_.deployment->transport();
    std::vector<int> ids = options_.deployment->ActiveWorkers();
    options_.num_servers = static_cast<int>(ids.size());
    // WorkerServer slots are indexed by id; the coordinator assigns 0..N-1.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      assert(ids[i] == static_cast<int>(i) && "non-contiguous deployment worker ids");
    }
  } else {
    transport_label = "inproc";
    transport_ = std::make_unique<net::InProcessTransport>();
    transport_raw_ = transport_.get();
  }
  assert(options_.num_servers > 0);
  if (options_.fault_controller) {
    // The wrapper becomes the cluster transport: metrics are bound on it
    // (the inner transport's counters stay unbound — one account per call).
    std::unique_ptr<fault::FaultInjectingTransport> wrapped;
    if (transport_) {
      wrapped = std::make_unique<fault::FaultInjectingTransport>(
          std::move(transport_), options_.fault_controller);
    } else {
      wrapped = std::make_unique<fault::FaultInjectingTransport>(
          *transport_raw_, options_.fault_controller);
    }
    wrapped->BindFaultMetrics(metrics_);
    transport_ = std::move(wrapped);
    transport_raw_ = transport_.get();
  }
  transport_raw_->BindMetrics(metrics_, transport_label);

  {
    MutexLock lock(ring_mu_);
    for (int i = 0; i < options_.num_servers; ++i) ring_.AddServer(i, options_.vnodes);
    ring_snapshot_ = std::make_shared<const dht::Ring>(ring_);
  }

  dfs::RingProvider ring_provider = [this] { return ring_snapshot(); };

  const WorkerOptions wopts = WorkerOptionsFor(options_);

  for (const auto& [user, weight] : options_.user_weights) {
    arbiter_.SetWeight(user, weight);
  }

  {
    MutexLock lock(workers_mu_);  // no concurrency yet; satisfies the analysis
    workers_.reserve(options_.num_servers);
    for (int i = 0; i < options_.num_servers; ++i) {
      workers_.push_back(
          std::make_unique<WorkerServer>(i, *transport_raw_, ring_provider, wopts));
      WireSlowDisk(*workers_.back());
      // The worker's slots: map_slots + reduce_slots threads.
      arbiter_.AddWorker(i, options_.map_slots, options_.reduce_slots);
    }

    // In-process membership gossip assumes every node handler lives in this
    // process; multi-process liveness comes from the deployment
    // coordinator's bootstrap heartbeats instead.
    if (options_.start_membership && !options_.deployment) {
      dht::Ring initial = ring();
      for (int i = 0; i < options_.num_servers; ++i) {
        agents_.push_back(std::make_unique<dht::MembershipAgent>(
            i, *transport_raw_, workers_[static_cast<std::size_t>(i)]->dispatcher(),
            options_.membership));
        agents_.back()->SetRing(initial);
      }
      for (auto& agent : agents_) {
        agent->OnFailure([this](int failed) { Depart(failed); });
      }
      for (auto& agent : agents_) agent->Start();
    }
  }

  dfs::DfsClientOptions copts = wopts.dfs_client;
  client_ = std::make_unique<dfs::DfsClient>(ClientEndpointId(), *transport_raw_,
                                             ring_provider, copts);

  RebuildSchedulers();

  if (options_.deployment) {
    // The heartbeat monitor already dropped the peer route.
    options_.deployment->OnWorkerFailure([this](int failed) { Depart(failed); });
    options_.deployment->StartHeartbeatMonitor();
  }

  queue_ = std::make_unique<JobQueue>(*this, options_.max_concurrent_jobs);
}

Cluster::~Cluster() {
  // Detach the deployment failure callback first (blocks until any in-flight
  // invocation returns) — the monitor thread outlives this cluster.
  if (options_.deployment) options_.deployment->OnWorkerFailure(nullptr);
  // Drain the job queue first: queued jobs are cancelled, running jobs
  // observe their tokens — runner threads must exit before the arbiter's
  // slot threads, the workers, and the transport they use are torn down.
  queue_.reset();
  {
    MutexLock lock(workers_mu_);
    for (auto& agent : agents_) agent->Stop();
  }
  // The coordinator's transport outlives this cluster but its per-call
  // series was bound to the cluster-owned metrics_; detach before metrics_
  // dies or later calls (ShutdownAll, the next cluster's bootstrap) would
  // account into freed counters. AccountCall runs on the caller's thread
  // and every caller of the borrowed transport is joined or sequenced by
  // now, so no concurrent account can race the unbind. (The server/pool
  // internals, which heartbeat traffic keeps touching, live in the
  // coordinator-owned net_metrics() registry and need no unbind.)
  if (options_.deployment) options_.deployment->transport().UnbindMetrics();
}

JobHandle Cluster::Submit(JobSpec spec) { return queue_->Submit(std::move(spec)); }

std::uint64_t Cluster::PredictJobUs(const JobSpec& spec) {
  Bytes total = 0;
  std::vector<std::string> inputs{spec.input_file};
  inputs.insert(inputs.end(), spec.extra_inputs.begin(), spec.extra_inputs.end());
  for (const auto& input : inputs) {
    auto meta = client_->GetMetadata(input);
    if (!meta.ok()) return 0;  // the job will fail on its own; admit it
    total += meta.value().size;
  }
  // bound_us (mean + 2σ): admission promises a deadline, so it budgets for
  // an unlucky run, not the average one.
  auto p = predictor_.Predict(spec.name, sched::PredictPhase::kJob, total);
  return p ? p->bound_us : 0;
}

dht::Ring Cluster::ring() const {
  MutexLock lock(ring_mu_);
  return ring_;
}

std::shared_ptr<const dht::Ring> Cluster::ring_snapshot() const {
  MutexLock lock(ring_mu_);
  return ring_snapshot_;
}

void Cluster::WireSlowDisk(WorkerServer& w) {
  // Remote workers have no local BlockStore; their delay arrives over the
  // wire (SyncDiskDelays -> kSetDiskDelay).
  if (!options_.fault_controller || w.remote()) return;
  std::shared_ptr<fault::FaultController> ctl = options_.fault_controller;
  const int id = w.id();
  w.dfs_node().blocks().SetOpHook([ctl, id] {
    auto delay = ctl->DiskDelay(id);
    if (delay.count() <= 0) return;
    obs::Tracer::Global().Emit(
        'i', "fault", "fault_slow_disk", id,
        {obs::U64("delay_us", static_cast<std::uint64_t>(delay.count()))});
    std::this_thread::sleep_for(delay);
  });
}

void Cluster::SyncDiskDelays() {
  if (!options_.deployment || !options_.fault_controller) return;
  for (int id : WorkerIds()) {
    options_.deployment->SetDiskDelay(id, options_.fault_controller->DiskDelay(id).count());
  }
}

WorkerServer& Cluster::worker(int id) {
  MutexLock lock(workers_mu_);
  assert(id >= 0 && static_cast<std::size_t>(id) < workers_.size());
  return *workers_[static_cast<std::size_t>(id)];
}

std::vector<int> Cluster::WorkerIds() const {
  MutexLock lock(workers_mu_);
  std::vector<int> out;
  for (const auto& w : workers_) {
    if (!w->dead()) out.push_back(w->id());
  }
  return out;
}

std::shared_ptr<const SchedulerEpoch> Cluster::CurrentEpoch() const {
  MutexLock lock(sched_mu_);
  return epoch_;
}

void Cluster::RebuildSchedulers() {
  dht::Ring r = ring();
  auto next = std::make_shared<SchedulerEpoch>();
  next->fs_ranges = r.MakeRangeTable();
  std::vector<int> servers = r.Servers();
  next->laf =
      std::make_shared<sched::LafScheduler>(servers, next->fs_ranges, options_.laf);
  next->delay =
      std::make_shared<sched::DelayScheduler>(servers, next->fs_ranges, options_.delay);
  MutexLock lock(sched_mu_);
  next->version = epoch_ ? epoch_->version + 1 : 1;
  epoch_ = std::move(next);
}

dfs::RecoveryReport Cluster::KillServer(int id) {
  obs::Tracer::Global().Emit('i', "cluster", "kill_server", obs::kDriverPid,
                             {obs::U64("server", static_cast<std::uint64_t>(id))});
  // Multi-process: tell the worker process to exit (its in-memory blocks die
  // with it, exactly like a crashed machine) before dropping our route.
  if (options_.deployment) options_.deployment->ShutdownWorker(id);
  return Depart(id);
}

dfs::RecoveryReport Cluster::Depart(int id) {
  // Every surviving agent reports the same failure, and an operator's kill
  // may race them: only the caller that takes the worker off the ring below
  // goes on, and a report for a worker already off it ends here.
  if (!ring_snapshot()->Contains(id)) return {};
  WorkerServer& w = worker(id);
  if (!w.dead()) w.Kill();
  arbiter_.RemoveWorker(id);  // attempts queued for its slots fail over elsewhere
  {
    MutexLock lock(ring_mu_);
    if (!ring_.Contains(id)) return {};
    ring_.RemoveServer(id);
    ring_snapshot_ = std::make_shared<const dht::Ring>(ring_);
  }
  RebuildSchedulers();
  // The resource manager's take-over pass (§II-A): restore the replication
  // factor of every file using the surviving replicas.
  dfs::FsRecovery recovery(ClientEndpointId(), *transport_raw_,
                           [this] { return ring_snapshot(); });
  auto report = recovery.Repair(options_.replication);
  LOG_INFO << "recovery after server " << id << " left: " << report.blocks_copied
           << " blocks copied, " << report.blocks_lost << " lost";
  metrics_.GetCounter("cluster.recoveries").Add();
  metrics_.GetCounter("cluster.blocks_rereplicated").Add(report.blocks_copied);
  metrics_.GetCounter("cluster.blocks_lost").Add(report.blocks_lost);
  return report;
}

int Cluster::AddServer(dfs::RecoveryReport* report) {
  const WorkerOptions wopts = WorkerOptionsFor(options_);
  dfs::RingProvider ring_provider = [this] { return ring_snapshot(); };
  if (options_.deployment) {
    // Adopt a freshly started eclipse-worker process: it must complete the
    // bootstrap handshake first (the coordinator assigns ids sequentially,
    // so the newcomer is exactly the next slot). Waited for outside
    // workers_mu_ — the deployment mutex ranks before the cluster chain.
    int expected;
    {
      MutexLock lock(workers_mu_);
      expected = static_cast<int>(workers_.size());
    }
    int joined = options_.deployment->WaitForWorkerAtLeast(expected, /*timeout_ms=*/30'000);
    if (joined != expected) {
      LOG_ERROR << "AddServer: no new worker process joined (expected id " << expected
                << ", got " << joined << ") — start an eclipse-worker first";
      if (report) *report = {};
      return -1;
    }
  }
  int id;
  dht::MembershipAgent* agent = nullptr;
  {
    MutexLock lock(workers_mu_);
    id = static_cast<int>(workers_.size());
    workers_.push_back(
        std::make_unique<WorkerServer>(id, *transport_raw_, ring_provider, wopts));
    WireSlowDisk(*workers_.back());
    if (options_.start_membership && !options_.deployment) {
      agents_.push_back(std::make_unique<dht::MembershipAgent>(
          id, *transport_raw_, workers_.back()->dispatcher(), options_.membership));
      agent = agents_.back().get();
    }
  }
  // Visible to the arbiter before the ring: an in-flight job whose epoch
  // predates the newcomer may still never be routed to it, while a job
  // started after the rebuild can queue for its slots immediately.
  arbiter_.AddWorker(id, options_.map_slots, options_.reduce_slots);
  {
    MutexLock lock(ring_mu_);
    ring_.AddServer(id, options_.vnodes);
    ring_snapshot_ = std::make_shared<const dht::Ring>(ring_);
  }
  RebuildSchedulers();

  if (agent) {
    // Join through any live peer; fall back to a direct ring snapshot when
    // the newcomer is the only member. Outside workers_mu_: Join makes
    // transport calls into peers.
    bool joined = false;
    for (int peer : WorkerIds()) {
      if (peer != id && agent->Join(peer)) {
        joined = true;
        break;
      }
    }
    if (!joined) agent->SetRing(ring());
    agent->OnFailure([this](int failed) { Depart(failed); });
    agent->Start();
  }

  // Rebalance: the newcomer takes over its hash-key ranges' data.
  dfs::FsRecovery recovery(ClientEndpointId(), *transport_raw_,
                           [this] { return ring_snapshot(); });
  auto r = recovery.Repair(options_.replication, /*drop_extraneous=*/true);
  LOG_INFO << "rebalance after adding server " << id << ": " << r.blocks_copied
           << " blocks copied, " << r.blocks_dropped << " dropped";
  obs::Tracer::Global().Emit('i', "cluster", "add_server", obs::kDriverPid,
                             {obs::U64("server", static_cast<std::uint64_t>(id)),
                              obs::U64("blocks_copied", r.blocks_copied)});
  if (report) *report = r;
  return id;
}

std::size_t Cluster::MigrateMisplacedCache() {
  RangeTable ranges = CacheRanges();
  std::size_t moved = 0;
  // Each live server pulls, from both ring neighbors, the entries whose
  // keys its new range covers (§II-E checks "a left or a right neighbor").
  dht::Ring r = ring();
  for (int id : WorkerIds()) {
    KeyRange mine = ranges.RangeOf(id);
    if (mine.IsEmpty()) continue;
    for (int neighbor : {r.PredecessorOf(id), r.SuccessorOf(id)}) {
      if (neighbor < 0 || neighbor == id || worker(neighbor).dead()) continue;
      moved += worker(id).CacheMigrateFrom(neighbor, mine);
    }
  }
  return moved;
}

std::vector<WorkerServer*> Cluster::SnapshotWorkers(bool live_only) const {
  // WorkerServer objects are stable once inserted (never erased), so the
  // pointers stay valid after the lock drops — remote-mode cache queries are
  // RPCs and must not run under workers_mu_.
  MutexLock lock(workers_mu_);
  std::vector<WorkerServer*> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) {
    if (!live_only || !w->dead()) out.push_back(w.get());
  }
  return out;
}

cache::CacheStats Cluster::AggregateCacheStats() const {
  cache::CacheStats total;
  for (WorkerServer* w : SnapshotWorkers(/*live_only=*/false)) {
    auto info = w->CacheInfo();
    for (std::size_t k = 0; k < cache::kNumEntryKinds; ++k) {
      total.hits += info.by_kind[k].hits;
      total.misses += info.by_kind[k].misses;
      total.inserts += info.by_kind[k].inserts;
      total.evictions += info.by_kind[k].evictions;
    }
  }
  return total;
}

void Cluster::ResetCacheStats() {
  for (WorkerServer* w : SnapshotWorkers(/*live_only=*/false)) w->CacheResetStats();
}

std::string Cluster::MetricsPrometheus() {
  std::int64_t live = 0;
  for (WorkerServer* w : SnapshotWorkers(/*live_only=*/true)) {
    ++live;
    auto info = w->CacheInfo();
    MetricLabels labels{{"server", std::to_string(w->id())}};
    metrics_.GetGauge("cache.used_bytes", labels)
        .Set(static_cast<std::int64_t>(info.used));
    metrics_.GetGauge("cache.capacity_bytes", labels)
        .Set(static_cast<std::int64_t>(info.capacity));
    metrics_.GetGauge("cache.entries", labels)
        .Set(static_cast<std::int64_t>(info.count));
  }
  metrics_.GetGauge("cluster.live_servers").Set(live);
  std::string out = metrics_.RenderPrometheus();
  // Deployment mode: append the coordinator-owned socket internals
  // (net.accepted_connections, net.frames_dispatched, net.handler_threads,
  // net.pool_*) — they live in a registry with the transport's lifetime,
  // not this cluster's (see DeploymentCoordinator::net_metrics).
  if (options_.deployment) out += options_.deployment->net_metrics().RenderPrometheus();
  return out;
}

RangeTable Cluster::CacheRanges() const {
  std::shared_ptr<const SchedulerEpoch> epoch = CurrentEpoch();
  return options_.scheduler == SchedulerKind::kLaf ? epoch->laf->ranges()
                                                   : epoch->delay->ranges();
}

dht::MembershipAgent* Cluster::membership(int id) {
  MutexLock lock(workers_mu_);
  for (auto& agent : agents_) {
    if (agent->self() == id) return agent.get();
  }
  return nullptr;
}

}  // namespace eclipse::mr
