#include "mr/job_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <type_traits>

#include "common/log.h"
#include "mr/record_reader.h"
#include "net/retry.h"
#include "obs/trace.h"

namespace eclipse::mr {
namespace {

constexpr int kMaxAttemptsPerTask = 5;

/// A reduce gathers its spills, and the cleanup deletes them, in DHT-FS calls
/// of at most this many encoded bytes each, far below the wire's 1 GiB frame
/// limit.
constexpr Bytes kGatherBatchBytes = 64_MiB;

/// The per-job metric series (mr.job_map_tasks{job}, mr.job_reduce_tasks{job})
/// of this many newest jobs are kept; older ones are dropped, so the registry
/// does not grow with every job. At least the 12 jobs multi_tenant checks.
constexpr std::size_t kJobSeriesKept = 64;

net::Deadline TaskDeadline(const JobSpec& spec) {
  return spec.task_deadline.count() > 0
             ? net::Deadline::After(std::chrono::duration_cast<std::chrono::microseconds>(
                   spec.task_deadline))
             : net::Deadline::Never();
}

std::uint64_t ElapsedUs(std::chrono::steady_clock::time_point since,
                        std::chrono::steady_clock::time_point now) {
  auto us = std::chrono::duration_cast<std::chrono::microseconds>(now - since).count();
  return us < 0 ? 0 : static_cast<std::uint64_t>(us);
}

/// The first live server in `key`'s replica order (owner, successor,
/// predecessor, ...), or -1 when none is left. A killed server is marked dead
/// before it leaves the ring, so for a moment the ring still names it as an
/// owner; a task placed there fails at once, and each relaunch would land on
/// it again until the task's attempt budget is gone.
int LiveOwner(Cluster& cluster, HashKey key) {
  const std::shared_ptr<const dht::Ring> ring = cluster.ring_snapshot();
  for (int server : ring->Replicas(key, ring->size())) {
    if (!cluster.worker(server).dead()) return server;
  }
  return -1;
}

/// MapContext bound to a ShuffleWriter (which copies the bytes into its
/// staging arena before Add returns).
class ShuffleMapContext : public MapContext {
 public:
  ShuffleMapContext(ShuffleWriter& shuffle, const std::string& shared_state)
      : shuffle_(shuffle), shared_state_(shared_state) {}

  void Emit(std::string_view key, std::string_view value) override {
    Status s = shuffle_.Add(key, value);
    if (!s.ok() && status_.ok()) status_ = s;
  }

  const std::string& shared_state() const override { return shared_state_; }
  const Status& status() const { return status_; }

 private:
  ShuffleWriter& shuffle_;
  const std::string& shared_state_;
  Status status_;
};

/// Reducer output escapes the task (into JobResult), so Emit owns a copy —
/// the one deliberate copy on the reduce side.
class VectorReduceContext : public ReduceContext {
 public:
  void Emit(std::string_view key, std::string_view value) override {
    output_.push_back(KV{std::string(key), std::string(value)});
  }
  std::vector<KV>& output() { return output_; }

 private:
  std::vector<KV> output_;
};

/// Runs `fn` when the scope exits, whatever path it takes.
template <typename F>
class OnExit {
 public:
  explicit OnExit(F fn) : fn_(std::move(fn)) {}
  OnExit(const OnExit&) = delete;
  OnExit& operator=(const OnExit&) = delete;
  ~OnExit() { fn_(); }

 private:
  F fn_;
};

}  // namespace

JobRunner::JobRunner(Cluster& cluster, const JobSpec& spec, std::uint64_t job_id,
                     std::shared_ptr<std::atomic<bool>> cancel)
    : cluster_(cluster),
      spec_(spec),
      job_id_(job_id),
      cancel_(std::move(cancel)),
      user_(spec.user.empty() ? cluster.options().user : spec.user) {}

JobResult JobRunner::Run() {
  JobResult result;
  result.job_id = job_id_;
  auto t0 = std::chrono::steady_clock::now();
  // One immutable epoch for the whole job (see the epoch_ member comment).
  epoch_ = cluster_.CurrentEpoch();
  obs::TraceSpan job_span("mr", "job", obs::kDriverPid,
                          {obs::U64("job", job_id_), obs::U64("epoch", epoch_->version)});
  std::vector<KV> output;
  result.status = Execute(&output);
  if (!result.status.ok()) {
    CleanupSpills();  // before the handle completes, as a caller may check at once
    return result;
  }

  result.output = std::move(output);
  stats_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  result.stats = stats_;

  // Whole-job history for admission control: the next Submit of this job
  // name predicts its completion from runs like this one.
  cluster_.predictor().Record(spec_.name, sched::PredictPhase::kJob,
                              stats_.input_bytes,
                              static_cast<std::uint64_t>(stats_.wall_seconds * 1e6));

  auto& metrics = cluster_.metrics();
  // Per-job series of the newest jobs (job="N" matches the trace spans' job
  // arg) and per-user series, alongside the unlabeled cluster-wide totals.
  const MetricLabels job_label{{"job", std::to_string(job_id_)}};
  metrics.AddToBoundedCounter("mr.job_map_tasks", job_label, stats_.map_tasks,
                              kJobSeriesKept);
  metrics.AddToBoundedCounter("mr.job_reduce_tasks", job_label, stats_.reduce_tasks,
                              kJobSeriesKept);
  metrics.GetHistogram("mr.job_wall_us_by_user", {{"user", user_}})
      .Record(static_cast<std::uint64_t>(stats_.wall_seconds * 1e6));
  metrics.GetCounter("mr.jobs_by_user", {{"user", user_}}).Add();
  metrics.GetCounter("mr.jobs_completed").Add();
  metrics.GetCounter("mr.map_tasks").Add(stats_.map_tasks);
  metrics.GetCounter("mr.maps_skipped").Add(stats_.maps_skipped);
  metrics.GetCounter("mr.map_retries").Add(stats_.map_retries);
  metrics.GetCounter("mr.maps_speculated").Add(stats_.maps_speculated);
  metrics.GetCounter("mr.reduces_speculated").Add(stats_.reduces_speculated);
  metrics.GetCounter("mr.speculative_wins").Add(stats_.speculative_wins);
  metrics.GetCounter("mr.reduce_tasks").Add(stats_.reduce_tasks);
  metrics.GetCounter("mr.spills").Add(stats_.spills);
  metrics.GetCounter("mr.bytes_spilled").Add(stats_.bytes_spilled);
  metrics.GetCounter("mr.icache_hits").Add(stats_.icache_hits);
  metrics.GetCounter("mr.icache_misses").Add(stats_.icache_misses);
  metrics.GetCounter("mr.ocache_hits").Add(stats_.ocache_hits);
  metrics.GetCounter("mr.ocache_misses").Add(stats_.ocache_misses);
  metrics.GetCounter("mr.map_tasks_by_locality", {{"locality", "memory"}})
      .Add(stats_.maps_memory);
  metrics.GetCounter("mr.map_tasks_by_locality", {{"locality", "local_disk"}})
      .Add(stats_.maps_local_disk);
  metrics.GetCounter("mr.map_tasks_by_locality", {{"locality", "remote_disk"}})
      .Add(stats_.maps_remote_disk);
  metrics.GetCounter("mr.map_tasks_by_locality", {{"locality", "skipped"}})
      .Add(stats_.maps_skipped);
  metrics.GetHistogram("mr.job_wall_us")
      .Record(static_cast<std::uint64_t>(stats_.wall_seconds * 1e6));
  job_span.AddArg(obs::U64("maps", stats_.map_tasks));
  job_span.AddArg(obs::U64("reduces", stats_.reduce_tasks));
  return result;
}

Status JobRunner::Execute(std::vector<KV>* output) {
  if (JobCancelled()) return Status::Error(ErrorCode::kCancelled, "job cancelled before start");
  // Step 1-2 (Fig. 2): metadata from each input's file-metadata owner.
  std::vector<std::string> inputs{spec_.input_file};
  inputs.insert(inputs.end(), spec_.extra_inputs.begin(), spec_.extra_inputs.end());
  for (const auto& input : inputs) {
    auto meta = cluster_.dfs().GetMetadata(input);
    if (!meta.ok()) return meta.status();
    stats_.input_bytes += meta.value().size;
    metas_.push_back(std::move(meta.value()));
  }
  fs_ranges_ = epoch_->fs_ranges;
  auto cancelled = [](const char* phase) {
    return Status::Error(ErrorCode::kCancelled,
                         std::string("job cancelled during ") + phase + " phase");
  };

  // Step 3-5: map phase over every block of every input.
  std::vector<BlockRef> blocks;
  for (std::size_t f = 0; f < metas_.size(); ++f) {
    for (std::uint64_t i = 0; i < metas_[f].num_blocks; ++i) {
      blocks.push_back(BlockRef{f, i});
    }
  }
  Status status = RunMapPhase(blocks);
  if (JobCancelled()) return cancelled("map");
  if (!status.ok()) return status;

  // Step 6: reduce where the intermediate results live. If a reduce finds
  // its spills died with a server (intermediates are not replicated by
  // default, §II-C), the producing maps are re-executed — their fresh
  // spills may land under the post-failure range table, so the whole reduce
  // plan is rebuilt from the authoritative spill set and retried.
  std::vector<std::vector<KV>> runs;  // one key-sorted run per range, ascending
  for (int phase_attempt = 0; phase_attempt < kMaxAttemptsPerTask; ++phase_attempt) {
    runs.clear();
    status = RunReducePhase(&runs);
    if (status.code() != ErrorCode::kNotFound) break;
  }
  if (JobCancelled()) return cancelled("reduce");
  if (!status.ok()) return status;

  {
    // Ranges hash-partition the keys, so the runs interleave: merge them.
    obs::TraceSpan sort_span("mr", "sort", obs::kDriverPid, {obs::U64("job", job_id_)});
    MergeRuns(runs, output);
  }
  if (spec_.output_file.empty()) return Status::Ok();
  obs::TraceSpan upload_span("mr", "output_upload", obs::kDriverPid,
                             {obs::U64("job", job_id_)});
  std::size_t bytes = 0;
  for (const auto& kv : *output) bytes += kv.key.size() + kv.value.size() + 2;
  std::string serialized;
  serialized.reserve(bytes);
  for (const auto& kv : *output) {
    serialized += kv.key;
    serialized.push_back('\t');
    serialized += kv.value;
    serialized.push_back('\n');
  }
  cluster_.dfs().Delete(spec_.output_file);  // replace semantics
  Status s = cluster_.dfs().Upload(spec_.output_file, serialized);
  if (!s.ok()) return Status::Error(s.code(), "output write failed: " + s.message());
  stats_.output_bytes = serialized.size();
  return Status::Ok();
}

void JobRunner::CleanupSpills() {
  // Tagged intermediates stay: every spill in spills_ was fully written and
  // its manifest is independently valid, so a later job with the same tag
  // reuses them (§II-C). Untagged spills are private to this job_id — no
  // other job can ever reference them — and reduces never put them in the
  // oCache, so only the DHT FS holds them.
  if (!spec_.intermediate_tag.empty()) return;
  // Range begin -> the range's distinct spill ids: a spill is stored at its
  // range's owner, so one call there deletes the whole range.
  std::map<HashKey, std::vector<std::string>> doomed;
  {
    MutexLock lock(state_mu_);
    for (auto& [range_begin, group] : spills_) {
      for (Spill& spill : group) doomed[range_begin].push_back(std::move(spill.info.id));
    }
    for (SpillInfo& info : orphan_spills_) {
      doomed[info.range_begin].push_back(std::move(info.id));
    }
    spills_.clear();
    orphan_spills_.clear();
    for (auto& [range_begin, ids] : doomed) {  // ledger ids may repeat across attempts
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    }
  }
  if (doomed.empty()) return;
  // Timed only if the capture was already on: NowUs() counts from the
  // capture's start, so a reading taken before Start() would be meaningless.
  obs::Tracer& tracer = obs::Tracer::Global();
  const bool traced = tracer.enabled();
  const std::uint64_t t0 = traced ? tracer.NowUs() : 0;
  std::uint64_t deleted = 0;
  std::uint64_t calls = 0;
  std::vector<Bytes> sizes;  // encoded id sizes, for BatchEnds
  for (const auto& [range_begin, ids] : doomed) {
    sizes.clear();
    for (const std::string& id : ids) sizes.push_back(4 + id.size());
    std::size_t begin = 0;
    for (std::size_t end : BatchEnds(sizes, kGatherBatchBytes)) {
      cluster_.dfs().DeleteObjects(std::span(ids).subspan(begin, end - begin), range_begin);
      ++calls;
      begin = end;
    }
    deleted += ids.size();
  }
  // A complete event, not a TraceSpan: after a success this runs beside the
  // caller, who may stop and export the capture in the meantime.
  if (traced) {
    tracer.EmitComplete(t0, "mr", "spill_cleanup", obs::kDriverPid,
                        {obs::U64("job", job_id_), obs::U64("spills_deleted", deleted),
                         obs::U64("calls", calls)});
  }
}

/// The attempt driver (declared in job_runner.h). Every attempt is queued at
/// the SlotArbiter, runs on a slot thread of its worker once granted, and as
/// its last act pushes its outcome onto this set's completion queue. The
/// driver sleeps on that queue until an attempt completes or — with
/// speculation on — until the earliest moment a running primary could cross
/// the straggler threshold; nothing polls.
template <typename Outcome>
class JobRunner::AttemptSet {
 public:
  using Clock = std::chrono::steady_clock;
  /// What the driver needs to know about the phase it runs.
  struct Phase {
    sched::SlotKind slot;         // the worker slots an attempt holds
    sched::PredictPhase predict;  // where winners' durations are recorded
    const char* label;            // "map" / "reduce": the trace instants' task arg
  };
  /// Server for a task's primary attempt (its first launch and every
  /// relaunch), or -1 when no server is left.
  using PlaceFn = std::function<int(std::size_t task)>;
  /// The task body, run holding one of the worker's slots; `cancel` flips
  /// when a sibling attempt wins.
  using RunFn =
      std::function<Outcome(WorkerServer&, std::size_t task, const std::atomic<bool>& cancel)>;

  struct Attempt {
    int server = -1;
    bool backup = false;
    std::shared_ptr<std::atomic<bool>> cancel;
    Clock::time_point start;
  };
  struct Task {
    Bytes bytes = 0;            // predictor size bucket
    obs::TraceArg trace_arg{};  // optional arg naming the task in trace instants
    int tries = 0;    // primary launches, counted against kMaxAttemptsPerTask
    int running = 0;  // launched attempts whose completion is not yet consumed
    bool backup_checked = false;  // the running primary had its one backup chance
    bool resolved = false;        // `outcome` is the winner
    Outcome outcome{};  // the winner when resolved, else the most informative failure
    std::vector<Attempt> attempts{};
  };

  std::vector<Task> tasks;  // filled by the caller before Run
  // Tallies the caller folds into its JobStats.
  std::uint64_t backups = 0;     // backup attempts launched
  std::uint64_t relaunches = 0;  // primaries relaunched after a task's attempts all failed
  /// Set by Run when a task used up its kMaxAttemptsPerTask budget; Run then
  /// returns that task's last failure.
  std::optional<std::size_t> exhausted;

  AttemptSet(JobRunner& runner, Phase phase, PlaceFn place, RunFn run)
      : r_(runner),
        phase_(phase),
        place_(std::move(place)),
        run_(std::move(run)),
        detector_({.percentile = runner.spec_.straggler_percentile,
                   .multiplier = runner.spec_.straggler_multiplier,
                   .min_completed = runner.spec_.speculation_min_completed,
                   .deviation_multiplier = runner.spec_.straggler_deviation}) {}

  /// Launch every task, then drive until no attempt is outstanding. Returns
  /// the first fatal status. A reduce whose spills were lost concludes
  /// unresolved without one: its producers are the caller's to re-run.
  Status Run() {
    if (r_.spec_.speculative_execution && r_.spec_.predictor_speculation && !tasks.empty()) {
      // Deviation mode: anchor the threshold at this job name's history for
      // an average-sized task, so even a warm job's first attempts can be
      // caught. Cold predictor → no SetPredictedUs → percentile fallback.
      Bytes total = 0;
      for (const Task& t : tasks) total += t.bytes;
      if (auto p = r_.cluster_.predictor().Predict(r_.spec_.name, phase_.predict,
                                                   total / tasks.size())) {
        detector_.SetPredictedUs(p->mean_us);
      }
    }
    for (std::size_t i = 0; i < tasks.size() && fatal_.ok(); ++i) LaunchPrimary(i);
    std::vector<Completion> batch;
    while (outstanding_ > 0) {
      TakeCompletions(LaunchBackups(), &batch);
      for (Completion& c : batch) Complete(c);
    }
    // Every completion was consumed, but only a destroyed body proves it has
    // returned, freed its slot and stopped touching this set.
    MutexLock lock(mu_);
    while (live_ > 0) cv_.wait(lock);
    return fatal_;
  }

 private:
  struct Completion {
    std::size_t task;
    std::size_t attempt;
    Clock::time_point at;
    Outcome outcome;
  };

  /// Held by every submitted body, and counted in live_ while it exists. The
  /// arbiter destroys a body only after it has returned and its slot is
  /// free, so once live_ is 0 no attempt touches this set or holds a slot.
  struct Flight {
    explicit Flight(AttemptSet& s) : set(s) {
      MutexLock lock(set.mu_);
      ++set.live_;
    }
    ~Flight() {
      MutexLock lock(set.mu_);
      if (--set.live_ == 0) set.cv_.notify_one();  // only Run's last wait needs it
    }
    AttemptSet& set;
  };

  void LaunchPrimary(std::size_t i) {
    const int server = place_(i);
    if (server < 0) {
      fatal_ = Status::Error(ErrorCode::kUnavailable, "no servers left");
      return;
    }
    ++tasks[i].tries;
    tasks[i].backup_checked = false;
    Launch(i, server, /*backup=*/false);
  }

  void Launch(std::size_t i, int server, bool backup) {
    Task& t = tasks[i];
    Attempt& a = t.attempts.emplace_back(Attempt{
        server, backup, std::make_shared<std::atomic<bool>>(false), Clock::now()});
    ++t.running;
    ++outstanding_;
    WorkerServer& w = r_.cluster_.worker(server);
    // The shared slot gate: the body runs on a slot thread of `w` once this
    // job's fair share admits it; job or attempt cancellation and worker
    // removal withdraw it instead. noexcept: a body that threw would never
    // report its completion.
    r_.cluster_.arbiter().Submit(
        server, phase_.slot, r_.user_, r_.cancel_.get(), a.cancel.get(),
        [this, &w, i, n = t.attempts.size() - 1, cancel = a.cancel,
         flight = std::make_shared<Flight>(*this)](Status slot) noexcept {
          Outcome o;
          o.status = std::move(slot);
          if (o.status.ok()) {
            // Every RPC the attempt makes (cache fetches, DHT-FS reads,
            // spill pushes) sees this cutoff through CurrentDeadline().
            net::ScopedDeadline deadline(TaskDeadline(r_.spec_));
            if (w.dead()) {
              o.status = Status::Error(ErrorCode::kUnavailable, "worker died");
            } else {
              o = run_(w, i, *cancel);
            }
          }
          {
            MutexLock lock(mu_);
            done_.push_back(Completion{i, n, Clock::now(), std::move(o)});
          }
          cv_.notify_one();
        });
  }

  /// Block until an attempt completes (or `wake` passes), then move every
  /// queued completion into `batch`.
  void TakeCompletions(Clock::time_point wake, std::vector<Completion>* batch) {
    batch->clear();
    MutexLock lock(mu_);
    while (done_.empty()) {
      if (wake == Clock::time_point::max()) {
        cv_.wait(lock);
      } else if (cv_.wait_until(lock, wake) == std::cv_status::timeout) {
        break;
      }
    }
    batch->swap(done_);
  }

  /// LATE-style speculation: one backup per primary attempt, on another
  /// live server, once the primary runs past the straggler threshold (a
  /// primary with no other live server to back it up is not reconsidered).
  /// Returns when the next running primary crosses it; max() when none can.
  Clock::time_point LaunchBackups() {
    Clock::time_point next = Clock::time_point::max();
    if (!r_.spec_.speculative_execution) return next;
    const std::uint64_t threshold = detector_.ThresholdUs();
    if (threshold == 0) return next;  // no verdict yet
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      Task& t = tasks[i];
      if (t.resolved || t.backup_checked || t.running == 0) continue;
      const Attempt& primary = t.attempts.back();
      const Clock::time_point due = primary.start + std::chrono::microseconds(threshold + 1);
      if (now < due) {
        next = std::min(next, due);
        continue;
      }
      t.backup_checked = true;
      const int server = r_.PickBackupServer(primary.server, phase_.slot);
      if (server < 0) continue;
      ++backups;
      Instant("speculate", t, server);
      Launch(i, server, /*backup=*/true);
    }
    return next;
  }

  void Complete(Completion& c) {
    Task& t = tasks[c.task];
    const Attempt& a = t.attempts[c.attempt];
    --t.running;
    --outstanding_;
    Outcome& o = c.outcome;
    if (o.status.ok() && !t.resolved) {
      t.resolved = true;
      const std::uint64_t us = ElapsedUs(a.start, c.at);
      detector_.Record(us);
      if (DidWork(o)) r_.cluster_.predictor().Record(r_.spec_.name, phase_.predict, t.bytes, us);
      if (a.backup) {
        ++r_.stats_.speculative_wins;
        Instant("speculative_win", t, a.server);
      }
      // Flip the losers' tokens; a loser still queued for a slot is
      // withdrawn by the poke and completes kCancelled at once.
      for (Attempt& other : t.attempts) other.cancel->store(true);
      if (t.running > 0) r_.cluster_.arbiter().Poke();
      t.outcome = std::move(o);
      return;
    }
    if constexpr (std::is_same_v<Outcome, MapOutcome>) {
      // A failed or losing attempt may have pushed spills before it stopped:
      // ledger them now, so cancellation cleanup sees every orphan.
      MutexLock lock(r_.state_mu_);
      for (SpillInfo& info : o.spills) r_.orphan_spills_.push_back(std::move(info));
    }
    if (t.resolved) return;
    // A loser's kCancelled never shadows a real error.
    if (o.status.code() != ErrorCode::kCancelled || t.outcome.status.ok()) {
      t.outcome = std::move(o);
    }
    if (t.running > 0 || !fatal_.ok()) return;
    // Every attempt failed: relaunch within the budget (the placement
    // callback re-resolves a dead target), or conclude the task.
    if constexpr (std::is_same_v<Outcome, ReduceOutcome>) {
      if (!t.outcome.missing_spills.empty()) return;  // producers re-run after the drain
    }
    if (r_.JobCancelled()) {
      fatal_ = Status::Error(ErrorCode::kCancelled, "job cancelled");  // terminal
    } else if (t.tries < kMaxAttemptsPerTask) {
      ++relaunches;
      LaunchPrimary(c.task);
    } else {
      exhausted = c.task;
      fatal_ = t.outcome.status;
    }
  }

  /// Whether a winner's duration measures the phase's work: a map fed
  /// entirely from tagged intermediates did none.
  static bool DidWork(const MapOutcome& o) { return !o.skipped; }
  static bool DidWork(const ReduceOutcome&) { return true; }

  /// The `speculate` / `speculative_win` trace instants.
  void Instant(const char* name, const Task& t, int server) const {
    obs::TraceArg args[3] = {obs::Str("task", phase_.label)};
    std::size_t n = 1;
    if (t.trace_arg.key != nullptr) args[n++] = t.trace_arg;
    args[n++] = obs::U64("server", static_cast<std::uint64_t>(server));
    obs::Tracer::Global().Emit('i', "mr", name, obs::kDriverPid, args, n);
  }

  JobRunner& r_;
  const Phase phase_;
  const PlaceFn place_;
  const RunFn run_;
  fault::StragglerDetector detector_;
  Status fatal_;
  std::size_t outstanding_ = 0;  // launched attempts whose completion is not yet consumed
  Mutex mu_{Rank::kScratch, "JobRunner::AttemptSet::mu_"};
  CondVar cv_;
  std::vector<Completion> done_ GUARDED_BY(mu_);
  std::size_t live_ GUARDED_BY(mu_) = 0;  // submitted bodies not yet destroyed
};

Status JobRunner::RunReducePhase(std::vector<std::vector<KV>>* runs) {
  obs::TraceSpan phase_span("mr", "reduce_phase", obs::kDriverPid,
                            {obs::U64("job", job_id_)});
  // One spill group per range, ascending. The groups stay in spills_: only
  // the thread running Execute changes the ledger, and not while the
  // reduces run.
  std::vector<const std::vector<Spill>*> plan;
  {
    MutexLock lock(state_mu_);
    plan.reserve(spills_.size());
    for (auto& [range_begin, group] : spills_) {
      if (group.empty()) continue;
      // Spill id order (see spills_). An id registered twice, by an input
      // file named twice, is read once.
      std::sort(group.begin(), group.end(),
                [](const Spill& a, const Spill& b) { return a.info.id < b.info.id; });
      group.erase(std::unique(group.begin(), group.end(),
                              [](const Spill& a, const Spill& b) {
                                return a.info.id == b.info.id;
                              }),
                  group.end());
      plan.push_back(&group);
    }
  }

  AttemptSet<ReduceOutcome> set(
      *this, {sched::SlotKind::kReduce, sched::PredictPhase::kReduce, "reduce"},
      [this, &plan](std::size_t i) {
        return LiveOwner(cluster_, (*plan[i])[0].info.range_begin);
      },
      [this, &plan](WorkerServer& w, std::size_t i, const std::atomic<bool>& cancel) {
        return RunReduceTask(w, *plan[i], cancel);
      });
  for (const std::vector<Spill>* group : plan) {
    Bytes bytes = 0;  // summed spill payload
    for (const Spill& spill : *group) bytes += spill.info.bytes;
    set.tasks.push_back({.bytes = bytes});
  }
  const Status status = set.Run();
  stats_.reduces_speculated += set.backups;
  if (!status.ok()) return status;

  // Lost spills: re-run the producers of every missing spill (union across
  // tasks) with reuse disabled, then hand NotFound back so the caller
  // rebuilds the whole reduce plan.
  Status lost = Status::Ok();
  std::size_t lost_spills = 0;
  std::set<BlockRef> rerun;
  for (std::size_t i = 0; i < set.tasks.size(); ++i) {
    const ReduceOutcome& outcome = set.tasks[i].outcome;
    for (std::size_t k : outcome.missing_spills) {
      lost = outcome.status;
      ++lost_spills;
      rerun.insert((*plan[i])[k].block);
    }
  }
  if (!lost.ok()) {
    LOG_INFO << "reduce lost " << lost_spills << " spills; re-running " << rerun.size()
             << " map tasks";
    Status s = RunMapPhase({rerun.begin(), rerun.end()}, /*force_recompute=*/true);
    return s.ok() ? lost : s;
  }

  runs->reserve(set.tasks.size());
  for (auto& t : set.tasks) {  // ascending range order: deterministic output
    ++stats_.reduce_tasks;
    stats_.ocache_hits += t.outcome.ocache_hits;
    stats_.ocache_misses += t.outcome.ocache_misses;
    runs->push_back(std::move(t.outcome.output));
  }
  return Status::Ok();
}

Status JobRunner::RunMapPhase(const std::vector<BlockRef>& blocks,
                              bool force_recompute) {
  obs::TraceSpan phase_span("mr", "map_phase", obs::kDriverPid,
                            {obs::U64("tasks", blocks.size()), obs::U64("job", job_id_)});
  AttemptSet<MapOutcome> set(
      *this, {sched::SlotKind::kMap, sched::PredictPhase::kMap, "map"},
      [this, &blocks](std::size_t i) {
        const BlockRef& ref = blocks[i];
        const int server = PickMapServer(metas_[ref.file].KeyOfBlock(ref.block));
        if (server >= 0) {
          obs::Tracer::Global().Emit('i', "sched", "sched_assign", obs::kDriverPid,
                                     {obs::U64("block", ref.block),
                                      obs::U64("server", static_cast<std::uint64_t>(server)),
                                      obs::U64("job", job_id_)});
        }
        return server;
      },
      [this, &blocks, force_recompute](WorkerServer& w, std::size_t i,
                                       const std::atomic<bool>& cancel) {
        return RunMapTask(w, blocks[i], force_recompute, cancel);
      });
  // One block per task: the block size is every task's predictor bucket.
  for (const BlockRef& ref : blocks) {
    set.tasks.push_back(
        {.bytes = cluster_.options().block_size, .trace_arg = obs::U64("block", ref.block)});
  }
  Status status = set.Run();
  stats_.maps_speculated += set.backups;
  stats_.map_retries += set.relaunches;
  if (set.exhausted) {
    const BlockRef& ref = blocks[*set.exhausted];
    status = Status::Error(status.code(), "map task for block " + std::to_string(ref.block) +
                                              " of input " + std::to_string(ref.file) +
                                              " failed repeatedly: " + status.message());
  }

  // Merge every winner, even when the phase failed: a cancelled job's
  // cleanup must see their spills.
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (!set.tasks[i].resolved) continue;
    MapOutcome& outcome = set.tasks[i].outcome;
    ++stats_.map_tasks;
    if (outcome.skipped) ++stats_.maps_skipped;
    if (outcome.icache_hit) {
      ++stats_.icache_hits;
    } else if (!outcome.skipped) {
      ++stats_.icache_misses;
    }
    if (std::strcmp(outcome.locality, "memory") == 0) {
      ++stats_.maps_memory;
    } else if (std::strcmp(outcome.locality, "local_disk") == 0) {
      ++stats_.maps_local_disk;
    } else if (std::strcmp(outcome.locality, "remote_disk") == 0) {
      ++stats_.maps_remote_disk;
    }
    MutexLock lock(state_mu_);
    if (force_recompute) {
      // Drop the block's previous (possibly manifest-derived, possibly
      // stale-range) spills: the fresh execution is authoritative.
      for (auto& [range_begin, group] : spills_) {
        std::erase_if(group, [&](const Spill& spill) { return spill.block == blocks[i]; });
      }
    }
    for (SpillInfo& info : outcome.spills) {
      stats_.bytes_spilled += info.bytes;
      ++stats_.spills;
      std::vector<Spill>& group = spills_[info.range_begin];
      group.push_back(Spill{std::move(info), blocks[i]});
    }
  }
  return status;
}

int JobRunner::PickMapServer(HashKey hkey) {
  if (cluster_.options().scheduler == SchedulerKind::kLaf) {
    // The epoch's scheduler is internally locked; no cluster lock involved.
    int server = epoch_->laf->Assign(hkey);
    if (!cluster_.worker(server).dead()) return server;
  } else {
    // Delay scheduling (§II-F): wait up to the timeout for a slot on the
    // static range owner, then give up locality and take any idle server.
    // The wait budget is this local deadline — per task attempt, per job —
    // so concurrent jobs cannot consume each other's budgets.
    const sched::DelayScheduler& delay = *epoch_->delay;
    sched::SlotArbiter& arbiter = cluster_.arbiter();
    int preferred = delay.Preferred(hkey);
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(delay.options().wait_timeout_sec));
    for (;;) {
      if (!cluster_.worker(preferred).dead() &&
          arbiter.FreeSlots(preferred, sched::SlotKind::kMap) > 0) {
        epoch_->delay->RecordAssignment(preferred);
        return preferred;
      }
      if (JobCancelled()) break;  // dispatch anyway; the task fails kCancelled fast
      if (std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<int> free_slots;
    const auto& servers = delay.servers();
    free_slots.reserve(servers.size());
    for (int s : servers) {
      free_slots.push_back(
          cluster_.worker(s).dead() ? 0 : arbiter.FreeSlots(s, sched::SlotKind::kMap));
    }
    int fallback = delay.Fallback(free_slots);
    int chosen = fallback >= 0 ? fallback : preferred;
    if (cluster_.worker(chosen).dead()) chosen = -1;
    if (chosen >= 0) {
      // The locality wait expired: the task runs off its preferred server.
      obs::Tracer::Global().Emit(
          'i', "sched", "delay_fallback", obs::kDriverPid,
          {obs::U64("preferred", static_cast<std::uint64_t>(preferred)),
           obs::U64("chosen", static_cast<std::uint64_t>(chosen)),
           obs::U64("job", job_id_)});
      epoch_->delay->RecordAssignment(chosen);
      return chosen;
    }
  }
  // Scheduler pointed at a dead server: fall back to the live ring owner.
  return LiveOwner(cluster_, hkey);
}

int JobRunner::PickBackupServer(int avoid, sched::SlotKind kind) {
  int best = -1;
  int best_slots = -1;
  for (int id : cluster_.WorkerIds()) {
    if (id == avoid) continue;
    WorkerServer& w = cluster_.worker(id);
    if (w.dead()) continue;
    int slots = cluster_.arbiter().FreeSlots(id, kind);
    if (slots > best_slots) {
      best = id;
      best_slots = slots;
    }
  }
  return best;
}

bool JobRunner::Interrupted(WorkerServer& w, const std::atomic<bool>& cancel,
                            const char* task, Status* why) const {
  if (w.dead()) {
    *why = Status::Error(ErrorCode::kUnavailable, std::string("worker died mid-") + task);
  } else if (cancel.load(std::memory_order_relaxed)) {
    *why = Status::Error(ErrorCode::kCancelled,
                         std::string("duplicate ") + task + " attempt lost the race");
  } else if (JobCancelled()) {
    *why = Status::Error(ErrorCode::kCancelled, std::string("job cancelled mid-") + task);
  } else {
    return false;
  }
  return true;
}

JobRunner::MapOutcome JobRunner::RunMapTask(WorkerServer& w, BlockRef ref,
                                            bool force_recompute,
                                            const std::atomic<bool>& cancel) {
  MapOutcome out;
  obs::TraceSpan task_span("mr", "map_task", w.id(),
                           {obs::U64("file", ref.file), obs::U64("block", ref.block),
                            obs::U64("job", job_id_)});
  // Close the span with the outcome's classification whatever exit path the
  // task takes; also feed the per-locality latency histogram.
  OnExit close_span{[&, t0 = std::chrono::steady_clock::now()] {
    task_span.AddArg(obs::Str("locality", out.locality));
    task_span.AddArg(obs::U64("bytes", out.input_bytes));
    cluster_.metrics()
        .GetHistogram("mr.map_task_us", {{"locality", out.locality}})
        .Record(ElapsedUs(t0, std::chrono::steady_clock::now()));
  }};
  const dfs::FileMetadata& meta_ = metas_[ref.file];
  const std::uint64_t block = ref.block;

  const std::string tag = spec_.intermediate_tag;
  // Untagged jobs get a job_id-namespaced scope: two concurrent submissions
  // with the same JobSpec::name used to share deterministic spill ids, and
  // first-writer-wins corrupted the loser's reduce input. Tagged scopes stay
  // name-stable on purpose — cross-job §II-C reuse looks manifests up by tag.
  const std::string spill_scope =
      !tag.empty() ? tag : 'j' + std::to_string(job_id_) + '/' + spec_.name;
  // Only a tagged job keeps a manifest (§II-C); the id costs a SHA-1.
  std::string manifest_id;
  HashKey manifest_key = 0;
  if (!tag.empty()) {
    manifest_id = ManifestId(spill_scope, meta_.name, block);
    manifest_key = KeyOf(manifest_id);
  }

  // §II-C reuse: tagged intermediates let the map skip computation. The
  // cached manifest is consumed through its handle — no copy on hit.
  if (!tag.empty() && !force_recompute) {
    cache::CacheValue manifest_data = w.CacheGet(manifest_id, cache::EntryKind::kOutput);
    if (!manifest_data) {
      if (auto obj = w.dfs().GetObject(manifest_id, manifest_key); obj.ok()) {
        manifest_data = std::make_shared<const std::string>(std::move(obj.value()));
      }
    }
    if (manifest_data) {
      if (auto man = DecodeManifest(*manifest_data); man.ok()) {
        out.spills = man.value();
        out.skipped = true;
        return out;
      }
    }
  }

  // Input through iCache; miss falls through to the DHT FS (Fig. 2 step 4).
  // A hit hands back a refcounted handle to the cached block — no copy —
  // and on a miss the freshly read block is shared with the cache, not
  // duplicated into it. The handle keeps the bytes alive for the whole map
  // even if the entry is evicted mid-task.
  const std::string block_id = dfs::BlockId(meta_.name, block);
  const HashKey block_key = meta_.KeyOfBlock(block);
  cache::CacheValue data = w.CacheGet(block_id, cache::EntryKind::kInput);
  if (data) {
    out.icache_hit = true;
    out.locality = "memory";
  } else {
    int served_by = -1;
    auto read = w.dfs().ReadBlock(meta_, block, &served_by);
    if (!read.ok()) {
      out.status = read.status();
      return out;
    }
    out.locality = served_by == w.id() ? "local_disk" : "remote_disk";
    data = std::make_shared<const std::string>(std::move(read.value()));
    if (spec_.cache_input) {
      w.CachePut(block_id, block_key, data, cache::EntryKind::kInput);
    }
  }
  out.input_bytes = data->size();

  // Per-thread extraction buffers: slot threads are long-lived, so the
  // record-view vector's capacity and the boundary-tail arena's blocks warm
  // once and are reused by every map task this thread runs. Interior record
  // views alias the pinned block (`data` holds it for the whole task).
  static thread_local std::vector<std::string_view> records;
  static thread_local Arena record_arena;
  records.clear();
  record_arena.Reset();
  Status rec_status = ExtractRecordViews(
      meta_, block, spec_.record_delim, *data,
      [&](std::uint64_t j) { return w.dfs().ReadBlock(meta_, j); },
      [&](std::uint64_t j, Bytes off, Bytes len) {
        return w.dfs().ReadBlockRange(meta_, j, off, len);
      },
      record_arena, &records);
  if (!rec_status.ok()) {
    out.status = rec_status;
    return out;
  }

  // Proactive shuffle: spill per-range buffers while mapping (§II-D).
  const std::string prefix = "im/" + spill_scope + '/' + meta_.name + "/b" +
                             std::to_string(block);
  ShuffleWriter shuffle(prefix, fs_ranges_, w.dfs(), spec_.spill_threshold,
                        spec_.intermediate_ttl, job_id_);
  ShuffleMapContext ctx(shuffle, spec_.shared_state);
  auto mapper = spec_.mapper();
  Status status;
  for (std::string_view record : records) {
    mapper->Map(record, ctx);
    if (Interrupted(w, cancel, "map", &status)) break;
  }
  if (status.ok()) {
    mapper->Finish(ctx);
    status = ctx.status();
  }
  if (status.ok()) status = shuffle.Flush();
  // Every exit reports shuffle.spills(): threshold-crossing Adds have already
  // pushed objects into the DHT FS, so even a failed or cancelled attempt
  // must surface them — the attempt driver ledgers a failed attempt's spills
  // so a cancelled job leaves no orphans behind.
  out.spills = shuffle.spills();
  out.status = status;
  if (status.ok() && !tag.empty()) {
    auto manifest_data = std::make_shared<const std::string>(EncodeManifest(out.spills));
    w.dfs().PutObject(manifest_id, manifest_key, *manifest_data, spec_.intermediate_ttl);
    w.CachePut(manifest_id, manifest_key, std::move(manifest_data),
               cache::EntryKind::kOutput);
  }
  return out;
}

JobRunner::ReduceOutcome JobRunner::RunReduceTask(WorkerServer& w,
                                                  const std::vector<Spill>& spills,
                                                  const std::atomic<bool>& cancel) {
  ReduceOutcome out;
  obs::TraceSpan task_span("mr", "reduce_task", w.id(),
                           {obs::U64("spills", spills.size()), obs::U64("job", job_id_)});
  OnExit close_span{[&, t0 = std::chrono::steady_clock::now()] {
    task_span.AddArg(obs::U64("ocache_hits", out.ocache_hits));
    task_span.AddArg(obs::U64("ocache_misses", out.ocache_misses));
    cluster_.metrics().GetHistogram("mr.reduce_task_us").Record(
        ElapsedUs(t0, std::chrono::steady_clock::now()));
  }};

  // Tagged intermediates may sit in this worker's oCache from an earlier job
  // (§II-C). An untagged spill id is private to this job and read once, so
  // it never enters the cache.
  const bool tagged = !spec_.intermediate_tag.empty();
  std::vector<cache::CacheValue> payloads(spills.size());  // pins every decoded payload
  std::vector<std::size_t> gather;  // spills to read from the DHT FS, in order
  std::vector<Bytes> gather_bytes;  // their encoded sizes
  gather.reserve(spills.size());
  gather_bytes.reserve(spills.size());
  for (std::size_t i = 0; i < spills.size(); ++i) {
    if (tagged) {
      if (Interrupted(w, cancel, "reduce", &out.status)) return out;
      payloads[i] = w.CacheGet(spills[i].info.id, cache::EntryKind::kOutput);
      if (payloads[i]) {
        ++out.ocache_hits;
        continue;
      }
      ++out.ocache_misses;
    }
    gather.push_back(i);
    gather_bytes.push_back(EncodedSpillBytes(spills[i].info));
  }

  // The range's spills all live at its owner (§II-D), so one DHT-FS call
  // per batch fetches them; a spill no replica returns is lost.
  std::vector<std::string> ids;
  std::size_t begin = 0;
  for (std::size_t end : BatchEnds(gather_bytes, kGatherBatchBytes)) {
    if (Interrupted(w, cancel, "reduce", &out.status)) return out;
    ids.clear();
    for (std::size_t k = begin; k < end; ++k) ids.push_back(spills[gather[k]].info.id);
    auto objs = w.dfs().GetObjects(ids, spills[gather[begin]].info.range_begin);
    for (std::size_t k = begin; k < end; ++k) {
      const SpillInfo& spill = spills[gather[k]].info;
      auto& obj = objs[k - begin];
      if (!obj.ok()) {
        out.missing_spills.push_back(gather[k]);
        continue;
      }
      cache::CacheValue& data = payloads[gather[k]];
      data = std::make_shared<const std::string>(std::move(obj.value()));
      if (tagged) w.CachePut(spill.id, spill.range_begin, data, cache::EntryKind::kOutput);
    }
    begin = end;
  }
  if (!out.missing_spills.empty()) {
    out.status = Status::Error(ErrorCode::kNotFound, "spills lost with their server");
    return out;
  }
  if (Interrupted(w, cancel, "reduce", &out.status)) return out;

  // Flat zero-copy grouping: decode every spill, in spill order, into one
  // view vector (`payloads` pins the bytes, so the views stay valid), chain
  // the pairs by key hash, sort the distinct keys, then walk each chain.
  // The scratch is per slot thread: its vectors' capacity survives across
  // tasks, so a steady-state reduce allocates nothing while decoding and
  // grouping (asserted by test_hot_alloc).
  static thread_local ReduceScratch scratch;
  scratch.Clear();
  std::uint64_t expected_pairs = 0;
  for (const Spill& spill : spills) expected_pairs += spill.info.pairs;
  scratch.pairs.reserve(expected_pairs);
  for (const cache::CacheValue& data : payloads) {
    if (Status s = DecodeSpillViews(*data, &scratch.pairs); !s.ok()) {
      out.status = s;
      return out;
    }
  }

  VectorReduceContext ctx;
  auto reducer = spec_.reducer();
  bool completed = ForEachGroupViews(
      scratch, [&](std::string_view key, const std::vector<std::string_view>& values) {
        reducer->Reduce(key, values, ctx);
        return !Interrupted(w, cancel, "reduce", &out.status);
      });
  if (completed) {
    // MergeRuns needs every run sorted; the slot thread pays for it, so the
    // job's serial tail does not.
    out.output = std::move(ctx.output());
    SortRunByKey(out.output);
  }
  return out;
}

JobResult Cluster::Run(const JobSpec& spec) {
  JobRunner runner(*this, spec, Cluster::NextJobId());
  JobResult result = runner.Run();
  runner.CleanupSpills();  // a no-op after a failure, which cleaned up already
  return result;
}

}  // namespace eclipse::mr
