#include "mr/job_queue.h"

#include <cassert>
#include <optional>
#include <string>

#include "mr/cluster.h"
#include "mr/job_runner.h"
#include "obs/trace.h"

namespace eclipse::mr {
namespace {

std::uint64_t ToUs(std::chrono::milliseconds ms) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(ms).count());
}

}  // namespace

JobResult JobHandle::Wait() {
  assert(state_ != nullptr);
  MutexLock lock(state_->mu);
  while (!state_->done) state_->cv.wait(lock);
  return state_->result;
}

bool JobHandle::done() const {
  if (state_ == nullptr) return false;
  MutexLock lock(state_->mu);
  return state_->done;
}

void JobHandle::Cancel() {
  if (state_ == nullptr) return;
  state_->cancel->store(true, std::memory_order_relaxed);
  obs::Tracer::Global().Emit('i', "mr", "job_cancel", obs::kDriverPid,
                             {obs::U64("job", state_->job_id)});
  // Withdraw this job's attempts still queued for a slot (they complete
  // kCancelled) — but never after completion, when the Cluster (and its
  // arbiter) may be gone.
  MutexLock lock(state_->mu);
  if (!state_->done && state_->poke) state_->poke();
}

JobQueue::JobQueue(Cluster& cluster, int max_concurrent) : cluster_(cluster) {
  const int n = max_concurrent > 0 ? max_concurrent : 1;
  runners_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    runners_.emplace_back([this] { RunnerLoop(); });
  }
}

JobQueue::~JobQueue() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
    // Queued jobs never start: their runners complete them as cancelled.
    for (auto& job : pending_) job->cancel->store(true, std::memory_order_relaxed);
    cv_.notify_all();
  }
  for (auto& t : runners_) t.join();
}

JobHandle JobQueue::Submit(JobSpec spec) {
  auto state = std::make_shared<internal::JobState>();
  state->spec = std::move(spec);
  state->job_id = Cluster::NextJobId();
  state->poke = [this] { cluster_.arbiter().Poke(); };
  const JobSpec& s = state->spec;
  obs::Tracer::Global().Emit('i', "mr", "job_submit", obs::kDriverPid,
                             {obs::U64("job", state->job_id)});

  // Every job is predicted, not just deadline ones: a bulk job with no SLO
  // still contributes its predicted remaining work to the backlog later
  // submits are quoted against, and to its user's arbiter demand. The
  // prediction runs before mu_ is taken: PredictJobUs does metadata RPCs,
  // and kJobQueue is not a leaf rank (no blocking calls may run under it).
  state->predicted_us = cluster_.PredictJobUs(s);
  const bool wants_eta = s.deadline.count() > 0 || s.slo.count() > 0;
  const std::uint64_t deadline_us = ToUs(s.deadline);
  bool reject = false;
  {
    MutexLock lock(mu_);
    assert(!shutdown_ && "Submit after Cluster teardown began");
    if (state->predicted_us > 0) {
      // Concurrent jobs share the same worker slots, so the cluster drains
      // roughly one solo-job-equivalent of predicted work at a time
      // (measured: multi-job throughput ~= solo throughput in
      // BENCH_macro.json's multi_job point). Queued/running work therefore
      // delays a new job near-serially: charge the full predicted backlog.
      state->eta_us = state->predicted_us + BacklogUsLocked();
    }
    reject = deadline_us > 0 && state->eta_us > deadline_us &&
             s.admission == AdmissionPolicy::kRejectOnMiss;
    if (!reject) {
      pending_.push_back(state);
      cv_.notify_one();
    }
  }
  if (reject) {
    const std::string& user = s.user.empty() ? cluster_.options().user : s.user;
    cluster_.metrics().GetCounter("mr.jobs_rejected", {{"user", user}}).Add();
    obs::Tracer::Global().Emit('i', "mr", "job_reject", obs::kDriverPid,
                               {obs::U64("job", state->job_id),
                                obs::U64("eta_us", state->eta_us),
                                obs::U64("deadline_us", deadline_us)});
    JobResult result;
    result.status = Status::Error(
        ErrorCode::kResourceExhausted,
        "admission control: predicted completion in " +
            std::to_string(state->eta_us) + " us misses the deadline of " +
            std::to_string(deadline_us) + " us");
    result.job_id = state->job_id;
    result.eta_us = state->eta_us;
    MutexLock lock(state->mu);
    state->result = std::move(result);
    state->done = true;
    state->cv.notify_all();
  } else if (wants_eta) {
    obs::Tracer::Global().Emit('i', "mr", "job_admit", obs::kDriverPid,
                               {obs::U64("job", state->job_id),
                                obs::U64("eta_us", state->eta_us),
                                obs::U64("deadline_us", deadline_us)});
  }
  return JobHandle(state);
}

std::uint64_t JobQueue::BacklogUsLocked() const {
  std::uint64_t total = 0;
  for (const auto& job : pending_) total += job->predicted_us;
  const auto now = std::chrono::steady_clock::now();
  for (const auto& run : running_jobs_) {
    const auto elapsed = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now - run.started)
            .count());
    if (run.predicted_us > elapsed) total += run.predicted_us - elapsed;
  }
  return total;
}

void JobQueue::UpdateDemandLocked(const std::string& user, double delta_us) {
  double& demand = demand_us_[user];
  demand += delta_us;
  if (demand < 0.0) demand = 0.0;
  // kSlotArbiter (520) > kJobQueue (100): taking the arbiter lock here is
  // within the hierarchy, and SetPredictedDemand never blocks.
  cluster_.arbiter().SetPredictedDemand(user, demand);
}

std::size_t JobQueue::Running() const {
  MutexLock lock(mu_);
  return running_;
}

void JobQueue::RunnerLoop() {
  for (;;) {
    std::shared_ptr<internal::JobState> job;
    std::string user;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && pending_.empty()) cv_.wait(lock);
      if (pending_.empty()) return;  // shutdown and fully drained
      job = pending_.front();
      pending_.pop_front();
      ++running_;
      running_jobs_.push_back(RunningJob{job.get(), job->predicted_us,
                                         std::chrono::steady_clock::now()});
      user = job->spec.user.empty() ? cluster_.options().user : job->spec.user;
      if (job->predicted_us > 0)
        UpdateDemandLocked(user, static_cast<double>(job->predicted_us));
    }
    JobResult result;
    std::optional<JobRunner> runner;
    if (job->cancel->load(std::memory_order_relaxed)) {
      result.status = Status::Error(ErrorCode::kCancelled, "job cancelled before start");
      result.job_id = job->job_id;
    } else {
      runner.emplace(cluster_, job->spec, job->job_id, job->cancel);
      result = runner->Run();
    }
    result.eta_us = job->eta_us;
    const std::uint64_t slo_us = ToUs(job->spec.slo);
    if (slo_us > 0 && result.status.ok() &&
        result.stats.wall_seconds * 1e6 > static_cast<double>(slo_us)) {
      result.slo_missed = true;
      cluster_.metrics().GetCounter("mr.slo_miss", {{"user", user}}).Add();
      obs::Tracer::Global().Emit(
          'i', "mr", "slo_miss", obs::kDriverPid,
          {obs::U64("job", job->job_id),
           obs::U64("wall_us",
                    static_cast<std::uint64_t>(result.stats.wall_seconds * 1e6)),
           obs::U64("slo_us", slo_us)});
    }
    {
      MutexLock lock(job->mu);
      job->result = std::move(result);
      job->done = true;
      job->cv.notify_all();
    }
    // A successful job's spills are deleted once its handle has completed,
    // which keeps the deletes off the job's latency (a failed or cancelled
    // job deleted its own inside Run). Running() falls only after this.
    if (runner) runner->CleanupSpills();
    {
      MutexLock lock(mu_);
      --running_;
      for (auto it = running_jobs_.begin(); it != running_jobs_.end(); ++it) {
        if (it->state == job.get()) {
          running_jobs_.erase(it);
          break;
        }
      }
      if (job->predicted_us > 0)
        UpdateDemandLocked(user, -static_cast<double>(job->predicted_us));
    }
  }
}

}  // namespace eclipse::mr
