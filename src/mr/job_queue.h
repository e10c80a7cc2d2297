// Asynchronous multi-job front end (the paper's resource manager serving
// "heavy traffic from millions of users", §II-A).
//
//   mr::JobHandle h1 = cluster.Submit(job_a);
//   mr::JobHandle h2 = cluster.Submit(job_b);   // runs concurrently
//   mr::JobResult r1 = h1.Wait();
//   h2.Cancel();                                // best-effort stop
//
// Up to ClusterOptions::max_concurrent_jobs JobRunners execute at once over
// the shared workers; further submissions queue FIFO. Per-worker slot
// capacity is arbitrated across the concurrent runners by the cluster's
// SlotArbiter (weighted max-min fair per JobSpec::user), each runner works
// from its own immutable SchedulerEpoch, and every job carries a unique
// process-wide job_id that namespaces its spill scope and labels its trace
// spans and metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "mr/types.h"

namespace eclipse::mr {

class Cluster;
class JobQueue;

namespace internal {

/// Shared between a JobHandle and the runner thread executing the job.
struct JobState {
  JobSpec spec;  // stable storage: the JobRunner holds a reference into this
  std::uint64_t job_id = 0;
  /// Job-level cancellation token, observed by every task attempt, queued
  /// slot request, and phase boundary of this job.
  std::shared_ptr<std::atomic<bool>> cancel =
      std::make_shared<std::atomic<bool>>(false);
  /// Pokes the slot arbiter after `cancel` flips, withdrawing the job's
  /// queued attempts (set at submit; not called once `done` — handles must
  /// not outlive the Cluster).
  std::function<void()> poke;
  /// Predicted solo runtime from the cluster RuntimePredictor (0 while the
  /// predictor is cold for this job name). Immutable once Submit publishes
  /// the state.
  std::uint64_t predicted_us = 0;
  /// Admission-time ETA: predicted_us + the predicted backlog at submit.
  /// Immutable once Submit publishes the state.
  std::uint64_t eta_us = 0;

  Mutex mu{Rank::kJobState, "JobState::mu"};
  CondVar cv;
  bool done GUARDED_BY(mu) = false;
  JobResult result GUARDED_BY(mu);
};

}  // namespace internal

/// Caller's view of a submitted job. Copyable (shared state); valid while
/// the owning Cluster lives.
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const { return state_ != nullptr; }
  std::uint64_t job_id() const { return state_ ? state_->job_id : 0; }

  /// Admission-time predicted completion (µs from submit), 0 when the job
  /// set no deadline/slo or the predictor was cold. Available immediately —
  /// a kQueueOnMiss job can report its ETA while still queued.
  std::uint64_t eta_us() const { return state_ ? state_->eta_us : 0; }

  /// Block until the job completes (or its cancellation takes effect) and
  /// return the result. Idempotent — later calls return the same result.
  JobResult Wait();

  /// Has the job finished (result available without blocking)?
  bool done() const;

  /// Request cancellation: a queued job never starts (result kCancelled);
  /// a running job stops at its next task-record / slot-wait / phase
  /// boundary and cleans up its partial spills. Safe to call repeatedly,
  /// from any thread, including after completion (no-op then).
  void Cancel();

 private:
  friend class JobQueue;
  explicit JobHandle(std::shared_ptr<internal::JobState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::JobState> state_;
};

/// FIFO submit queue executing up to `max_concurrent` jobs in parallel on
/// dedicated runner threads. Owned by the Cluster; use Cluster::Submit.
class JobQueue {
 public:
  JobQueue(Cluster& cluster, int max_concurrent);
  /// Cancels every queued job, waits for running jobs to finish (they
  /// observe their cancel tokens), and joins the runner threads.
  ~JobQueue();

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Enqueue a job. When spec.deadline or spec.slo is set this runs
  /// admission control (docs/fault-tolerance.md §7): the job's completion
  /// is predicted from the cluster RuntimePredictor plus the predicted
  /// remaining work already running/queued here; a prediction past the
  /// deadline either rejects the job (kRejectOnMiss: the handle completes
  /// immediately with kResourceExhausted and the ETA) or queues it with the
  /// advisory ETA (kQueueOnMiss). Emits job_admit/job_reject trace instants
  /// and the mr.jobs_rejected{user} counter. A cold predictor admits.
  JobHandle Submit(JobSpec spec);

  /// Jobs currently executing. A job counts until its runner has deleted
  /// its spills, which for a successful job is after its handle completes.
  std::size_t Running() const;

 private:
  struct RunningJob {
    const internal::JobState* state = nullptr;
    std::uint64_t predicted_us = 0;
    std::chrono::steady_clock::time_point started;
  };

  void RunnerLoop();
  /// Predicted remaining work (µs) of everything queued + running.
  std::uint64_t BacklogUsLocked() const REQUIRES(mu_);
  /// Fold `delta_us` into the user's aggregate predicted demand and push it
  /// to the SlotArbiter (remaining-work share weighting).
  void UpdateDemandLocked(const std::string& user, double delta_us) REQUIRES(mu_);

  Cluster& cluster_;
  mutable Mutex mu_{Rank::kJobQueue, "JobQueue::mu_"};
  CondVar cv_;
  std::deque<std::shared_ptr<internal::JobState>> pending_ GUARDED_BY(mu_);
  std::size_t running_ GUARDED_BY(mu_) = 0;
  std::vector<RunningJob> running_jobs_ GUARDED_BY(mu_);
  // Aggregate predicted remaining work per user, mirrored into the arbiter.
  std::map<std::string, double> demand_us_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> runners_;  // immutable after construction
};

}  // namespace eclipse::mr
