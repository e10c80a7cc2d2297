// Cross-job task-slot arbitration, and the slots themselves (multi-tenancy
// for the paper's resource manager, §II-A).
//
// Each worker server has a fixed number of map and reduce slots, and here a
// slot *is* a thread: AddWorker starts the worker's map_slots map threads and
// reduce_slots reduce threads. Every task attempt, from any job, is Submit-ted
// as a queued entry keyed by (worker, slot kind, user). An entry holds no
// thread while it waits; a slot thread of its worker runs it once the arbiter
// grants it, so per-worker concurrency is the configured slot count no matter
// how many jobs are in flight, and the process runs Σ slots task threads.
//
// Contended slots are granted by weighted max-min fairness per user: a freed
// slot goes to the head of the queue whose user has the smallest share, where
// share = (slots currently held across all workers) / weight. Each user's
// entries on one (worker, kind) form a FIFO and ties go to the older head, so
// a user's own attempts stay in order and no entry starves (its share only
// shrinks relative to users that keep getting grants). Weights default to 1.0
// (equal shares); SetWeight gives a user a proportionally larger share.
//
// Wakeups: a slot thread that finishes a body takes the next grant for its
// (worker, kind) itself, with no wakeup. It sleeps on its (worker, kind)
// condvar only when nothing is queued there, and a Submit wakes at most one
// sleeper. WakeupSignals() counts those signals so tests can assert that a
// queue drains without them.
//
// Lock discipline: one internal mutex, held only for bookkeeping — never
// across a task body, an RPC, or a scheduler decision. No `run` is ever
// called under it.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"

namespace eclipse::sched {

enum class SlotKind { kMap, kReduce };

class SlotArbiter {
 public:
  /// A task attempt's body. Called exactly once, never under the arbiter's
  /// lock, with:
  ///   Ok            — on a slot thread of the worker, holding the slot; the
  ///                   slot is freed when run returns
  ///   kUnavailable  — the worker is unknown or removed (at submit or while
  ///                   queued): re-place the task
  ///   kCancelled    — a token was set at submit, while queued, or at grant
  ///                   time; a cancelled entry is never charged a slot
  /// `run` and everything it captured are destroyed after it returns and
  /// after its slot (if any) is free, so a capture's destructor marks the
  /// moment the attempt is fully over.
  using RunFn = std::function<void(Status)>;

  SlotArbiter() = default;
  /// Stops and joins the slot threads once nothing is queued.
  ~SlotArbiter();

  SlotArbiter(const SlotArbiter&) = delete;
  SlotArbiter& operator=(const SlotArbiter&) = delete;

  /// Register a worker and start its slot threads. Each id is added once.
  void AddWorker(int worker, int map_slots, int reduce_slots);

  /// The worker died: its queued entries, and any later Submit to it, run
  /// with kUnavailable. Bodies already running finish; their slots are
  /// absorbed, never granted again.
  void RemoveWorker(int worker);

  /// Fair-share weight for `user` (default 1.0; must be > 0).
  void SetWeight(const std::string& user, double weight);

  /// Predicted remaining work of `user`'s admitted jobs, in µs (0 clears).
  /// Fed by the JobQueue from the RuntimePredictor at job start/finish.
  /// Contended-slot shares become deadline-aware: the share divisor is
  /// weight × factor where factor = (mean demand across users with demand)
  /// / (this user's demand), clamped to [1/4, 4]. Users with *less*
  /// predicted remaining work drain first — shortest-remaining-work bias,
  /// the reason a tight-deadline job finishes while a bulk job occupies the
  /// cluster — and the clamp bounds the bias so a bulk user always keeps at
  /// least a quarter of its static share. Users with no demand reported
  /// (or none set anywhere) keep factor 1: behavior is byte-identical to
  /// the static-weight arbiter until predictions flow.
  void SetPredictedDemand(const std::string& user, double demand_us);

  /// Queue `run` for a slot of `kind` on `worker` on behalf of `user` (see
  /// RunFn for how it is called). Either token pointer may be null; a token
  /// must outlive the entry. Callers that set a token Poke() the arbiter so
  /// the entry leaves its queue at once.
  void Submit(int worker, SlotKind kind, const std::string& user,
              const std::atomic<bool>* cancel_a, const std::atomic<bool>* cancel_b,
              RunFn run);

  /// Idle slots of `kind` on `worker` right now: 0 for an unknown or
  /// removed worker, and 0 while any entry is queued there. The schedulers'
  /// availability probe — inherently racy; the authoritative gate is Submit.
  int FreeSlots(int worker, SlotKind kind) const;

  /// Slots currently held by `user` across all workers.
  int InUse(const std::string& user) const;

  /// Entries queued for a slot, over every worker (tests and gauges).
  std::size_t Waiting() const;

  /// Withdraw every queued entry whose token is set; each runs kCancelled.
  void Poke();

  /// Wakeup signals sent to sleeping slot threads. A queue that builds up
  /// behind busy slots drains with none (asserted by
  /// SlotArbiter.BoundedWakeupsPerRelease).
  std::uint64_t WakeupSignals() const;

 private:
  struct UserShare {
    int in_use = 0;
    double weight = 1.0;
    double demand_us = 0.0;  // predicted remaining work (0 = not reported)
  };
  struct Entry {
    UserShare* user = nullptr;  // node in users_ (never erased)
    const std::atomic<bool>* cancel_a = nullptr;
    const std::atomic<bool>* cancel_b = nullptr;
    std::uint64_t seq = 0;  // arrival order (FIFO tie-break)
    RunFn run;

    bool Cancelled() const {
      return (cancel_a != nullptr && cancel_a->load(std::memory_order_relaxed)) ||
             (cancel_b != nullptr && cancel_b->load(std::memory_order_relaxed));
    }
  };
  /// One (worker, kind): its slot threads' bookkeeping and its queues.
  struct Pool {
    int free = 0;           // slots not running a body
    int sleeping = 0;       // slot threads waiting on cv
    int signalled = 0;      // wakeups sent that no sleeper has consumed yet
    std::size_t queued = 0;
    std::map<UserShare*, std::deque<Entry>> queues;  // one FIFO per user
    CondVar cv;
  };
  struct WorkerSlots {
    bool alive = true;
    Pool map;
    Pool reduce;
    Pool& pool(SlotKind kind) { return kind == SlotKind::kMap ? map : reduce; }
  };

  double Share(const UserShare& u) const REQUIRES(mu_);

  /// Pop the entry the next free slot of `pool` goes to: the head of the
  /// smallest-share user's queue, the older head on ties. Requires queued > 0.
  Entry PopNext(Pool& pool) REQUIRES(mu_);

  /// Move `pool`'s queued entries into `out`: all of them, or only those
  /// whose token is set.
  void Withdraw(Pool& pool, bool cancelled_only, std::vector<Entry>* out) REQUIRES(mu_);

  /// A slot thread: run granted entries of `pool` until stopped.
  void SlotLoop(Pool& pool);

  mutable Mutex mu_{Rank::kSlotArbiter, "SlotArbiter::mu_"};
  std::map<int, WorkerSlots> workers_ GUARDED_BY(mu_);  // nodes never move
  std::map<std::string, UserShare> users_ GUARDED_BY(mu_);
  // Aggregate over users with demand_us > 0, kept incrementally so Share is
  // O(1) inside PopNext's queue scan.
  double demand_sum_us_ GUARDED_BY(mu_) = 0.0;
  int demand_users_ GUARDED_BY(mu_) = 0;
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  std::uint64_t wakeup_signals_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_ GUARDED_BY(mu_);
};

}  // namespace eclipse::sched
