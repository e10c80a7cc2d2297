#include "sched/slot_arbiter.h"

#include <algorithm>
#include <cassert>

namespace eclipse::sched {

SlotArbiter::~SlotArbiter() {
  std::vector<std::thread> threads;
  {
    MutexLock lock(mu_);
    stop_ = true;
    for (auto& [id, w] : workers_) {
      w.map.cv.notify_all();
      w.reduce.cv.notify_all();
    }
    threads = std::move(threads_);
  }
  for (auto& t : threads) t.join();
}

void SlotArbiter::AddWorker(int worker, int map_slots, int reduce_slots) {
  MutexLock lock(mu_);
  auto [it, added] = workers_.try_emplace(worker);
  assert(added && "each worker id is added once");
  if (!added) return;
  WorkerSlots& w = it->second;
  w.map.free = map_slots;
  w.reduce.free = reduce_slots;
  for (int i = 0; i < map_slots; ++i) threads_.emplace_back([this, &w] { SlotLoop(w.map); });
  for (int i = 0; i < reduce_slots; ++i) {
    threads_.emplace_back([this, &w] { SlotLoop(w.reduce); });
  }
}

void SlotArbiter::RemoveWorker(int worker) {
  std::vector<Entry> orphans;
  {
    MutexLock lock(mu_);
    auto it = workers_.find(worker);
    if (it == workers_.end()) return;
    it->second.alive = false;
    Withdraw(it->second.map, /*cancelled_only=*/false, &orphans);
    Withdraw(it->second.reduce, /*cancelled_only=*/false, &orphans);
  }
  for (Entry& e : orphans) {
    e.run(Status::Error(ErrorCode::kUnavailable,
                        "worker " + std::to_string(worker) + " removed while queued"));
  }
}

void SlotArbiter::SetWeight(const std::string& user, double weight) {
  assert(weight > 0.0);
  MutexLock lock(mu_);
  users_[user].weight = weight;
}

void SlotArbiter::SetPredictedDemand(const std::string& user, double demand_us) {
  if (demand_us < 0.0) demand_us = 0.0;
  MutexLock lock(mu_);
  UserShare& u = users_[user];
  if (u.demand_us > 0.0) {
    demand_sum_us_ -= u.demand_us;
    --demand_users_;
  }
  u.demand_us = demand_us;
  if (demand_us > 0.0) {
    demand_sum_us_ += demand_us;
    ++demand_users_;
  }
}

double SlotArbiter::Share(const UserShare& u) const {
  // Deadline bias (see SetPredictedDemand): less predicted remaining work →
  // larger effective weight → smaller share → wins contended slots sooner.
  double factor = 1.0;
  if (u.demand_us > 0.0 && demand_users_ > 0) {
    const double mean = demand_sum_us_ / demand_users_;
    if (mean > 0.0) factor = std::clamp(mean / u.demand_us, 0.25, 4.0);
  }
  return u.in_use / (u.weight * factor);
}

void SlotArbiter::Submit(int worker, SlotKind kind, const std::string& user,
                         const std::atomic<bool>* cancel_a,
                         const std::atomic<bool>* cancel_b, RunFn run) {
  Entry e{nullptr, cancel_a, cancel_b, 0, std::move(run)};
  Status refused;
  {
    MutexLock lock(mu_);
    auto it = workers_.find(worker);
    if (e.Cancelled()) {
      refused = Status::Error(ErrorCode::kCancelled, "cancelled before a slot was granted");
    } else if (it == workers_.end() || !it->second.alive) {
      refused = Status::Error(ErrorCode::kUnavailable,
                              "worker " + std::to_string(worker) + " not in arbiter");
    } else {
      Pool& pool = it->second.pool(kind);
      e.user = &users_[user];
      e.seq = next_seq_++;
      pool.queues[e.user].push_back(std::move(e));
      ++pool.queued;
      // Wake one sleeper unless every sleeper already has a wakeup coming.
      if (pool.sleeping > pool.signalled) {
        ++pool.signalled;
        ++wakeup_signals_;
        pool.cv.notify_one();
      }
      return;
    }
  }
  e.run(refused);
}

SlotArbiter::Entry SlotArbiter::PopNext(Pool& pool) {
  // Weighted max-min: the smallest-share user's head; the older head on ties.
  std::deque<Entry>* best = nullptr;
  double best_share = 0.0;
  for (auto& [user, q] : pool.queues) {
    if (q.empty()) continue;
    const double share = Share(*user);
    if (best == nullptr || share < best_share ||
        (share == best_share && q.front().seq < best->front().seq)) {
      best = &q;
      best_share = share;
    }
  }
  assert(best != nullptr);
  Entry e = std::move(best->front());
  best->pop_front();
  --pool.queued;
  return e;
}

void SlotArbiter::Withdraw(Pool& pool, bool cancelled_only, std::vector<Entry>* out) {
  for (auto& [user, q] : pool.queues) {
    for (auto it = q.begin(); it != q.end();) {
      if (cancelled_only && !it->Cancelled()) {
        ++it;
        continue;
      }
      out->push_back(std::move(*it));
      it = q.erase(it);
      --pool.queued;
    }
  }
}

void SlotArbiter::SlotLoop(Pool& pool) {
  for (;;) {
    Entry e;  // destroyed at the end of the iteration, after its slot is free
    bool granted = false;
    {
      MutexLock lock(mu_);
      while (pool.queued == 0) {
        if (stop_) return;
        ++pool.sleeping;
        pool.cv.wait(lock);
        --pool.sleeping;
        // Any return from the wait consumes a pending wakeup, so Submit's
        // count of sleepers still to be woken never runs ahead of them.
        if (pool.signalled > 0) --pool.signalled;
      }
      e = PopNext(pool);
      granted = !e.Cancelled();
      if (granted) {
        --pool.free;
        ++e.user->in_use;
      }
    }
    if (!granted) {
      e.run(Status::Error(ErrorCode::kCancelled, "cancelled before a slot was granted"));
      continue;
    }
    e.run(Status::Ok());
    MutexLock lock(mu_);
    ++pool.free;
    --e.user->in_use;
  }
}

int SlotArbiter::FreeSlots(int worker, SlotKind kind) const {
  MutexLock lock(mu_);
  auto it = workers_.find(worker);
  if (it == workers_.end() || !it->second.alive) return 0;
  const Pool& pool = kind == SlotKind::kMap ? it->second.map : it->second.reduce;
  return pool.queued > 0 ? 0 : pool.free;
}

int SlotArbiter::InUse(const std::string& user) const {
  MutexLock lock(mu_);
  auto it = users_.find(user);
  return it == users_.end() ? 0 : it->second.in_use;
}

std::size_t SlotArbiter::Waiting() const {
  MutexLock lock(mu_);
  std::size_t n = 0;
  for (const auto& [id, w] : workers_) n += w.map.queued + w.reduce.queued;
  return n;
}

void SlotArbiter::Poke() {
  std::vector<Entry> cancelled;
  {
    MutexLock lock(mu_);
    for (auto& [id, w] : workers_) {
      Withdraw(w.map, /*cancelled_only=*/true, &cancelled);
      Withdraw(w.reduce, /*cancelled_only=*/true, &cancelled);
    }
  }
  for (Entry& e : cancelled) {
    e.run(Status::Error(ErrorCode::kCancelled, "cancelled while queued for a slot"));
  }
}

std::uint64_t SlotArbiter::WakeupSignals() const {
  MutexLock lock(mu_);
  return wakeup_signals_;
}

}  // namespace eclipse::sched
