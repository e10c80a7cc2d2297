// EclipseMR framework model for the cluster simulator.
//
// Executes the REAL scheduler implementations (sched::LafScheduler /
// sched::DelayScheduler) and REAL per-node LRU caches over a modeled
// 40-node testbed: every map task is placed by the live policy, reads its
// block from the cache / local disk / remote disk (two-level 1 GbE
// network), proactively spills its intermediates to the reducer-side DHT FS
// overlapped with compute (§II-D), and reduce tasks run where the
// intermediate hash keys live. Time comes from the queueing model in
// resources.h; placement, hit ratios, and balance come from the same code
// the real engine runs.
#pragma once

#include <map>
#include <memory>

#include "cache/lru_cache.h"
#include "dht/ring.h"
#include "mr/cluster.h"  // SchedulerKind
#include "sim/resources.h"
#include "sim/sim_job.h"

namespace eclipse::sim {

class EclipseSim {
 public:
  EclipseSim(const SimConfig& config, mr::SchedulerKind kind,
             sched::LafOptions laf_options = {},
             double delay_wait_sec = 5.0);

  /// Run one job starting at sim time 0 (fresh slots; caches persist across
  /// calls so iterative/back-to-back reuse behaves like the paper's runs —
  /// call ResetCaches() for a cold-cache experiment).
  SimJobResult RunJob(const SimJobSpec& spec);

  /// Run several jobs submitted simultaneously, contending for the same
  /// slots and caches (Fig. 8). Returns one result per job, same order.
  std::vector<SimJobResult> RunBatch(const std::vector<SimJobSpec>& specs);

  void ResetCaches();

  const SimConfig& config() const { return config_; }
  sched::LafScheduler* laf() { return laf_.get(); }

 private:
  struct MapPlacement {
    int server;
    SimTime effective_submit;  // original submit, plus any delay-scheduling
                               // wait burned in the preferred server's queue
  };

  MapPlacement PlaceMapTask(HashKey key, SimTime submit);
  int RackOf(int node) const { return node / config_.nodes_per_rack; }

  /// Seconds for `server` to fetch `bytes` whose FS owner is `owner`.
  double FetchSeconds(int server, int owner, Bytes bytes) const;

  /// Internal: runs jobs already merged into one access stream.
  std::vector<SimJobResult> Execute(const std::vector<SimJobSpec>& specs);

  SimConfig config_;
  mr::SchedulerKind kind_;
  sched::LafOptions laf_options_;
  double delay_wait_sec_;

  dht::Ring ring_;
  RangeTable fs_ranges_;
  std::vector<int> servers_;  // ring order
  std::unique_ptr<sched::LafScheduler> laf_;
  std::unique_ptr<sched::DelayScheduler> delay_;

  std::vector<SlotPool> map_pools_;
  std::vector<SlotPool> reduce_pools_;
  std::vector<std::unique_ptr<cache::LruCache>> caches_;
};

}  // namespace eclipse::sim
