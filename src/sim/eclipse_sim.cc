#include "sim/eclipse_sim.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace eclipse::sim {
namespace {

double MegaBytes(Bytes b) { return static_cast<double>(b) / (1024.0 * 1024.0); }

}  // namespace

EclipseSim::EclipseSim(const SimConfig& config, mr::SchedulerKind kind,
                       sched::LafOptions laf_options, double delay_wait_sec)
    : config_(config), kind_(kind), laf_options_(laf_options),
      delay_wait_sec_(delay_wait_sec) {
  for (int i = 0; i < config_.num_nodes; ++i) ring_.AddServer(i);
  fs_ranges_ = ring_.MakeRangeTable();
  servers_ = ring_.Servers();

  laf_ = std::make_unique<sched::LafScheduler>(servers_, fs_ranges_, laf_options_);
  sched::DelayOptions dopts;
  dopts.wait_timeout_sec = delay_wait_sec_;
  delay_ = std::make_unique<sched::DelayScheduler>(servers_, fs_ranges_, dopts);

  for (int i = 0; i < config_.num_nodes; ++i) {
    map_pools_.emplace_back(config_.map_slots);
    reduce_pools_.emplace_back(config_.reduce_slots);
    caches_.push_back(std::make_unique<cache::LruCache>(config_.cache_per_node));
  }
}

void EclipseSim::ResetCaches() {
  for (auto& c : caches_) {
    c = std::make_unique<cache::LruCache>(config_.cache_per_node);
  }
}

EclipseSim::MapPlacement EclipseSim::PlaceMapTask(HashKey key, SimTime submit) {
  if (kind_ == mr::SchedulerKind::kLaf) {
    // LAF never waits: equal-probability ranges keep the queues level
    // (Algorithm 1).
    return MapPlacement{laf_->Assign(key), submit};
  }
  // Delay scheduling: wait up to the timeout for the static range owner.
  // Reassignment happens only if, when the wait expires, some other server
  // actually has an IDLE slot to steal to (§II-F / [34]); otherwise the
  // task keeps waiting in the preferred queue — which is exactly how delay
  // scheduling trades load balance for cache hits.
  int preferred = delay_->Preferred(key);
  auto pidx = static_cast<std::size_t>(preferred);
  SimTime est_preferred = map_pools_[pidx].EarliestStart(submit);
  SimTime give_up_at = submit + delay_wait_sec_;
  if (est_preferred <= give_up_at) {
    delay_->RecordAssignment(preferred);
    return MapPlacement{preferred, submit};
  }
  int best = -1;
  SimTime best_est = est_preferred;
  for (int s : servers_) {
    if (s == preferred) continue;
    SimTime est = map_pools_[static_cast<std::size_t>(s)].EarliestStart(give_up_at);
    if (est <= give_up_at && est < best_est) {
      best_est = est;
      best = s;
    }
  }
  if (best < 0) {
    delay_->RecordAssignment(preferred);  // nowhere idle: keep waiting
    return MapPlacement{preferred, submit};
  }
  delay_->RecordAssignment(best);
  return MapPlacement{best, give_up_at};  // the wait was burned in the queue
}

double EclipseSim::FetchSeconds(int server, int owner, Bytes bytes) const {
  if (server == owner) return TransferSeconds(bytes, config_.disk_read_mbps);
  double net = config_.net_mbps;
  if (RackOf(server) != RackOf(owner)) net *= config_.inter_rack_factor;
  // Remote read streams from the owner's disk through the network; the
  // slower stage bounds throughput.
  return TransferSeconds(bytes, std::min(config_.disk_read_mbps, net));
}

SimJobResult EclipseSim::RunJob(const SimJobSpec& spec) {
  return Execute({spec})[0];
}

std::vector<SimJobResult> EclipseSim::RunBatch(const std::vector<SimJobSpec>& specs) {
  return Execute(specs);
}

std::vector<SimJobResult> EclipseSim::Execute(const std::vector<SimJobSpec>& specs) {
  for (auto& p : map_pools_) p.Reset();
  for (auto& p : reduce_pools_) p.Reset();

  struct JobState {
    const SimJobSpec* spec;
    std::vector<std::uint32_t> accesses;
    int iteration = 0;
    std::size_t cursor = 0;          // next access in the current iteration
    SimTime iter_submit = 0.0;       // maps of this iteration submit here
    SimTime map_end = 0.0;
    bool done = false;
    SimJobResult result;
  };

  std::vector<JobState> jobs;
  jobs.reserve(specs.size());
  for (const auto& s : specs) {
    JobState j;
    j.spec = &s;
    j.iter_submit = s.submit_time;
    if (s.accesses.empty()) {
      j.accesses.resize(s.num_blocks);
      for (std::uint32_t b = 0; b < s.num_blocks; ++b) j.accesses[b] = b;
    } else {
      j.accesses = s.accesses;
    }
    jobs.push_back(std::move(j));
  }

  const Bytes bs = config_.block_size;
  const auto n = static_cast<std::size_t>(config_.num_nodes);

  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& j : jobs) {
      if (j.done) continue;
      progress = true;
      const AppProfile& app = j.spec->app;

      if (j.cursor < j.accesses.size()) {
        // One map task.
        std::uint32_t block = j.accesses[j.cursor++];
        HashKey key = j.spec->KeyOfBlock(block);
        const std::string id = j.spec->dataset + "#" + std::to_string(block);

        MapPlacement placement = PlaceMapTask(key, j.iter_submit);
        auto sidx = static_cast<std::size_t>(placement.server);

        double read_t;
        if (caches_[sidx]->Touch(id, cache::EntryKind::kInput)) {
          ++j.result.cache_hits;
          read_t = TransferSeconds(bs, config_.mem_mbps);
        } else {
          ++j.result.cache_misses;
          int owner = fs_ranges_.Owner(key);
          read_t = FetchSeconds(placement.server, owner, bs);
          caches_[sidx]->PutPlaceholder(id, key, bs, cache::EntryKind::kInput);
        }

        double cpu = app.map_cpu_sec_per_mb * MegaBytes(bs);
        if (placement.server < config_.slow_nodes) cpu *= config_.slow_factor;
        Bytes spill_bytes = static_cast<Bytes>(app.map_output_ratio * static_cast<double>(bs));
        // Proactive shuffle (§II-D): the spill stream overlaps map compute;
        // only the non-overlapped remainder extends the task.
        double spill_t = TransferSeconds(spill_bytes, config_.net_mbps) +
                         TransferSeconds(spill_bytes, config_.disk_write_mbps);
        // With proactive shuffle the spill stream overlaps compute; the
        // ablation variant serializes write-then-shuffle like Hadoop.
        double shuffle_part = config_.proactive_shuffle ? std::max(cpu, spill_t)
                                                        : cpu + spill_t;
        double duration =
            config_.eclipse_task_overhead_sec + read_t + shuffle_part;

        SimTime end = map_pools_[sidx].Schedule(placement.effective_submit, duration);
        j.map_end = std::max(j.map_end, end);
        ++j.result.map_tasks;
        j.result.map_task_seconds_total += duration;
        j.result.bytes_read += bs;
        continue;
      }

      // Iteration's maps all placed: schedule its reduce wave.
      Bytes input_bytes = static_cast<Bytes>(j.accesses.size()) * bs;
      Bytes intermediate =
          static_cast<Bytes>(app.map_output_ratio * static_cast<double>(input_bytes));
      Bytes inter_share = intermediate / n;
      double out_ratio = (j.spec->iterations > 1) ? app.iteration_output_ratio
                                                  : app.final_output_ratio;
      Bytes out_share =
          static_cast<Bytes>(out_ratio * static_cast<double>(input_bytes)) / n;
      bool write_outputs = j.spec->iterations == 1 || j.spec->persist_iteration_outputs ||
                           j.iteration + 1 == j.spec->iterations;

      SimTime iter_end = j.map_end;
      for (std::size_t s = 0; s < n; ++s) {
        // Intermediates are already reducer-side and on local disk (§II-D);
        // without proactive shuffle the reducer pulls them over the network
        // after the maps finish.
        double reduce_cpu = app.reduce_cpu_sec_per_mb * MegaBytes(inter_share);
        if (static_cast<int>(s) < config_.slow_nodes) reduce_cpu *= config_.slow_factor;
        double reduce_t = config_.eclipse_task_overhead_sec +
                          TransferSeconds(inter_share, config_.disk_read_mbps) + reduce_cpu;
        if (!config_.proactive_shuffle) {
          reduce_t += TransferSeconds(inter_share, config_.net_mbps);
        }
        if (write_outputs) {
          // Output blocks go to their hash-key owners and are replicated on
          // the owner's predecessor and successor (§II-A): one disk write
          // plus two network transfers.
          reduce_t += TransferSeconds(out_share, config_.disk_write_mbps) +
                      2.0 * TransferSeconds(out_share, config_.net_mbps);
        }
        SimTime end = reduce_pools_[s].Schedule(j.map_end, reduce_t);
        iter_end = std::max(iter_end, end);
        ++j.result.reduce_tasks;
      }

      j.result.iteration_seconds.push_back(iter_end - j.iter_submit);
      ++j.iteration;
      if (j.iteration >= j.spec->iterations) {
        j.result.job_seconds = iter_end - j.spec->submit_time;
        j.done = true;
      } else {
        j.cursor = 0;
        j.iter_submit = iter_end;
        j.map_end = iter_end;
      }
    }
  }

  // Balance metric over every map slot in the cluster.
  std::vector<std::uint64_t> per_slot;
  for (const auto& p : map_pools_) {
    per_slot.insert(per_slot.end(), p.tasks_per_slot().begin(), p.tasks_per_slot().end());
  }
  double stddev = sched::CountStdDev(per_slot);

  std::vector<SimJobResult> results;
  results.reserve(jobs.size());
  for (auto& j : jobs) {
    j.result.slot_stddev = stddev;
    results.push_back(std::move(j.result));
  }
  return results;
}

}  // namespace eclipse::sim
