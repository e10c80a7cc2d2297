// Race-hunting stress suite: designed to make TSan bite.
//
// Every test here hammers one of the concurrency-heavy layers from many
// threads at once — the shared-budget LRU cache, the slot arbiter,
// transport registration vs. in-flight calls, DHT membership churn racing
// routing lookups, and a full job running concurrently with a server kill.
// The assertions check invariants that only hold if the locking is right;
// the real teeth are the sanitizer build modes (-DECLIPSE_SANITIZE=thread /
// address), under which CI runs this binary.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/wordcount.h"
#include "cache/lru_cache.h"
#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "dfs/block_store.h"
#include "dht/membership.h"
#include "fault/fault_plan.h"
#include "mr/cluster.h"
#include "net/conn_pool.h"
#include "net/dispatcher.h"
#include "net/retry.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "sched/slot_arbiter.h"
#include "workload/generators.h"

namespace eclipse {
namespace {

using cache::EntryKind;
using cache::LruCache;

TEST(RaceStress, LruCachePutGetEvictHammer) {
  // 6 mutators + 2 structural threads (ExtractRange / Resize) against one
  // byte budget small enough to force constant eviction.
  LruCache cache(64_KiB);
  constexpr int kMutators = 6;
  constexpr int kIters = 4000;
  std::atomic<std::uint64_t> gets{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kMutators; ++t) {
    threads.emplace_back([&cache, &gets, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kIters; ++i) {
        std::string id = "obj-" + std::to_string(rng.Below(300));
        HashKey key = KeyOf(id);
        switch (i % 5) {
          case 0:
            cache.Put(id, key, std::string(1024, 'x'),
                      t % 2 ? EntryKind::kInput : EntryKind::kOutput);
            break;
          case 1:
            cache.PutPlaceholder(id, key, 2048, EntryKind::kInput);
            break;
          case 2:
            (void)cache.Get(id, EntryKind::kInput);
            gets.fetch_add(1, std::memory_order_relaxed);
            break;
          case 3:
            (void)cache.Contains(id);
            break;
          default:
            cache.Erase(id);
            break;
        }
      }
    });
  }
  std::atomic<bool> stop{false};
  threads.emplace_back([&cache, &stop] {
    Rng rng(99);
    while (!stop.load()) {
      HashKey begin = rng.Next();
      (void)cache.ExtractRange(KeyRange{begin, begin + (HashKey{1} << 32), false});
      (void)cache.Entries();
      (void)cache.stats();
    }
  });
  threads.emplace_back([&cache, &stop] {
    Bytes sizes[] = {16_KiB, 64_KiB, 128_KiB};
    int i = 0;
    while (!stop.load()) {
      cache.Resize(sizes[i++ % 3]);
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < kMutators; ++t) threads[static_cast<std::size_t>(t)].join();
  stop.store(true);
  threads[kMutators].join();
  threads[kMutators + 1].join();

  cache.Resize(64_KiB);
  EXPECT_LE(cache.used(), cache.capacity());
  EXPECT_EQ(cache.Entries().size(), cache.Count());
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, gets.load()) << "lost or double-counted a Get";
}

TEST(RaceStress, TransportRegisterVsCall) {
  // Callers race a churn thread that detaches/reattaches the target node:
  // every call must either reach the handler or fail Unavailable — never
  // crash or hang on a half-registered endpoint.
  net::InProcessTransport transport;
  std::atomic<std::uint64_t> handled{0};
  net::Handler handler = [&handled](net::NodeId, const net::Message& m) {
    handled.fetch_add(1);
    return net::Message{m.type, m.payload};
  };
  transport.Register(7, handler);

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    for (int i = 0; i < 2000; ++i) {
      transport.Register(7, nullptr);
      transport.Register(7, handler);
    }
    stop.store(true);
  });
  std::atomic<std::uint64_t> ok{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      while (!stop.load()) {
        auto resp = transport.Call(1, 7, net::Message{42, "ping"});
        if (resp.ok()) {
          ok.fetch_add(1);
          EXPECT_EQ(resp.value().payload, "ping");
        } else {
          EXPECT_EQ(resp.status().code(), ErrorCode::kUnavailable);
        }
      }
    });
  }
  churn.join();
  for (auto& c : callers) c.join();
  EXPECT_EQ(handled.load(), ok.load());
}

TEST(RaceStress, BlockStoreTtlSweepHammer) {
  dfs::BlockStore store;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < 3000; ++i) {
        std::string id = "b-" + std::to_string((t * 31 + i) % 200);
        auto ttl = (i % 4 == 0) ? std::chrono::milliseconds(1)
                                : std::chrono::milliseconds::zero();
        store.Put(id, KeyOf(id), std::string(256, 'd'), ttl);
        (void)store.Get(id);
        (void)store.Contains(id);
        if (i % 16 == 0) store.Erase(id);
      }
    });
  }
  threads.emplace_back([&store, &stop] {
    while (!stop.load()) {
      (void)store.Sweep();
      (void)store.List();
      (void)store.TotalBytes();
    }
  });
  for (int t = 0; t < 4; ++t) threads[static_cast<std::size_t>(t)].join();
  stop.store(true);
  threads[4].join();

  // Let every 1 ms TTL lapse, sweep, then the byte counter must equal the
  // sum of live block sizes exactly.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  store.Sweep();
  Bytes listed = 0;
  for (const auto& info : store.List()) listed += info.size;
  EXPECT_EQ(store.TotalBytes(), listed);
}

TEST(RaceStress, MembershipChurnVsRoutingLookups) {
  // Join/leave churn racing ring_view()/Owner() readers. A node is killed
  // (detached from the transport) while reader threads continuously resolve
  // owners from every surviving agent's view, then a new node joins mid-read.
  net::InProcessTransport transport;
  constexpr int kNodes = 5;
  dht::MembershipConfig cfg;
  cfg.heartbeat_interval = std::chrono::milliseconds(3);
  cfg.miss_threshold = 2;

  std::vector<std::unique_ptr<net::Dispatcher>> dispatchers;
  std::vector<std::unique_ptr<dht::MembershipAgent>> agents;
  dht::Ring initial;
  for (int i = 0; i < kNodes; ++i) initial.AddServer(i);
  for (int i = 0; i < kNodes; ++i) {
    dispatchers.push_back(std::make_unique<net::Dispatcher>());
    agents.push_back(std::make_unique<dht::MembershipAgent>(
        i, transport, *dispatchers[static_cast<std::size_t>(i)], cfg));
    agents[static_cast<std::size_t>(i)]->SetRing(initial);
    transport.Register(i, dispatchers[static_cast<std::size_t>(i)]->AsHandler());
  }
  for (auto& a : agents) a->Start();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&agents, &stop, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 7);
      while (!stop.load()) {
        for (int i = 0; i < kNodes - 1; ++i) {  // agent kNodes-1 gets killed
          dht::Ring view = agents[static_cast<std::size_t>(i)]->ring_view();
          if (view.empty()) continue;
          EXPECT_GE(view.Owner(rng.Next()), 0);
        }
      }
    });
  }

  // Kill the last node: detach its endpoint and stop its heartbeats.
  const int victim = kNodes - 1;
  transport.Register(victim, nullptr);
  agents[static_cast<std::size_t>(victim)]->Stop();

  // Every surviving agent must drop the victim from its view.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (int i = 0; i < victim; ++i) {
    auto& agent = *agents[static_cast<std::size_t>(i)];
    while (agent.ring_view().Contains(victim) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_FALSE(agent.ring_view().Contains(victim))
        << "agent " << i << " never noticed the failure";
  }

  // A newcomer joins through node 0 while the readers keep hammering.
  net::Dispatcher joiner_dispatcher;
  dht::MembershipAgent joiner(kNodes, transport, joiner_dispatcher, cfg);
  transport.Register(kNodes, joiner_dispatcher.AsHandler());
  ASSERT_TRUE(joiner.Join(0));
  joiner.Start();
  for (int i = 0; i < victim; ++i) {
    auto& agent = *agents[static_cast<std::size_t>(i)];
    while (!agent.ring_view().Contains(kNodes) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_TRUE(agent.ring_view().Contains(kNodes))
        << "agent " << i << " never saw the join";
  }

  stop.store(true);
  for (auto& r : readers) r.join();
  joiner.Stop();
  for (auto& a : agents) a->Stop();
  // Detach all endpoints before the agents are destroyed so no in-flight
  // handler outlives its agent.
  for (int i = 0; i <= kNodes; ++i) transport.Register(i, nullptr);
}

TEST(RaceStress, ShuffleConcurrentWithServerKill) {
  // The fault path under concurrency: a job's map phase (proactive shuffle
  // included) races KillServer on a node that may hold its spills. The job
  // must either finish correctly or fail with a clean Status — never crash
  // or hang — and afterwards the recovered cluster must run the same job.
  for (int round = 0; round < 3; ++round) {
    mr::ClusterOptions opts;
    opts.num_servers = 6;
    opts.block_size = 512;
    opts.cache_capacity = 8_MiB;
    mr::Cluster cluster(opts);
    Rng rng(static_cast<std::uint64_t>(round) + 11);
    workload::TextOptions topts;
    topts.target_bytes = 20000;
    topts.vocabulary = 50;
    ASSERT_TRUE(cluster.dfs().Upload("corpus", workload::GenerateText(rng, topts)).ok());

    mr::JobResult result;
    std::thread job([&] { result = cluster.Run(apps::WordCountJob("wc", "corpus")); });
    std::thread killer([&cluster, round] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1 + round));
      cluster.KillServer(1 + round);
    });
    job.join();
    killer.join();

    if (result.status.ok()) {
      EXPECT_GT(result.output.size(), 0u);
    }
    // Post-recovery the cluster must be fully functional.
    auto rerun = cluster.Run(apps::WordCountJob("wc-after", "corpus"));
    ASSERT_TRUE(rerun.status.ok()) << rerun.status.ToString();
    EXPECT_GT(rerun.output.size(), 0u);
  }
}

TEST(RaceStress, SpeculationRacesGenuineCompletionAndKill) {
  // Speculative execution's worst neighborhood: a slow disk makes tasks
  // straggle so backups launch, the primary and backup attempts race to
  // completion (first-writer-wins on spills, loser cancelled), and a killer
  // thread takes a server down while duplicates are in flight and churns
  // the fault plan (heal mid-decision). Every round must end in a clean ok
  // or a clean error, and the recovered cluster must still run the job.
  for (int round = 0; round < 3; ++round) {
    auto controller = std::make_shared<fault::FaultController>();
    mr::ClusterOptions opts;
    opts.num_servers = 6;
    opts.block_size = 512;
    opts.cache_capacity = 8_MiB;
    opts.fault_controller = controller;
    mr::Cluster cluster(opts);
    Rng rng(static_cast<std::uint64_t>(round) + 31);
    workload::TextOptions topts;
    topts.target_bytes = 20000;
    topts.vocabulary = 50;
    std::string corpus = workload::GenerateText(rng, topts);
    ASSERT_TRUE(cluster.dfs().Upload("corpus", corpus).ok());

    fault::FaultPlan plan;
    plan.slow_disk_nodes = {0};
    plan.slow_disk_latency = std::chrono::milliseconds(5);
    controller->Install(plan);

    mr::JobSpec job = apps::WordCountJob("wc-spec", "corpus");
    job.speculative_execution = true;
    job.straggler_multiplier = 1.5;
    job.speculation_min_completed = 2;

    mr::JobResult result;
    std::thread driver([&] { result = cluster.Run(job); });
    std::thread killer([&cluster, &controller, round] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2 + round));
      cluster.KillServer(2 + round);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      controller->Clear();  // heal races in-flight Decide/DiskDelay reads
    });
    driver.join();
    killer.join();

    if (result.status.ok()) {
      auto oracle = apps::WordCountSerial(corpus);
      ASSERT_EQ(result.output.size(), oracle.size());
      for (const auto& kv : result.output) {
        EXPECT_EQ(kv.value, std::to_string(oracle.at(kv.key))) << kv.key;
      }
    }
    // Post-recovery, with the plan cleared, the same speculative job must
    // succeed outright.
    auto rerun = cluster.Run(job);
    ASSERT_TRUE(rerun.status.ok()) << rerun.status.ToString();
    EXPECT_GT(rerun.output.size(), 0u);
  }
}

TEST(RaceStress, ClusterAddServerVsJobs) {
  // Membership growth racing live traffic: AddServer rebalances (and grows
  // the worker vector) while two driver threads run jobs back to back.
  mr::ClusterOptions opts;
  opts.num_servers = 4;
  opts.block_size = 512;
  mr::Cluster cluster(opts);
  Rng rng(23);
  workload::TextOptions topts;
  topts.target_bytes = 10000;
  std::string text_a = workload::GenerateText(rng, topts);
  std::string text_b = workload::GenerateText(rng, topts);
  ASSERT_TRUE(cluster.dfs().Upload("a", text_a).ok());
  ASSERT_TRUE(cluster.dfs().Upload("b", text_b).ok());

  std::atomic<int> ok_jobs{0};
  std::vector<std::thread> drivers;
  for (int t = 0; t < 2; ++t) {
    drivers.emplace_back([&cluster, &ok_jobs, t] {
      for (int i = 0; i < 3; ++i) {
        auto r = cluster.Run(
            apps::WordCountJob(std::string("j") + std::to_string(t) + "-" + std::to_string(i),
                               t == 0 ? "a" : "b"));
        if (r.status.ok()) ok_jobs.fetch_add(1);
      }
    });
  }
  int added = cluster.AddServer();
  EXPECT_GE(added, 4);
  for (auto& d : drivers) d.join();
  EXPECT_EQ(ok_jobs.load(), 6) << "jobs failed during AddServer rebalance";

  // The grown cluster must produce oracle-correct output.
  auto after = cluster.Run(apps::WordCountJob("after-grow", "a"));
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  auto expected = apps::WordCountSerial(text_a);
  ASSERT_EQ(after.output.size(), expected.size());
}

TEST(RaceStress, SubmittedJobsVsAddServer) {
  // The multi-job front end racing membership growth: six jobs from two
  // users go through Submit (concurrent JobRunners sharing the SlotArbiter
  // and one SchedulerEpoch) while AddServer rebalances the DHT FS and
  // publishes a fresh epoch mid-flight. With replication 3 the grow path
  // must be invisible: every job's output must match its serial oracle —
  // in-flight jobs keep their captured epoch, new owners serve via replica
  // fall-through. (The replication=1 window is documented in
  // docs/architecture.md; this pin covers the supported configuration.)
  mr::ClusterOptions opts;
  opts.num_servers = 4;
  opts.block_size = 512;
  opts.max_concurrent_jobs = 6;
  mr::Cluster cluster(opts);
  Rng rng(47);
  workload::TextOptions topts;
  topts.target_bytes = 10000;
  std::string text_a = workload::GenerateText(rng, topts);
  std::string text_b = workload::GenerateText(rng, topts);
  ASSERT_TRUE(cluster.dfs().Upload("a", text_a).ok());
  ASSERT_TRUE(cluster.dfs().Upload("b", text_b).ok());
  auto oracle_a = apps::WordCountSerial(text_a);
  auto oracle_b = apps::WordCountSerial(text_b);

  std::vector<mr::JobHandle> handles;
  for (int i = 0; i < 6; ++i) {
    mr::JobSpec job = apps::WordCountJob("grow-race", i % 2 ? "b" : "a");
    job.user = i % 2 ? "bob" : "alice";
    job.spill_threshold = 256;
    handles.push_back(cluster.Submit(std::move(job)));
  }
  int added = cluster.AddServer();
  EXPECT_GE(added, 4);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    mr::JobResult r = handles[i].Wait();
    ASSERT_TRUE(r.status.ok()) << "job " << i << ": " << r.status.ToString();
    const auto& oracle = i % 2 ? oracle_b : oracle_a;
    ASSERT_EQ(r.output.size(), oracle.size()) << "job " << i;
    for (const auto& kv : r.output) {
      ASSERT_EQ(kv.value, std::to_string(oracle.at(kv.key))) << "job " << i << " " << kv.key;
    }
  }
  EXPECT_EQ(cluster.arbiter().InUse("alice"), 0);
  EXPECT_EQ(cluster.arbiter().InUse("bob"), 0);

  // The grown cluster still serves both tenants.
  auto after = cluster.Run(apps::WordCountJob("after-grow", "a"));
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  ASSERT_EQ(after.output.size(), oracle_a.size());
}

TEST(RaceStress, SpillCleanupVsNextJobsSpillPushes) {
  // A successful job's runner deletes its spills after the handle completes,
  // while the next job, on the other runner, pushes its spills to the same
  // range owners over the same corpus. The deletes name only the finished
  // job's ids: every output must match the oracle, and once the runners are
  // idle the stores hold the corpus and nothing else.
  mr::ClusterOptions opts;
  opts.num_servers = 4;
  opts.block_size = 512;
  opts.max_concurrent_jobs = 2;
  mr::Cluster cluster(opts);
  Rng rng(53);
  workload::TextOptions topts;
  topts.target_bytes = 6000;
  const std::string text = workload::GenerateText(rng, topts);
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());
  const auto oracle = apps::WordCountSerial(text);
  auto stored_objects = [&cluster] {
    std::size_t n = 0;
    for (int id : cluster.WorkerIds()) n += cluster.worker(id).dfs_node().blocks().Count();
    return n;
  };
  const std::size_t corpus_objects = stored_objects();

  std::vector<mr::JobHandle> handles;
  for (int i = 0; i < 6; ++i) {
    mr::JobSpec job = apps::WordCountJob("cleanup-race", "corpus");
    job.spill_threshold = 128;
    handles.push_back(cluster.Submit(std::move(job)));
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const mr::JobResult r = handles[i].Wait();
    ASSERT_TRUE(r.status.ok()) << "job " << i << ": " << r.status.ToString();
    ASSERT_EQ(r.output.size(), oracle.size()) << "job " << i;
    for (const auto& kv : r.output) {
      ASSERT_EQ(kv.value, std::to_string(oracle.at(kv.key))) << "job " << i << " " << kv.key;
    }
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (cluster.queue().Running() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(cluster.queue().Running(), 0u);
  EXPECT_EQ(stored_objects(), corpus_objects);
}

TEST(RaceStress, ValidatorTracksContendedNesting) {
  // The lock-order validator's own bookkeeping under fire: eight threads
  // hammer the same correctly-ordered three-lock chain (plus a try_lock
  // fast path and a CondVar ping-pong) so the per-thread held stacks are
  // pushed/popped millions of times while the mutexes themselves contend.
  // Under TSan this proves the validator adds no races of its own; in any
  // validator-enabled build it proves heavy contention never produces a
  // false rank-order report (the test aborting IS the failure mode).
  Mutex outer{Rank::kJobQueue, "race.chain.outer"};
  Mutex mid{Rank::kSlotArbiter, "race.chain.mid"};
  Mutex leaf{Rank::kMetrics, "race.chain.leaf"};
  CondVar cv;
  std::uint64_t turns = 0;  // guarded by mid
  std::atomic<std::uint64_t> laps{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 4000; ++i) {
        switch ((t + i) % 3) {
          case 0: {  // full chain, innermost released first
            MutexLock lo(outer);
            MutexLock lm(mid);
            MutexLock ll(leaf);
            laps.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          case 1: {  // try_lock joins the stack without an order check
            MutexLock ll(leaf);
            if (mid.try_lock()) {
              ++turns;
              mid.unlock();
            }
            break;
          }
          default: {  // CondVar wait releases mid out of stack order
            MutexLock lo(outer);
            MutexLock lm(mid);
            cv.notify_one();
            if (turns % 7 == 0) {
              cv.wait_for(lm, std::chrono::microseconds(50));
            }
            ++turns;
            break;
          }
        }
#if ECLIPSE_LOCK_VALIDATOR_ENABLED
        ASSERT_EQ(lock_order::HeldDepth(), 0)
            << "held stack leaked on thread " << t << " iteration " << i;
#endif
      }
    });
  }
  for (auto& th : threads) th.join();
  // Every thread's case-0 arm ran ~4000/3 times; the exact split depends on
  // the (t + i) phase, so pin a floor rather than the precise count.
  EXPECT_GE(laps.load(), 8u * 1333u);
  EXPECT_GE(turns, 1u);
}

TEST(RaceStress, TraceEmissionVsCaptureControl) {
  // Span emission from many threads racing Start/Stop/Clear/Snapshot on the
  // global tracer: the per-thread buffers are lock-free on the append path
  // and the session counter invalidates stale chunks, so no interleaving may
  // tear an event or resurrect a cleared one. Run under TSan, this is the
  // race detector for the whole obs layer.
  auto& tracer = obs::Tracer::Global();
  tracer.Start();
  std::atomic<bool> stop{false};
  std::vector<std::thread> emitters;
  for (int t = 0; t < 6; ++t) {
    emitters.emplace_back([t, &stop] {
      std::uint64_t i = 0;
      while (!stop.load()) {
        obs::TraceSpan span("mr", "map_task", t, {obs::U64("block", i++)});
        span.AddArg(obs::Str("locality", "remote_disk"));
        obs::Tracer::Global().Emit('i', "cache", "peer_fetch", t,
                                   {obs::Str("result", "hit")});
        // Throttle production so the controller's snapshots/exports stay
        // cheap — the point is the interleaving, not the event volume.
        if (i % 2048 == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  std::thread controller([&] {
    for (int i = 0; i < 20; ++i) {
      (void)obs::Tracer::Global().Snapshot();
      if (i % 5 == 2) obs::Tracer::Global().Start();  // new session mid-emission
      if (i % 5 == 4) obs::Tracer::Global().Clear();
      if (i % 5 == 0) (void)obs::Tracer::Global().ExportChromeTrace();
    }
  });
  controller.join();
  stop.store(true);
  // Snapshot while emitter threads are still alive (their buffers are
  // reclaimed at thread exit), then let them drain.
  auto events = tracer.Snapshot();
  for (auto& e : emitters) e.join();
  tracer.Stop();
  tracer.Clear();
  // No structural assertion beyond "didn't crash / no TSan report": the
  // capture content is timing-dependent by construction here.
  (void)events;
}

TEST(RaceStress, ArbiterSubmitVsPokeVsRemoveWorker) {
  // Submitters queue attempts on two workers while a flipper sets the token
  // half of them carry and pokes, and a remover takes one worker away. The
  // arbiter's contract: every body is called exactly once — granted,
  // withdrawn as cancelled, or refused as unavailable — whatever the
  // interleaving, and once the round drains no slot is held and nothing is
  // queued. TSan checks the handoffs between submitters, pokes, removal and
  // the slot threads.
  constexpr int kRounds = 50;
  constexpr int kSubmitters = 3;
  constexpr int kPerSubmitter = 40;
  constexpr int kTotal = kSubmitters * kPerSubmitter;
  const std::string users[] = {"alice", "bob"};
  int withdrawn = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<bool> cancel{false};
    std::vector<std::atomic<int>> calls(kTotal);
    std::atomic<int> granted{0};
    std::atomic<int> cancelled{0};
    std::atomic<int> unavailable{0};
    sched::SlotArbiter arb;
    arb.AddWorker(0, 1, 1);
    arb.AddWorker(1, 1, 1);
    std::vector<std::thread> threads;
    for (int s = 0; s < kSubmitters; ++s) {
      threads.emplace_back([&, s] {
        for (int i = 0; i < kPerSubmitter; ++i) {
          const int idx = s * kPerSubmitter + i;
          const auto kind = idx % 3 == 0 ? sched::SlotKind::kReduce : sched::SlotKind::kMap;
          arb.Submit(idx % 2, kind, users[s % 2], (idx / 2) % 2 == 0 ? &cancel : nullptr, nullptr,
                     [&, idx](Status st) {
                       calls[idx].fetch_add(1, std::memory_order_relaxed);
                       if (st.ok()) {
                         // Hold the slot a moment so the queues are still
                         // full when the flipper and the remover strike.
                         std::this_thread::sleep_for(std::chrono::microseconds(20));
                         granted.fetch_add(1, std::memory_order_relaxed);
                       } else if (st.code() == ErrorCode::kCancelled) {
                         cancelled.fetch_add(1, std::memory_order_relaxed);
                       } else if (st.code() == ErrorCode::kUnavailable) {
                         unavailable.fetch_add(1, std::memory_order_relaxed);
                       }
                     });
        }
      });
    }
    threads.emplace_back([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      cancel.store(true, std::memory_order_relaxed);
      arb.Poke();
    });
    threads.emplace_back([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(80));
      arb.RemoveWorker(1);
    });
    for (auto& t : threads) t.join();
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    auto drained = [&] {
      return granted.load() + cancelled.load() + unavailable.load() == kTotal &&
             arb.InUse("alice") == 0 && arb.InUse("bob") == 0;
    };
    while (!drained() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(drained()) << "round " << round;
    EXPECT_EQ(arb.Waiting(), 0u) << "round " << round;
    for (int i = 0; i < kTotal; ++i) {
      ASSERT_EQ(calls[i].load(), 1) << "round " << round << " entry " << i;
    }
    withdrawn += cancelled.load() + unavailable.load();
  }
  EXPECT_GT(withdrawn, 0) << "no round withdrew a queued entry: the race never happened";
}

TEST(RaceStress, ConnPoolReleaseVsCloseAll) {
  // The shutdown race from the ConnPool bugfix: a Release landing after
  // CloseAll swapped the idle map out used to re-create a stash entry, so
  // the socket silently survived shutdown and could be handed out stale
  // later. Hammer Release from several threads while CloseAll fires in the
  // middle; afterwards every fd handed to the pool must be closed — either
  // it was stashed in time and CloseAll swept it, or it hit the closed_
  // gate and Release closed it directly. Nothing may be left for reuse.
  for (int round = 0; round < 50; ++round) {
    net::ConnPool pool(/*max_idle_per_peer=*/64);
    constexpr int kThreads = 4;
    constexpr int kFdsPerThread = 16;
    std::vector<std::vector<int>> fds(kThreads);
    for (auto& mine : fds) {
      for (int i = 0; i < kFdsPerThread; ++i) {
        int pipefd[2];
        ASSERT_EQ(::pipe(pipefd), 0);
        mine.push_back(pipefd[0]);
        ::close(pipefd[1]);
      }
    }
    std::atomic<int> ready{0};
    std::vector<std::thread> releasers;
    for (int t = 0; t < kThreads; ++t) {
      releasers.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads + 1) std::this_thread::yield();
        for (int fd : fds[t]) pool.Release("peer", 7000 + t, fd);
      });
    }
    std::thread closer([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads + 1) std::this_thread::yield();
      pool.CloseAll();
    });
    for (auto& r : releasers) r.join();
    closer.join();
    // No open file descriptor may survive the race (no other thread in this
    // test opens fds concurrently, so an EBADF probe is unambiguous).
    for (const auto& mine : fds) {
      for (int fd : mine) {
        errno = 0;
        EXPECT_EQ(::fcntl(fd, F_GETFD), -1)
            << "fd " << fd << " survived CloseAll (round " << round << ")";
        EXPECT_EQ(errno, EBADF);
      }
    }
  }
}

TEST(RaceStress, DispatcherAcceptVsShutdown) {
  // The frame server's accept path races endpoint teardown: clients keep
  // connecting and calling over real TCP while the endpoint is repeatedly
  // detached (which drains in-flight handlers and closes the listener) and
  // re-registered on the same port. Every call must complete or fail cleanly
  // — no crash, no std::terminate from a handler outliving its endpoint.
  net::TcpTransport server;
  std::atomic<std::uint64_t> handled{0};
  net::Handler handler = [&handled](net::NodeId, const net::Message& m) {
    handled.fetch_add(1);
    return net::Message{m.type, m.payload};
  };
  const int port = server.RegisterAt(0, handler, 0);
  ASSERT_GT(port, 0);

  net::TcpTransport client;
  client.AddPeer(0, "127.0.0.1", port);

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    for (int i = 0; i < 200; ++i) {
      server.Register(0, nullptr);  // drain + close listener
      // Same port so the hammering clients stay aimed at it; the listener
      // closed an instant ago, so rebinding exercises the reuse path too.
      int rebound = server.RegisterAt(0, handler, port);
      ASSERT_EQ(rebound, port);
      // Each registration stays up for a fixed dwell, so calls reach the
      // endpoint by design rather than only when a SYN lands in the
      // instant between re-register and the next detach.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    stop.store(true);
  });

  std::atomic<std::uint64_t> ok{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      while (!stop.load()) {
        net::ScopedDeadline sd(net::Deadline::After(std::chrono::milliseconds(250)));
        auto resp = client.Call(1, 0, net::Message{42, "ping"});
        if (resp.ok()) {
          ok.fetch_add(1);
          EXPECT_EQ(resp.value().payload, "ping");
        }
        // Failures surface as Unavailable/DeadlineExceeded; both are clean.
      }
    });
  }
  churn.join();
  for (auto& c : callers) c.join();
  EXPECT_GT(ok.load(), 0u);
  EXPECT_GE(handled.load(), ok.load());
  // The race must also leave the endpoint serving.
  auto after = client.Call(1, 0, net::Message{42, "ping"});
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().payload, "ping");
}

}  // namespace
}  // namespace eclipse
