// Concurrent multi-job execution: the Submit/Wait/Cancel front end, the
// single-job-assumption regressions (same-name spill-scope collision), and
// cancellation hygiene — a cancelled job must leave the cluster fully
// reusable: no leaked slots, no orphan intermediates in the DHT FS, no
// job-private residue squatting in the caches.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/grep.h"
#include "apps/wordcount.h"
#include "common/rng.h"
#include "mr/cluster.h"
#include "workload/generators.h"

namespace eclipse {
namespace {

std::string MakeText(std::uint64_t seed, Bytes bytes = 20_KiB) {
  Rng rng(seed);
  workload::TextOptions topts;
  topts.target_bytes = bytes;
  topts.vocabulary = 60;
  return workload::GenerateText(rng, topts);
}

void ExpectWordCount(const mr::JobResult& result, const std::string& text) {
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  auto oracle = apps::WordCountSerial(text);
  ASSERT_EQ(result.output.size(), oracle.size());
  for (const auto& kv : result.output) {
    ASSERT_TRUE(oracle.count(kv.key)) << "unexpected key " << kv.key;
    EXPECT_EQ(kv.value, std::to_string(oracle.at(kv.key))) << kv.key;
  }
}

/// Every worker's full slot capacity must be back in the arbiter and no
/// user may be holding anything — the "no leaked slots" post-condition.
void ExpectAllSlotsFree(mr::Cluster& cluster) {
  for (int id : cluster.WorkerIds()) {
    if (cluster.worker(id).dead()) continue;
    EXPECT_EQ(cluster.arbiter().FreeSlots(id, sched::SlotKind::kMap),
              cluster.options().map_slots)
        << "worker " << id << " leaked a map slot";
    EXPECT_EQ(cluster.arbiter().FreeSlots(id, sched::SlotKind::kReduce),
              cluster.options().reduce_slots)
        << "worker " << id << " leaked a reduce slot";
  }
  EXPECT_EQ(cluster.arbiter().InUse(cluster.options().user), 0);
  EXPECT_EQ(cluster.arbiter().Waiting(), 0u);
}

/// No DHT-FS block and no cache entry anywhere may reference the cancelled
/// job's private spill scope ("im/j<job_id>/...").
void ExpectNoJobResidue(mr::Cluster& cluster, std::uint64_t job_id) {
  const std::string prefix = "im/j" + std::to_string(job_id) + "/";
  for (int id : cluster.WorkerIds()) {
    auto& w = cluster.worker(id);
    if (w.dead()) continue;
    for (const auto& info : w.dfs_node().blocks().List()) {
      EXPECT_NE(info.id.rfind(prefix, 0), 0u)
          << "orphan spill " << info.id << " on worker " << id;
    }
    for (const auto& entry : w.cache().Entries()) {
      EXPECT_NE(entry.id.rfind(prefix, 0), 0u)
          << "orphan cache entry " << entry.id << " on worker " << id;
    }
  }
}

/// Wait until no runner is busy: a submitted job's runner deletes the job's
/// spills after its handle completes.
void WaitForIdleRunners(mr::Cluster& cluster) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cluster.queue().Running() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(cluster.queue().Running(), 0u) << "a runner never finished";
}

TEST(JobQueue, SubmitWaitMatchesSoloRun) {
  mr::ClusterOptions opts;
  opts.num_servers = 4;
  opts.block_size = 1_KiB;
  mr::Cluster cluster(opts);
  std::string text_a = MakeText(1);
  std::string text_b = MakeText(2);
  ASSERT_TRUE(cluster.dfs().Upload("a", text_a).ok());
  ASSERT_TRUE(cluster.dfs().Upload("b", text_b).ok());

  mr::JobHandle ha = cluster.Submit(apps::WordCountJob("wc-a", "a"));
  mr::JobHandle hb = cluster.Submit(apps::WordCountJob("wc-b", "b"));
  ASSERT_TRUE(ha.valid());
  ASSERT_TRUE(hb.valid());
  mr::JobResult ra = ha.Wait();
  mr::JobResult rb = hb.Wait();
  ExpectWordCount(ra, text_a);
  ExpectWordCount(rb, text_b);
  EXPECT_NE(ra.job_id, rb.job_id);
  EXPECT_EQ(ra.job_id, ha.job_id());
  // Wait is idempotent.
  EXPECT_EQ(ha.Wait().output.size(), ra.output.size());
  ExpectAllSlotsFree(cluster);
}

// The satellite-1 regression: before spill scopes were namespaced by
// job_id, two concurrent jobs with the same JobSpec::name shared the
// "im/<name>/..." scope and overwrote each other's intermediates. Same
// names, different inputs — both must match their own serial oracle.
TEST(JobQueue, SameJobNameDifferentInputsDoNotCollide) {
  mr::ClusterOptions opts;
  opts.num_servers = 4;
  opts.block_size = 512;
  mr::Cluster cluster(opts);
  std::string text_a = MakeText(11);
  std::string text_b = MakeText(12);
  ASSERT_TRUE(cluster.dfs().Upload("a", text_a).ok());
  ASSERT_TRUE(cluster.dfs().Upload("b", text_b).ok());

  for (int round = 0; round < 3; ++round) {
    mr::JobSpec ja = apps::WordCountJob("wordcount", "a");
    mr::JobSpec jb = apps::WordCountJob("wordcount", "b");
    // Tiny spill threshold: many interleaved spill pushes per task, the
    // exact traffic pattern that exposed the shared-scope overwrites.
    ja.spill_threshold = 256;
    jb.spill_threshold = 256;
    mr::JobHandle ha = cluster.Submit(std::move(ja));
    mr::JobHandle hb = cluster.Submit(std::move(jb));
    ExpectWordCount(ha.Wait(), text_a);
    ExpectWordCount(hb.Wait(), text_b);
  }
}

// Sharper variant: same name, same input, different job *logic* — a grep
// and a word count. A name-keyed scope would mix their intermediates even
// with identical input traffic.
TEST(JobQueue, SameJobNameDifferentLogicDoNotCollide) {
  mr::ClusterOptions opts;
  opts.num_servers = 4;
  opts.block_size = 512;
  mr::Cluster cluster(opts);
  std::string text = MakeText(21);
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  mr::JobSpec wc = apps::WordCountJob("analytics", "corpus");
  mr::JobSpec gr = apps::GrepJob("analytics", "corpus", "w1");
  wc.spill_threshold = 256;
  gr.spill_threshold = 256;
  mr::JobHandle hw = cluster.Submit(std::move(wc));
  mr::JobHandle hg = cluster.Submit(std::move(gr));
  ExpectWordCount(hw.Wait(), text);

  mr::JobResult rg = hg.Wait();
  ASSERT_TRUE(rg.status.ok()) << rg.status.ToString();
  auto oracle = apps::GrepSerial(text, "w1");
  ASSERT_EQ(rg.output.size(), oracle.size());
  for (const auto& kv : rg.output) {
    ASSERT_TRUE(oracle.count(kv.key));
    EXPECT_EQ(kv.value, std::to_string(oracle.at(kv.key)));
  }
}

// Satellite 3: Delay scheduling's locality-wait budget is a per-call local
// deadline, so two concurrent Delay-mode jobs cannot consume each other's
// budgets — both must finish correctly (and promptly).
TEST(JobQueue, DelaySchedulerConcurrentJobs) {
  mr::ClusterOptions opts;
  opts.num_servers = 4;
  opts.block_size = 1_KiB;
  opts.scheduler = mr::SchedulerKind::kDelay;
  mr::Cluster cluster(opts);
  std::string text_a = MakeText(31);
  std::string text_b = MakeText(32);
  ASSERT_TRUE(cluster.dfs().Upload("a", text_a).ok());
  ASSERT_TRUE(cluster.dfs().Upload("b", text_b).ok());

  mr::JobHandle ha = cluster.Submit(apps::WordCountJob("delay-a", "a"));
  mr::JobHandle hb = cluster.Submit(apps::WordCountJob("delay-b", "b"));
  ExpectWordCount(ha.Wait(), text_a);
  ExpectWordCount(hb.Wait(), text_b);
  ExpectAllSlotsFree(cluster);
}

TEST(JobQueue, CancelQueuedJobNeverStarts) {
  mr::ClusterOptions opts;
  opts.num_servers = 2;
  opts.block_size = 1_KiB;
  opts.max_concurrent_jobs = 1;  // force queueing
  mr::Cluster cluster(opts);
  std::string text = MakeText(41);
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  mr::JobSpec slow = apps::WordCountJob("front", "corpus");
  auto base_mapper = slow.mapper;
  slow.mapper = [base_mapper] {
    class Slowed : public mr::Mapper {
     public:
      explicit Slowed(std::unique_ptr<mr::Mapper> inner) : inner_(std::move(inner)) {}
      void Map(std::string_view record, mr::MapContext& ctx) override {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        inner_->Map(record, ctx);
      }
      void Finish(mr::MapContext& ctx) override { inner_->Finish(ctx); }

     private:
      std::unique_ptr<mr::Mapper> inner_;
    };
    return std::unique_ptr<mr::Mapper>(new Slowed(base_mapper()));
  };
  mr::JobHandle front = cluster.Submit(std::move(slow));
  mr::JobHandle queued = cluster.Submit(apps::WordCountJob("queued", "corpus"));
  queued.Cancel();
  mr::JobResult cancelled = queued.Wait();
  EXPECT_EQ(cancelled.status.code(), ErrorCode::kCancelled);
  EXPECT_TRUE(cancelled.output.empty());
  ExpectWordCount(front.Wait(), text);
  ExpectAllSlotsFree(cluster);
}

// Satellite 4: cancel while the map phase is in full swing. The cluster
// must come back clean — result kCancelled, all slots returned, zero
// job-private residue in block stores or caches, and the next job green.
TEST(JobQueue, CancelMidMapLeavesClusterReusable) {
  mr::ClusterOptions opts;
  opts.num_servers = 4;
  opts.block_size = 512;
  mr::Cluster cluster(opts);
  std::string text = MakeText(51, 40_KiB);
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  mr::JobSpec job = apps::WordCountJob("doomed", "corpus");
  job.spill_threshold = 256;  // partial spills reach the DHT FS pre-cancel
  auto base_mapper = job.mapper;
  job.mapper = [base_mapper] {
    class Slowed : public mr::Mapper {
     public:
      explicit Slowed(std::unique_ptr<mr::Mapper> inner) : inner_(std::move(inner)) {}
      void Map(std::string_view record, mr::MapContext& ctx) override {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        inner_->Map(record, ctx);
      }
      void Finish(mr::MapContext& ctx) override { inner_->Finish(ctx); }

     private:
      std::unique_ptr<mr::Mapper> inner_;
    };
    return std::unique_ptr<mr::Mapper>(new Slowed(base_mapper()));
  };
  mr::JobHandle h = cluster.Submit(std::move(job));
  // Let the map wave start, then pull the plug mid-phase.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (cluster.arbiter().InUse(cluster.options().user) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(cluster.arbiter().InUse(cluster.options().user), 0) << "job never started";
  h.Cancel();
  mr::JobResult r = h.Wait();
  ASSERT_EQ(r.status.code(), ErrorCode::kCancelled) << r.status.ToString();

  ExpectAllSlotsFree(cluster);
  ExpectNoJobResidue(cluster, h.job_id());

  ExpectWordCount(cluster.Run(apps::WordCountJob("after", "corpus")), text);
  ExpectAllSlotsFree(cluster);
}

// Satellite 4, reduce side: cancel once reduce slots are in use.
TEST(JobQueue, CancelMidReduceLeavesClusterReusable) {
  mr::ClusterOptions opts;
  opts.num_servers = 4;
  opts.block_size = 1_KiB;
  mr::Cluster cluster(opts);
  std::string text = MakeText(61);
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  mr::JobSpec job = apps::WordCountJob("doomed-reduce", "corpus");
  job.spill_threshold = 256;
  auto base_reducer = job.reducer;
  job.reducer = [base_reducer] {
    class Slowed : public mr::Reducer {
     public:
      explicit Slowed(std::unique_ptr<mr::Reducer> inner) : inner_(std::move(inner)) {}
      void Reduce(std::string_view key, const std::vector<std::string_view>& values,
                  mr::ReduceContext& ctx) override {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        inner_->Reduce(key, values, ctx);
      }

     private:
      std::unique_ptr<mr::Reducer> inner_;
    };
    return std::unique_ptr<mr::Reducer>(new Slowed(base_reducer()));
  };
  mr::JobHandle h = cluster.Submit(std::move(job));
  // Wait for a reduce slot to be taken, then cancel mid-reduce.
  auto reduce_running = [&cluster] {
    for (int id : cluster.WorkerIds()) {
      if (cluster.arbiter().FreeSlots(id, sched::SlotKind::kReduce) <
          cluster.options().reduce_slots) {
        return true;
      }
    }
    return false;
  };
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!reduce_running() && !h.done() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  h.Cancel();
  mr::JobResult r = h.Wait();
  // The cancel may race the final reduce group; both terminal states must
  // leave the cluster clean.
  if (!r.status.ok()) {
    EXPECT_EQ(r.status.code(), ErrorCode::kCancelled) << r.status.ToString();
    ExpectNoJobResidue(cluster, h.job_id());
  }
  ExpectAllSlotsFree(cluster);

  ExpectWordCount(cluster.Run(apps::WordCountJob("after", "corpus")), text);
  ExpectAllSlotsFree(cluster);
}

// A successful job deletes its private spills too: through Run before Run
// returns, and through Submit once its runner has finished, which is after
// the handle completes so that the deletes stay off the job's latency.
TEST(JobQueue, SuccessfulJobLeavesNoResidue) {
  mr::ClusterOptions opts;
  opts.num_servers = 4;
  opts.block_size = 512;
  mr::Cluster cluster(opts);
  std::string text = MakeText(81);
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());
  mr::JobSpec job = apps::WordCountJob("clean", "corpus");
  job.spill_threshold = 256;

  mr::JobResult ran = cluster.Run(job);
  ExpectWordCount(ran, text);
  ASSERT_GT(ran.stats.spills, 0u);
  ExpectNoJobResidue(cluster, ran.job_id);

  mr::JobHandle h = cluster.Submit(job);
  mr::JobResult submitted = h.Wait();
  ExpectWordCount(submitted, text);
  ASSERT_GT(submitted.stats.spills, 0u);
  WaitForIdleRunners(cluster);
  ExpectNoJobResidue(cluster, h.job_id());
  ExpectAllSlotsFree(cluster);
}

// A job that fails after some of its maps spilled deletes their spills
// before its handle completes. The corpus's last block is gone from every
// replica, so the maps that need it fail every attempt; the others spill.
TEST(JobQueue, FailedJobLeavesNoResidue) {
  mr::ClusterOptions opts;
  opts.num_servers = 4;
  opts.block_size = 512;
  mr::Cluster cluster(opts);
  std::string text = MakeText(91);
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());
  const std::uint64_t blocks = cluster.dfs().GetMetadata("corpus").value().num_blocks;
  ASSERT_GT(blocks, 8u);
  const std::string lost = dfs::BlockId("corpus", blocks - 1);
  std::size_t corpus_objects = 0;
  for (int id : cluster.WorkerIds()) {
    dfs::BlockStore& store = cluster.worker(id).dfs_node().blocks();
    store.Erase(lost);
    corpus_objects += store.Count();
  }

  mr::JobSpec job = apps::WordCountJob("fails", "corpus");
  job.spill_threshold = 256;
  mr::JobHandle h = cluster.Submit(std::move(job));
  mr::JobResult r = h.Wait();
  ASSERT_FALSE(r.status.ok());
  EXPECT_NE(r.status.code(), ErrorCode::kCancelled) << r.status.ToString();
  ExpectNoJobResidue(cluster, h.job_id());
  std::size_t objects = 0;
  for (int id : cluster.WorkerIds()) objects += cluster.worker(id).dfs_node().blocks().Count();
  EXPECT_EQ(objects, corpus_objects);
  ExpectAllSlotsFree(cluster);
}

// Destroying the cluster with jobs queued and running must not hang or
// crash: the queue cancels pending jobs and drains the runners.
TEST(JobQueue, DestructionWithInFlightJobs) {
  mr::ClusterOptions opts;
  opts.num_servers = 2;
  opts.block_size = 512;
  opts.max_concurrent_jobs = 2;
  std::vector<mr::JobHandle> handles;
  {
    mr::Cluster cluster(opts);
    ASSERT_TRUE(cluster.dfs().Upload("corpus", MakeText(71)).ok());
    for (int i = 0; i < 6; ++i) {
      handles.push_back(cluster.Submit(apps::WordCountJob('j' + std::to_string(i), "corpus")));
    }
    // Cluster (and its JobQueue) destroyed here with most jobs pending.
  }
  for (auto& h : handles) {
    EXPECT_TRUE(h.done()) << "queue shutdown left an unresolved job";
  }
}

// Per-user weighted sharing end to end: two users' jobs run concurrently
// and both finish correctly with per-user accounting drained to zero.
TEST(JobQueue, PerUserJobsShareCluster) {
  mr::ClusterOptions opts;
  opts.num_servers = 4;
  opts.block_size = 1_KiB;
  opts.user_weights = {{"alice", 2.0}, {"bob", 1.0}};
  mr::Cluster cluster(opts);
  std::string text_a = MakeText(81);
  std::string text_b = MakeText(82);
  ASSERT_TRUE(cluster.dfs().Upload("a", text_a).ok());
  ASSERT_TRUE(cluster.dfs().Upload("b", text_b).ok());

  mr::JobSpec ja = apps::WordCountJob("wc", "a");
  ja.user = "alice";
  mr::JobSpec jb = apps::WordCountJob("wc", "b");
  jb.user = "bob";
  mr::JobHandle ha = cluster.Submit(std::move(ja));
  mr::JobHandle hb = cluster.Submit(std::move(jb));
  ExpectWordCount(ha.Wait(), text_a);
  ExpectWordCount(hb.Wait(), text_b);
  EXPECT_EQ(cluster.arbiter().InUse("alice"), 0);
  EXPECT_EQ(cluster.arbiter().InUse("bob"), 0);
}

// Slots are granted per user from the arbiter's queues, not first come first
// served: a small job from a second tenant must not wait behind the first
// tenant's whole map wave. One server, so no other worker's slots can help.
TEST(JobQueue, AnotherTenantsMapWaveDoesNotHoldUpAJob) {
  mr::ClusterOptions opts;
  opts.num_servers = 1;
  opts.block_size = 512;
  opts.max_concurrent_jobs = 2;
  mr::Cluster cluster(opts);
  std::string text_a = MakeText(91, 32_KiB);
  std::string text_b = MakeText(92, 1_KiB);
  ASSERT_TRUE(cluster.dfs().Upload("a", text_a).ok());
  ASSERT_TRUE(cluster.dfs().Upload("b", text_b).ok());

  auto maps_done = std::make_shared<std::atomic<int>>(0);
  mr::JobSpec wave = apps::WordCountJob("wave", "a");
  wave.user = "alice";
  auto base_mapper = wave.mapper;
  wave.mapper = [base_mapper, maps_done] {
    class Slowed : public mr::Mapper {
     public:
      Slowed(std::unique_ptr<mr::Mapper> inner, std::shared_ptr<std::atomic<int>> done)
          : inner_(std::move(inner)), done_(std::move(done)) {}
      void Map(std::string_view record, mr::MapContext& ctx) override {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        inner_->Map(record, ctx);
      }
      void Finish(mr::MapContext& ctx) override {
        inner_->Finish(ctx);
        done_->fetch_add(1);
      }

     private:
      std::unique_ptr<mr::Mapper> inner_;
      std::shared_ptr<std::atomic<int>> done_;
    };
    return std::unique_ptr<mr::Mapper>(new Slowed(base_mapper(), maps_done));
  };
  mr::JobHandle ha = cluster.Submit(std::move(wave));
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (cluster.arbiter().InUse("alice") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(cluster.arbiter().InUse("alice"), 0) << "alice's job never started";

  mr::JobSpec small = apps::WordCountJob("small", "b");
  small.user = "bob";
  mr::JobHandle hb = cluster.Submit(std::move(small));
  mr::JobResult rb = hb.Wait();
  const int done_at_bob = maps_done->load();
  mr::JobResult ra = ha.Wait();
  ExpectWordCount(rb, text_b);
  ExpectWordCount(ra, text_a);
  EXPECT_LT(done_at_bob * 2, static_cast<int>(ra.stats.map_tasks))
      << "bob's job finished after " << done_at_bob << " of alice's " << ra.stats.map_tasks
      << " maps";
  ExpectAllSlotsFree(cluster);
}

}  // namespace
}  // namespace eclipse
