// The cluster's state is bounded by the jobs in flight, not by every job
// ever run: a finished job's private spills leave the DHT FS and its
// per-job metric series age out, so a long job stream leaves the stores
// and the registry flat. A repair restores files only, so it copies what a
// fresh cluster would copy whatever jobs ran or are running.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>

#include "apps/sort.h"
#include "apps/wordcount.h"
#include "common/rng.h"
#include "mr/cluster.h"
#include "workload/generators.h"

namespace eclipse {
namespace {

std::string MakeText(std::uint64_t seed, Bytes bytes) {
  Rng rng(seed);
  workload::TextOptions topts;
  topts.target_bytes = bytes;
  topts.vocabulary = 40;
  return workload::GenerateText(rng, topts);
}

/// What a job stream could leave behind: objects and bytes in the live
/// servers' BlockStores, and series in the metric registry.
struct StateSize {
  std::size_t objects = 0;
  Bytes bytes = 0;
  std::size_t series = 0;
};

StateSize Measure(mr::Cluster& cluster) {
  StateSize s;
  for (int id : cluster.WorkerIds()) {
    const dfs::BlockStore& store = cluster.worker(id).dfs_node().blocks();
    s.objects += store.Count();
    s.bytes += store.TotalBytes();
  }
  s.series = cluster.metrics().SeriesCount();
  return s;
}

TEST(BoundedState, TenThousandJobsLeaveTheStoresAndRegistryFlat) {
  mr::ClusterOptions opts;
  opts.num_servers = 4;
  opts.block_size = 1_KiB;
  mr::Cluster cluster(opts);
  const std::string text = MakeText(3, 1800);
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());
  ASSERT_EQ(cluster.dfs().GetMetadata("corpus").value().num_blocks, 2u);
  const mr::JobSpec spec = apps::WordCountJob("soak", "corpus");

  constexpr int kJobs = 10'000;
  constexpr int kWarmup = 100;
  StateSize warm;
  for (int n = 1; n <= kJobs; ++n) {
    const mr::JobResult r = cluster.Run(spec);
    ASSERT_TRUE(r.status.ok()) << "job " << n << ": " << r.status.ToString();
    if (n == kWarmup) warm = Measure(cluster);
    if (n % 1000 != 0) continue;
    const StateSize now = Measure(cluster);
    EXPECT_EQ(now.objects, warm.objects) << "after " << n << " jobs";
    EXPECT_EQ(now.bytes, warm.bytes) << "after " << n << " jobs";
    EXPECT_EQ(now.series, warm.series) << "after " << n << " jobs";
  }
}

TEST(BoundedState, RepairAfterJobsCopiesWhatAFreshClusterCopies) {
  mr::ClusterOptions opts;
  opts.num_servers = 4;
  opts.block_size = 512;
  const std::string text = MakeText(5, 8_KiB);
  mr::Cluster fresh(opts);
  mr::Cluster used(opts);
  mr::Cluster tagged(opts);
  ASSERT_TRUE(fresh.dfs().Upload("corpus", text).ok());
  ASSERT_TRUE(used.dfs().Upload("corpus", text).ok());
  ASSERT_TRUE(tagged.dfs().Upload("corpus", text).ok());
  for (int n = 0; n < 20; ++n) {
    mr::JobSpec spec = apps::WordCountJob("scratch", "corpus");
    spec.spill_threshold = 256;  // many spills per job
    const mr::JobResult r = used.Run(spec);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_GT(r.stats.spills, 0u);
  }
  // Tagged jobs keep their spills and manifests for reuse (§II-C).
  for (mr::JobSpec spec : {apps::WordCountJob("wc", "corpus"), apps::SortJob("sort", "corpus")}) {
    spec.intermediate_tag = "keep-" + spec.name;
    spec.spill_threshold = 256;
    const mr::JobResult r = tagged.Run(spec);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  }
  ASSERT_GT(Measure(tagged).objects, Measure(fresh).objects) << "no objects left to copy";

  constexpr int kVictim = 1;
  const dfs::RecoveryReport after_nothing = fresh.KillServer(kVictim);
  const dfs::RecoveryReport after_jobs = used.KillServer(kVictim);
  const dfs::RecoveryReport after_tagged = tagged.KillServer(kVictim);
  EXPECT_GT(after_nothing.blocks_copied, 0u);
  EXPECT_EQ(after_jobs.blocks_copied, after_nothing.blocks_copied)
      << "the repair copied finished jobs' spills";
  EXPECT_EQ(after_jobs.blocks_lost, 0u);
  EXPECT_EQ(after_tagged.blocks_copied, after_nothing.blocks_copied)
      << "the repair copied tagged spills or manifests";
  EXPECT_EQ(after_tagged.blocks_lost, 0u);
}

/// Holds every reduce call until Open(), so a test can act while a job's
/// reduces run and every spill of the job still exists.
class ReduceGate {
 public:
  void Enter() {
    std::unique_lock lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  bool WaitEntered(std::chrono::seconds budget) {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, budget, [this] { return entered_; });
  }
  void Open() {
    std::lock_guard lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool open_ = false;
};

class GatedReducer : public mr::Reducer {
 public:
  GatedReducer(ReduceGate& gate, std::unique_ptr<mr::Reducer> inner)
      : gate_(gate), inner_(std::move(inner)) {}
  void Reduce(std::string_view key, const std::vector<std::string_view>& values,
              mr::ReduceContext& ctx) override {
    gate_.Enter();
    inner_->Reduce(key, values, ctx);
  }

 private:
  ReduceGate& gate_;
  std::unique_ptr<mr::Reducer> inner_;
};

TEST(BoundedState, RepairDuringAJobCopiesWhatAFreshClusterCopies) {
  mr::ClusterOptions opts;
  opts.num_servers = 4;
  opts.block_size = 512;
  const std::string text = MakeText(6, 8_KiB);
  mr::Cluster fresh(opts);
  mr::Cluster busy(opts);
  ASSERT_TRUE(fresh.dfs().Upload("corpus", text).ok());
  ASSERT_TRUE(busy.dfs().Upload("corpus", text).ok());

  ReduceGate gate;
  mr::JobSpec spec = apps::WordCountJob("inflight", "corpus");
  spec.spill_threshold = 256;  // many spills per job
  spec.reducer = [&gate, inner = spec.reducer] {
    return std::make_unique<GatedReducer>(gate, inner());
  };
  mr::JobHandle handle = busy.Submit(spec);
  const bool entered = gate.WaitEntered(std::chrono::seconds(60));
  constexpr int kVictim = 1;
  const dfs::RecoveryReport during_job = entered ? busy.KillServer(kVictim)
                                                 : dfs::RecoveryReport{};
  gate.Open();
  const mr::JobResult result = handle.Wait();
  ASSERT_TRUE(entered) << "no reduce started";

  const dfs::RecoveryReport after_nothing = fresh.KillServer(kVictim);
  EXPECT_GT(after_nothing.blocks_copied, 0u);
  EXPECT_EQ(during_job.blocks_copied, after_nothing.blocks_copied)
      << "the repair copied the running job's spills";
  EXPECT_EQ(during_job.blocks_lost, 0u);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  const auto expected = apps::WordCountSerial(text);
  ASSERT_EQ(result.output.size(), expected.size());
  for (const auto& kv : result.output) {
    EXPECT_EQ(kv.value, std::to_string(expected.at(kv.key))) << kv.key;
  }
}

}  // namespace
}  // namespace eclipse
