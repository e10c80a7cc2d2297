// The cluster's state is bounded by the jobs in flight, not by every job
// ever run: a finished job's private spills leave the DHT FS and its
// per-job metric series age out, so a long job stream leaves the stores
// and the registry flat, and a repair copies only what a fresh cluster
// would copy.
#include <gtest/gtest.h>

#include <string>

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
  ASSERT_TRUE(fresh.dfs().Upload("corpus", text).ok());
  ASSERT_TRUE(used.dfs().Upload("corpus", text).ok());
  for (int n = 0; n < 20; ++n) {
    mr::JobSpec spec = apps::WordCountJob("scratch", "corpus");
    spec.spill_threshold = 256;  // many spills per job
    const mr::JobResult r = used.Run(spec);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_GT(r.stats.spills, 0u);
  }

  constexpr int kVictim = 1;
  const dfs::RecoveryReport after_nothing = fresh.KillServer(kVictim);
  const dfs::RecoveryReport after_jobs = used.KillServer(kVictim);
  EXPECT_GT(after_nothing.blocks_copied, 0u);
  EXPECT_EQ(after_jobs.blocks_copied, after_nothing.blocks_copied)
      << "the repair copied finished jobs' spills";
  EXPECT_EQ(after_jobs.blocks_lost, 0u);
}

}  // namespace
}  // namespace eclipse
