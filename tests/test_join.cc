// Dynamic cluster growth: Cluster::AddServer places a newcomer on the ring,
// rebalances block/metadata ownership to it, retires ex-replica copies, and
// the grown cluster keeps serving reads and jobs.
#include <gtest/gtest.h>

#include <set>

#include "apps/wordcount.h"
#include "mr/cluster.h"
#include "workload/generators.h"

namespace eclipse::mr {
namespace {

ClusterOptions BaseOptions(int servers) {
  ClusterOptions opts;
  opts.num_servers = servers;
  opts.block_size = 200;
  opts.cache_capacity = 1_MiB;
  return opts;
}

std::string SomeText(Bytes bytes = 6000) {
  Rng rng(55);
  workload::TextOptions topts;
  topts.target_bytes = bytes;
  return workload::GenerateText(rng, topts);
}

TEST(Join, NewServerTakesOverItsRanges) {
  Cluster cluster(BaseOptions(4));
  std::string text = SomeText();
  ASSERT_TRUE(cluster.dfs().Upload("f", text).ok());

  dfs::RecoveryReport report;
  int id = cluster.AddServer(&report);
  EXPECT_EQ(id, 4);
  EXPECT_EQ(cluster.ring().size(), 5u);

  // The newcomer owns some keys (5 servers, canonical positions) and must
  // hold every block whose replica set includes it.
  auto meta = cluster.dfs().GetMetadata("f").value();
  dht::Ring ring = cluster.ring();
  std::size_t newcomer_blocks = 0;
  for (std::uint64_t b = 0; b < meta.num_blocks; ++b) {
    auto replicas = ring.Replicas(meta.KeyOfBlock(b), 3);
    bool mine = std::find(replicas.begin(), replicas.end(), id) != replicas.end();
    std::string block_id = dfs::BlockId("f", b);
    EXPECT_EQ(cluster.worker(id).dfs_node().blocks().Contains(block_id), mine)
        << "block " << b;
    if (mine) ++newcomer_blocks;
  }
  EXPECT_GT(newcomer_blocks, 0u) << "30 blocks over 5 servers: some must move";
  EXPECT_GT(report.blocks_copied, 0u);
}

TEST(Join, ExtraneousCopiesRetired) {
  Cluster cluster(BaseOptions(4));
  std::string text = SomeText();
  ASSERT_TRUE(cluster.dfs().Upload("f", text).ok());
  cluster.AddServer();

  // After rebalance, every durable block lives on exactly its replica set.
  auto meta = cluster.dfs().GetMetadata("f").value();
  dht::Ring ring = cluster.ring();
  for (std::uint64_t b = 0; b < meta.num_blocks; ++b) {
    auto replicas = ring.Replicas(meta.KeyOfBlock(b), 3);
    std::set<int> expected(replicas.begin(), replicas.end());
    std::set<int> holders;
    std::string block_id = dfs::BlockId("f", b);
    for (int w : cluster.WorkerIds()) {
      if (cluster.worker(w).dfs_node().blocks().Contains(block_id)) holders.insert(w);
    }
    EXPECT_EQ(holders, expected) << "block " << b;
  }
}

TEST(Join, ReadAndJobAfterGrowth) {
  Cluster cluster(BaseOptions(3));
  std::string text = SomeText();
  ASSERT_TRUE(cluster.dfs().Upload("f", text).ok());
  cluster.AddServer();
  cluster.AddServer();

  auto back = cluster.dfs().ReadFile("f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), text);

  JobResult result = cluster.Run(apps::WordCountJob("wc", "f"));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.output.size(), apps::WordCountSerial(text).size());
}

TEST(Join, TaggedJobRerunAfterGrowthMatchesItsFirstRun) {
  // A join copies file blocks only: the tagged spills and manifests stay on
  // their old owners, which become the newcomers' successors, so a re-run
  // still finds them within the key's replicas or re-runs the maps.
  Cluster cluster(BaseOptions(4));
  std::string text = SomeText();
  ASSERT_TRUE(cluster.dfs().Upload("f", text).ok());
  JobSpec spec = apps::WordCountJob("wc-tagged", "f");
  spec.intermediate_tag = "join-tag";
  JobResult first = cluster.Run(spec);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();

  cluster.AddServer();
  cluster.AddServer();
  JobResult again = cluster.Run(spec);
  ASSERT_TRUE(again.status.ok()) << again.status.ToString();
  EXPECT_EQ(again.output, first.output);
}

TEST(Join, GrowThenShrinkKeepsData) {
  Cluster cluster(BaseOptions(4));
  std::string text = SomeText();
  ASSERT_TRUE(cluster.dfs().Upload("f", text).ok());

  int newcomer = cluster.AddServer();
  // Kill an ORIGINAL server: the newcomer's fresh replicas must hold.
  ASSERT_EQ(cluster.KillServer(0).blocks_lost, 0u);
  auto back = cluster.dfs().ReadFile("f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), text);

  // And the newcomer itself can die too.
  ASSERT_EQ(cluster.KillServer(newcomer).blocks_lost, 0u);
  back = cluster.dfs().ReadFile("f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), text);
}

TEST(Join, MembershipAgentsLearnOfNewcomer) {
  ClusterOptions opts = BaseOptions(3);
  opts.start_membership = true;
  opts.membership.heartbeat_interval = std::chrono::milliseconds(10);
  Cluster cluster(opts);
  int id = cluster.AddServer();

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  bool spread = false;
  while (std::chrono::steady_clock::now() < deadline && !spread) {
    spread = true;
    for (int w : {0, 1, 2}) {
      auto* agent = cluster.membership(w);
      ASSERT_NE(agent, nullptr);
      if (!agent->ring_view().Contains(id)) spread = false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(spread);
}

}  // namespace
}  // namespace eclipse::mr
