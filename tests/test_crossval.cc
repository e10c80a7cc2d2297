// Cross-validation between the real engine and the cluster simulator: both
// drive the SAME LafScheduler/LruCache code, so on the same workload shape
// their caching behaviour must agree qualitatively — this pins the
// simulator (which regenerates the paper's figures) to the executable truth.
#include <gtest/gtest.h>

#include "apps/grep.h"
#include "mr/cluster.h"
#include "sim/eclipse_sim.h"
#include "workload/generators.h"

namespace eclipse {
namespace {

struct CrossSetup {
  static constexpr int kServers = 6;
  static constexpr std::uint32_t kBlocks = 48;
};

TEST(CrossValidation, WarmHitRatiosAgree) {
  // Engine: a 48-block file, grep run twice; everything fits in cache.
  mr::ClusterOptions opts;
  opts.num_servers = CrossSetup::kServers;
  opts.block_size = 200;
  opts.cache_capacity = 1_MiB;
  opts.map_slots = 1;  // sequential per server: deterministic access order
  mr::Cluster cluster(opts);

  std::string text;
  {
    Rng rng(4);
    workload::TextOptions topts;
    topts.target_bytes = 200 * CrossSetup::kBlocks - 50;
    text = workload::GenerateText(rng, topts);
    text.resize(200 * CrossSetup::kBlocks - 50);
  }
  ASSERT_TRUE(cluster.dfs().Upload("data", text).ok());
  ASSERT_TRUE(cluster.Run(apps::GrepJob("g1", "data", "w1")).status.ok());
  auto warm = cluster.Run(apps::GrepJob("g2", "data", "w1"));
  ASSERT_TRUE(warm.status.ok());
  double engine_ratio = warm.stats.InputHitRatio();

  // Simulator: same server count, same per-server LAF policy, ample cache,
  // one scan then a second.
  sim::SimConfig cfg;
  cfg.num_nodes = CrossSetup::kServers;
  cfg.cache_per_node = 64_GiB;
  sim::EclipseSim sim(cfg, mr::SchedulerKind::kLaf);
  sim::SimJobSpec job;
  job.app = sim::GrepProfile();
  job.dataset = "data";
  job.num_blocks = CrossSetup::kBlocks;
  sim.RunJob(job);
  auto sim_warm = sim.RunJob(job);
  double sim_ratio = sim_warm.HitRatio();

  // Both substantial (same-key-same-server locality) and near-identical —
  // they execute the same LafScheduler and LruCache code over the same key
  // stream, so only engine-side parallelism can perturb the ratio.
  EXPECT_GT(engine_ratio, 0.3);
  EXPECT_GT(sim_ratio, 0.3);
  EXPECT_NEAR(engine_ratio, sim_ratio, 0.1)
      << "engine " << engine_ratio << " vs sim " << sim_ratio;
}

TEST(CrossValidation, ZeroCacheAgreesAtZero) {
  mr::ClusterOptions opts;
  opts.num_servers = 4;
  opts.block_size = 200;
  opts.cache_capacity = 0;
  mr::Cluster cluster(opts);
  Rng rng(5);
  workload::TextOptions topts;
  topts.target_bytes = 4000;
  ASSERT_TRUE(cluster.dfs().Upload("d", workload::GenerateText(rng, topts)).ok());
  cluster.Run(apps::GrepJob("g1", "d", "w1"));
  auto warm = cluster.Run(apps::GrepJob("g2", "d", "w1"));
  ASSERT_TRUE(warm.status.ok());
  EXPECT_EQ(warm.stats.icache_hits, 0u);

  sim::SimConfig cfg;
  cfg.num_nodes = 4;
  cfg.cache_per_node = 0;
  sim::EclipseSim sim(cfg, mr::SchedulerKind::kLaf);
  sim::SimJobSpec job;
  job.app = sim::GrepProfile();
  job.dataset = 'd';
  job.num_blocks = 20;
  sim.RunJob(job);
  EXPECT_EQ(sim.RunJob(job).cache_hits, 0u);
}

TEST(CrossValidation, SchedulerDecisionsIdenticalForSameStream) {
  // The strongest form: two LafScheduler instances (one as the engine would
  // configure it, one as the simulator does) fed the same key stream must
  // make identical placements — they are literally the same code and state.
  dht::Ring ring;
  for (int i = 0; i < CrossSetup::kServers; ++i) ring.AddServer(i);
  sched::LafOptions laf;
  sched::LafScheduler a(ring.Servers(), ring.MakeRangeTable(), laf);
  sched::LafScheduler b(ring.Servers(), ring.MakeRangeTable(), laf);

  Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    HashKey k = rng.Next();
    ASSERT_EQ(a.Assign(k), b.Assign(k)) << "step " << i;
  }
  EXPECT_EQ(a.repartitions(), b.repartitions());
  EXPECT_EQ(a.assigned_counts(), b.assigned_counts());
}

}  // namespace
}  // namespace eclipse
