// Concurrency hardening: several jobs running simultaneously on one
// emulated cluster (the paper's Fig. 8 scenario, for real), concurrent DFS
// clients, and scheduler thread safety under parallel Assign streams.
#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "apps/grep.h"
#include "apps/kmeans.h"
#include "apps/wordcount.h"
#include "mr/cluster.h"
#include "mr/iterative.h"
#include "workload/generators.h"

namespace eclipse::mr {
namespace {

ClusterOptions Opts(int servers = 6) {
  ClusterOptions opts;
  opts.num_servers = servers;
  opts.block_size = 512;
  opts.cache_capacity = 8_MiB;
  opts.map_slots = 2;
  opts.reduce_slots = 2;
  return opts;
}

TEST(Concurrent, ParallelJobsShareOneCluster) {
  Cluster cluster(Opts());
  Rng rng(1);
  workload::TextOptions topts;
  topts.target_bytes = 8000;
  topts.vocabulary = 60;
  std::string shared_text = workload::GenerateText(rng, topts);
  std::string other_text = workload::GenerateText(rng, topts);
  ASSERT_TRUE(cluster.dfs().Upload("shared", shared_text).ok());
  ASSERT_TRUE(cluster.dfs().Upload("other", other_text).ok());

  // Fig. 8 in miniature: grep + word count over the shared input, word
  // count over another, all at once from separate driver threads.
  auto grep_fut = std::async(std::launch::async, [&] {
    return cluster.Run(apps::GrepJob("g1", "shared", "w1 "));
  });
  auto wc_shared_fut = std::async(std::launch::async, [&] {
    return cluster.Run(apps::WordCountJob("w1", "shared"));
  });
  auto wc_other_fut = std::async(std::launch::async, [&] {
    return cluster.Run(apps::WordCountJob("w2", "other"));
  });

  JobResult grep = grep_fut.get();
  JobResult wc_shared = wc_shared_fut.get();
  JobResult wc_other = wc_other_fut.get();
  ASSERT_TRUE(grep.status.ok()) << grep.status.ToString();
  ASSERT_TRUE(wc_shared.status.ok()) << wc_shared.status.ToString();
  ASSERT_TRUE(wc_other.status.ok()) << wc_other.status.ToString();

  // Each result matches its serial oracle despite interleaving.
  auto grep_expected = apps::GrepSerial(shared_text, "w1 ");
  ASSERT_EQ(grep.output.size(), grep_expected.size());
  auto wc1_expected = apps::WordCountSerial(shared_text);
  ASSERT_EQ(wc_shared.output.size(), wc1_expected.size());
  for (const auto& kv : wc_shared.output) {
    EXPECT_EQ(kv.value, std::to_string(wc1_expected.at(kv.key)));
  }
  auto wc2_expected = apps::WordCountSerial(other_text);
  ASSERT_EQ(wc_other.output.size(), wc2_expected.size());
}

TEST(Concurrent, RepeatedParallelRoundsAreDeterministicPerJob) {
  Cluster cluster(Opts(4));
  Rng rng(2);
  workload::TextOptions topts;
  topts.target_bytes = 4000;
  std::string text = workload::GenerateText(rng, topts);
  ASSERT_TRUE(cluster.dfs().Upload("t", text).ok());

  std::vector<KV> reference;
  for (int round = 0; round < 3; ++round) {
    auto a = std::async(std::launch::async, [&, round] {
      return cluster.Run(apps::WordCountJob('a' + std::to_string(round), "t"));
    });
    auto b = std::async(std::launch::async, [&, round] {
      return cluster.Run(apps::WordCountJob('b' + std::to_string(round), "t"));
    });
    JobResult ra = a.get(), rb = b.get();
    ASSERT_TRUE(ra.status.ok());
    ASSERT_TRUE(rb.status.ok());
    EXPECT_EQ(ra.output, rb.output);
    if (round == 0) {
      reference = ra.output;
    } else {
      EXPECT_EQ(ra.output, reference) << "round " << round;
    }
  }
}

TEST(Concurrent, ParallelUploadsAndReads) {
  Cluster cluster(Opts(5));
  constexpr int kFiles = 12;
  std::vector<std::string> contents(kFiles);
  std::vector<std::thread> writers;
  for (int i = 0; i < kFiles; ++i) {
    Rng rng(static_cast<std::uint64_t>(i) + 100);
    std::string content;
    for (int l = 0; l < 50; ++l) content += 'f' + std::to_string(i) + "-" + std::to_string(rng.Next()) + "\n";
    contents[static_cast<std::size_t>(i)] = content;
    writers.emplace_back([&cluster, i, content] {
      EXPECT_TRUE(cluster.dfs().Upload("file-" + std::to_string(i), content).ok());
    });
  }
  for (auto& t : writers) t.join();

  std::vector<std::thread> readers;
  for (int i = 0; i < kFiles; ++i) {
    readers.emplace_back([&cluster, &contents, i] {
      auto back = cluster.dfs().ReadFile("file-" + std::to_string(i));
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(back.value(), contents[static_cast<std::size_t>(i)]);
    });
  }
  for (auto& t : readers) t.join();
}

TEST(Concurrent, IterativeAndBatchSideBySide) {
  Cluster cluster(Opts());
  Rng rng(3);
  workload::PointsOptions popts;
  popts.num_points = 400;
  std::string points = workload::GeneratePoints(rng, popts);
  workload::TextOptions topts;
  topts.target_bytes = 4000;
  std::string text = workload::GenerateText(rng, topts);
  ASSERT_TRUE(cluster.dfs().Upload("pts", points).ok());
  ASSERT_TRUE(cluster.dfs().Upload("txt", text).ok());

  auto km = std::async(std::launch::async, [&] {
    IterativeDriver driver(cluster);
    return driver.Run(apps::KMeansIterations("km", "pts", {{10, 10}, {80, 80}}, 3));
  });
  auto wc = std::async(std::launch::async, [&] {
    return cluster.Run(apps::WordCountJob("wc", "txt"));
  });
  auto km_result = km.get();
  auto wc_result = wc.get();
  ASSERT_TRUE(km_result.status.ok());
  ASSERT_TRUE(wc_result.status.ok());
  EXPECT_EQ(km_result.iterations_run, 3);
  EXPECT_EQ(wc_result.output.size(), apps::WordCountSerial(text).size());
}

}  // namespace
}  // namespace eclipse::mr
