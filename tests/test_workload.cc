#include "workload/generators.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "apps/text_util.h"

namespace eclipse::workload {
namespace {

TEST(TextGen, DeterministicAndSized) {
  TextOptions opts;
  opts.target_bytes = 2000;
  Rng a(1), b(1);
  std::string t1 = GenerateText(a, opts);
  std::string t2 = GenerateText(b, opts);
  EXPECT_EQ(t1, t2);
  EXPECT_GE(t1.size(), opts.target_bytes);
  EXPECT_LT(t1.size(), opts.target_bytes + 200);
  EXPECT_EQ(t1.back(), '\n');
}

TEST(TextGen, ZipfSkewShowsInWordFrequencies) {
  TextOptions opts;
  opts.target_bytes = 50000;
  opts.vocabulary = 100;
  opts.zipf_s = 1.2;
  Rng rng(2);
  std::string text = GenerateText(rng, opts);
  std::map<std::string, int> freq;
  for (auto& w : apps::SplitWords(text)) ++freq[w];
  EXPECT_GT(freq["w0"], freq["w50"] * 3) << "rank-0 word must dominate";
}

TEST(DocumentsGen, WellFormed) {
  TextOptions opts;
  Rng rng(3);
  std::string docs = GenerateDocuments(rng, 10, 5, opts);
  auto lines = apps::Split(docs, '\n');
  ASSERT_EQ(lines.size(), 10u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].rfind("doc" + std::to_string(i) + "\t", 0), 0u);
    EXPECT_EQ(apps::SplitWords(lines[i].substr(lines[i].find('\t') + 1)).size(), 5u);
  }
}

TEST(PointsGen, DimsAndClusterCenters) {
  PointsOptions opts;
  opts.num_points = 50;
  opts.dims = 3;
  opts.clusters = 2;
  Rng rng(4);
  std::vector<std::vector<double>> centers;
  std::string csv = GeneratePoints(rng, opts, &centers);
  EXPECT_EQ(centers.size(), 2u);
  auto lines = apps::Split(csv, '\n');
  ASSERT_EQ(lines.size(), 50u);
  for (const auto& line : lines) {
    EXPECT_EQ(apps::ParseDoubles(line).size(), 3u);
  }
}

TEST(LabeledGen, LabelsMatchGroundTruthMostly) {
  Rng rng(5);
  std::vector<double> w;
  std::string data = GenerateLabeledPoints(rng, 300, 2, &w);
  ASSERT_EQ(w.size(), 3u);
  int agree = 0, total = 0;
  for (const auto& line : apps::Split(data, '\n')) {
    auto vals = apps::ParseDoubles(line, ' ');
    if (vals.size() != 3) continue;
    double z = w[0] + w[1] * vals[1] + w[2] * vals[2];
    agree += ((z > 0) == (vals[0] > 0.5)) ? 1 : 0;
    ++total;
  }
  EXPECT_GT(static_cast<double>(agree) / total, 0.9);
}

TEST(GraphGen, OneLinePerNodeNoSelfLoops) {
  GraphOptions opts;
  opts.num_nodes = 30;
  opts.edges_per_node = 3;
  Rng rng(6);
  std::string graph = GenerateGraph(rng, opts);
  auto lines = apps::Split(graph, '\n');
  ASSERT_EQ(lines.size(), 30u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    auto fields = apps::SplitWords(lines[i]);
    ASSERT_FALSE(fields.empty());
    EXPECT_EQ(fields[0], 'n' + std::to_string(i));
    std::set<std::string> targets(fields.begin() + 1, fields.end());
    EXPECT_EQ(targets.size(), fields.size() - 1) << "duplicate out-edges";
    EXPECT_EQ(targets.count(fields[0]), 0u) << "self loop";
  }
}

TEST(GraphGen, PreferentialAttachmentSkewsInDegree) {
  GraphOptions opts;
  opts.num_nodes = 200;
  opts.edges_per_node = 4;
  Rng rng(7);
  std::string graph = GenerateGraph(rng, opts);
  std::map<std::string, int> in_degree;
  for (const auto& line : apps::Split(graph, '\n')) {
    auto fields = apps::SplitWords(line);
    for (std::size_t i = 1; i < fields.size(); ++i) ++in_degree[fields[i]];
  }
  int max_in = 0;
  double total = 0;
  for (const auto& [node, d] : in_degree) {
    max_in = std::max(max_in, d);
    total += d;
  }
  double mean = total / static_cast<double>(opts.num_nodes);
  EXPECT_GT(max_in, 3 * mean) << "power-law graphs have hubs";
}

TEST(TraceGen, UniformCoversBlocks) {
  TraceOptions opts;
  opts.shape = TraceShape::kUniform;
  opts.num_blocks = 50;
  opts.length = 5000;
  Rng rng(8);
  auto trace = GenerateTrace(rng, opts);
  ASSERT_EQ(trace.size(), 5000u);
  std::set<std::uint32_t> seen(trace.begin(), trace.end());
  EXPECT_GT(seen.size(), 45u);
  for (auto b : trace) EXPECT_LT(b, 50u);
}

TEST(TraceGen, ZipfConcentratesOnLowRanks) {
  TraceOptions opts;
  opts.shape = TraceShape::kZipf;
  opts.num_blocks = 100;
  opts.length = 10000;
  opts.zipf_s = 1.2;
  Rng rng(9);
  auto trace = GenerateTrace(rng, opts);
  std::map<std::uint32_t, int> freq;
  for (auto b : trace) ++freq[b];
  EXPECT_GT(freq[0], freq.count(70) ? freq[70] * 3 : 100);
}

TEST(TraceGen, TwoNormalsIsBimodalInKeySpace) {
  TraceOptions opts;
  opts.shape = TraceShape::kTwoNormals;
  opts.num_blocks = 1000;
  opts.length = 20000;
  opts.mean1 = 0.25;
  opts.mean2 = 0.75;
  opts.stddev1 = opts.stddev2 = 0.03;
  Rng rng(10);
  auto trace = GenerateTrace(rng, opts);

  // Map accesses into key-space deciles via each block's hash key fraction.
  std::vector<int> decile_counts(10, 0);
  for (auto b : trace) {
    double frac = static_cast<double>(TraceBlockKey(b)) / 18446744073709551616.0;
    ++decile_counts[static_cast<std::size_t>(frac * 10)];
  }
  // Deciles 2 and 7 should dominate deciles 0 and 5.
  EXPECT_GT(decile_counts[2], decile_counts[5] * 3);
  EXPECT_GT(decile_counts[7], decile_counts[5] * 3);
  EXPECT_GT(decile_counts[2], decile_counts[0] * 3);
}

}  // namespace
}  // namespace eclipse::workload
