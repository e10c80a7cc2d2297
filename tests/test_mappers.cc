// Unit tests for every application's Mapper/Reducer against fake contexts —
// the emission-level contracts the engine integration tests build on.
#include <gtest/gtest.h>

#include <map>

#include "apps/grep.h"
#include "apps/inverted_index.h"
#include "apps/kmeans.h"
#include "apps/logreg.h"
#include "apps/pagerank.h"
#include "apps/sort.h"
#include "apps/text_util.h"
#include "apps/wordcount.h"
#include "common/rng.h"
#include "common/units.h"
#include "workload/generators.h"

namespace eclipse::apps {
namespace {

class FakeMapContext : public mr::MapContext {
 public:
  explicit FakeMapContext(std::string state = {}) : state_(std::move(state)) {}
  void Emit(std::string_view key, std::string_view value) override {
    emitted.push_back({std::string(key), std::string(value)});
  }
  const std::string& shared_state() const override { return state_; }
  std::vector<mr::KV> emitted;

 private:
  std::string state_;
};

class FakeReduceContext : public mr::ReduceContext {
 public:
  void Emit(std::string_view key, std::string_view value) override {
    emitted.push_back({std::string(key), std::string(value)});
  }
  std::vector<mr::KV> emitted;
};

TEST(WordCountMapper_, CombinesInMapperAndEmitsOnFinish) {
  WordCountMapper m;
  FakeMapContext ctx;
  m.Map("a b a", ctx);
  m.Map("b a", ctx);
  EXPECT_TRUE(ctx.emitted.empty()) << "in-mapper combining defers emission";
  m.Finish(ctx);
  std::map<std::string, std::string> got;
  for (auto& kv : ctx.emitted) got[kv.key] = kv.value;
  EXPECT_EQ(got["a"], "3");
  EXPECT_EQ(got["b"], "2");
  // A second block through the same instance starts fresh.
  m.Map("z", ctx);
  ctx.emitted.clear();
  m.Finish(ctx);
  ASSERT_EQ(ctx.emitted.size(), 1u);
  EXPECT_EQ(ctx.emitted[0].key, "z");
  EXPECT_EQ(ctx.emitted[0].value, "1");
}

// Feed `text` to `m` one line per record, Finish, and return the counts,
// failing if any word is emitted more than once.
std::map<std::string, std::uint64_t> CombineBlock(WordCountMapper& m, const std::string& text) {
  FakeMapContext ctx;
  for (const std::string& line : Split(text, '\n')) m.Map(line, ctx);
  m.Finish(ctx);
  std::map<std::string, std::uint64_t> counts;
  for (const mr::KV& kv : ctx.emitted) {
    EXPECT_TRUE(counts.emplace(kv.key, ParseU64(kv.value)).second)
        << "word '" << kv.key << "' emitted twice by one Finish";
  }
  return counts;
}

TEST(WordCountMapper_, GrowsPastItsInitialTable) {
  // 5 000 distinct words, far more than the table's initial slots: the
  // table doubles and rehashes while the block is mapped.
  std::string text;
  std::map<std::string, std::uint64_t> expect;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5000; ++i) {
      if (i % 3 < round) continue;
      const std::string word = 'w' + std::to_string(i);
      text += word;
      text += (i % 8 == 7) ? '\n' : ' ';
      ++expect[word];
    }
    text += '\n';
  }
  WordCountMapper m;
  EXPECT_EQ(CombineBlock(m, text), expect);
}

TEST(WordCountMapper_, MatchesSerialCountsOnZipfBlocks) {
  Rng rng(29);
  workload::TextOptions opts;
  opts.target_bytes = 64_KiB;
  opts.vocabulary = 4000;
  // Two blocks through one instance: the second block's counts start from
  // zero, in a table that grew during the first.
  WordCountMapper m;
  for (int block = 0; block < 2; ++block) {
    const std::string text = workload::GenerateText(rng, opts);
    const auto serial = WordCountSerial(text);
    ASSERT_GT(serial.size(), 1000u) << "too few distinct words to grow the table";
    EXPECT_EQ(CombineBlock(m, text), serial) << "block " << block;
  }
}

TEST(WordCountReducer_, SumsPartials) {
  WordCountReducer r;
  FakeReduceContext ctx;
  r.Reduce("word", {"3", "4", "10"}, ctx);
  ASSERT_EQ(ctx.emitted.size(), 1u);
  EXPECT_EQ(ctx.emitted[0].value, "17");
}

TEST(GrepMapper_, PatternComesFromSharedState) {
  GrepMapper m;
  FakeMapContext ctx("needle");
  m.Map("hay needle stack", ctx);
  m.Map("just hay", ctx);
  ASSERT_EQ(ctx.emitted.size(), 1u);
  EXPECT_EQ(ctx.emitted[0].key, "hay needle stack");
  EXPECT_EQ(ctx.emitted[0].value, "1");
}

TEST(InvertedIndexMapper_, EmitsDocPerWordAndSkipsMalformed) {
  InvertedIndexMapper m;
  FakeMapContext ctx;
  m.Map("doc7\tfoo bar foo", ctx);
  m.Map("no tab here", ctx);  // malformed: ignored
  ASSERT_EQ(ctx.emitted.size(), 3u);
  for (auto& kv : ctx.emitted) EXPECT_EQ(kv.value, "doc7");
}

TEST(InvertedIndexReducer_, DedupsAndSortsPostings) {
  InvertedIndexReducer r;
  FakeReduceContext ctx;
  r.Reduce("foo", {"d2", "d1", "d2", "d1", "d3"}, ctx);
  ASSERT_EQ(ctx.emitted.size(), 1u);
  EXPECT_EQ(ctx.emitted[0].value, "d1 d2 d3");
}

TEST(SortMapper_, SplitsFirstField) {
  SortMapper m;
  FakeMapContext ctx;
  m.Map("key1 rest of line", ctx);
  m.Map("lonely", ctx);
  ASSERT_EQ(ctx.emitted.size(), 2u);
  EXPECT_EQ(ctx.emitted[0].key, "key1");
  EXPECT_EQ(ctx.emitted[0].value, "rest of line");
  EXPECT_EQ(ctx.emitted[1].key, "lonely");
  EXPECT_EQ(ctx.emitted[1].value, "");
}

TEST(KMeansMapper_, EmitsPerClusterPartialSums) {
  KMeansMapper m;
  FakeMapContext ctx(EncodeCentroids({{0.0, 0.0}, {10.0, 10.0}}));
  m.Map("1,1", ctx);
  m.Map("2,0", ctx);
  m.Map("9,9", ctx);
  m.Finish(ctx);
  ASSERT_EQ(ctx.emitted.size(), 2u);
  std::map<std::string, std::string> got;
  for (auto& kv : ctx.emitted) got[kv.key] = kv.value;
  // Cluster 0: 2 points summing (3,1); cluster 1: 1 point (9,9).
  EXPECT_EQ(got["c0"].substr(0, 2), "2|");
  EXPECT_EQ(got["c1"].substr(0, 2), "1|");
  auto sums0 = ParseDoubles(std::string_view(got["c0"]).substr(2));
  EXPECT_DOUBLE_EQ(sums0[0], 3.0);
  EXPECT_DOUBLE_EQ(sums0[1], 1.0);
}

TEST(KMeansReducer_, AveragesPartials) {
  KMeansReducer r;
  FakeReduceContext ctx;
  r.Reduce("c0", {"2|4,6", "2|0,2"}, ctx);
  ASSERT_EQ(ctx.emitted.size(), 1u);
  auto centroid = ParseDoubles(ctx.emitted[0].value);
  EXPECT_DOUBLE_EQ(centroid[0], 1.0);  // (4+0)/4
  EXPECT_DOUBLE_EQ(centroid[1], 2.0);  // (6+2)/4
}

TEST(PageRankMapper_, EmitsSharesAndSelfMarker) {
  PageRankState state;
  state.num_nodes = 4;
  state.ranks["a"] = 0.4;
  PageRankMapper m;
  FakeMapContext ctx(EncodePageRankState(state));
  m.Map("a b c", ctx);
  ASSERT_EQ(ctx.emitted.size(), 3u);
  EXPECT_EQ(ctx.emitted[0].key, "a");
  EXPECT_EQ(ctx.emitted[0].value, "N=4");
  EXPECT_EQ(ctx.emitted[1].key, "b");
  EXPECT_DOUBLE_EQ(std::stod(ctx.emitted[1].value), 0.2);  // 0.4 / 2 out-links
  EXPECT_EQ(ctx.emitted[2].key, "c");
}

TEST(PageRankReducer_, AppliesDamping) {
  PageRankReducer r;
  FakeReduceContext ctx;
  r.Reduce("x", {"N=4", "0.2", "0.1"}, ctx);
  ASSERT_EQ(ctx.emitted.size(), 1u);
  double rank = std::stod(ctx.emitted[0].value);
  EXPECT_NEAR(rank, 0.15 / 4 + 0.85 * 0.3, 1e-12);
}

TEST(LogRegMapper_, EmitsOneGradientPartialPerBlock) {
  LogRegMapper m;
  FakeMapContext ctx(JoinDoubles({0.0, 0.0}));  // bias + 1 weight
  m.Map("1 2.0", ctx);
  m.Map("0 -2.0", ctx);
  m.Finish(ctx);
  ASSERT_EQ(ctx.emitted.size(), 1u);
  EXPECT_EQ(ctx.emitted[0].key, "grad");
  EXPECT_EQ(ctx.emitted[0].value.substr(0, 2), "2|");
  // Symmetric points at zero weights: bias gradient cancels, w1 gradient
  // is -0.5*2 + 0.5*(-2)... (sigmoid(0)-1)*2 + (sigmoid(0)-0)*(-2) = -2.
  auto grad = ParseDoubles(std::string_view(ctx.emitted[0].value).substr(2));
  EXPECT_NEAR(grad[0], 0.0, 1e-12);
  EXPECT_NEAR(grad[1], -2.0, 1e-12);
}

TEST(LogRegReducer_, SumsCountsAndVectors) {
  LogRegReducer r;
  FakeReduceContext ctx;
  r.Reduce("grad", {"3|1,2", "2|3,4"}, ctx);
  ASSERT_EQ(ctx.emitted.size(), 1u);
  EXPECT_EQ(ctx.emitted[0].value.substr(0, 2), "5|");
  auto sum = ParseDoubles(std::string_view(ctx.emitted[0].value).substr(2));
  EXPECT_DOUBLE_EQ(sum[0], 4.0);
  EXPECT_DOUBLE_EQ(sum[1], 6.0);
}

}  // namespace
}  // namespace eclipse::apps
