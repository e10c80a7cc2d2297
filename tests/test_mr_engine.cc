// End-to-end MapReduce correctness on the emulated cluster, checked against
// the serial reference implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>

#include "apps/grep.h"
#include "apps/inverted_index.h"
#include "apps/sort.h"
#include "apps/text_util.h"
#include "apps/wordcount.h"
#include "common/hash_key.h"
#include "mr/cluster.h"
#include "mr/shuffle.h"
#include "workload/generators.h"

namespace eclipse::mr {
namespace {

ClusterOptions SmallCluster(int servers, SchedulerKind kind = SchedulerKind::kLaf) {
  ClusterOptions opts;
  opts.num_servers = servers;
  opts.block_size = 256;          // force multi-block files
  opts.cache_capacity = 1_MiB;
  opts.scheduler = kind;
  return opts;
}

std::string SampleText() {
  Rng rng(42);
  workload::TextOptions topts;
  topts.target_bytes = 4000;
  topts.vocabulary = 50;
  return workload::GenerateText(rng, topts);
}

class WordCountGrid
    : public ::testing::TestWithParam<std::tuple<int, int, SchedulerKind>> {};

TEST_P(WordCountGrid, MatchesSerialReference) {
  auto [servers, block_size, kind] = GetParam();
  ClusterOptions opts = SmallCluster(servers, kind);
  opts.block_size = static_cast<Bytes>(block_size);
  Cluster cluster(opts);

  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  JobResult result = cluster.Run(apps::WordCountJob("wc", "corpus"));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  auto expected = apps::WordCountSerial(text);
  ASSERT_EQ(result.output.size(), expected.size());
  for (const auto& kv : result.output) {
    auto it = expected.find(kv.key);
    ASSERT_NE(it, expected.end()) << "unexpected word " << kv.key;
    EXPECT_EQ(kv.value, std::to_string(it->second)) << "count for " << kv.key;
  }
  EXPECT_EQ(result.stats.map_tasks, dfs::NumBlocks(text.size(), opts.block_size));
  EXPECT_GT(result.stats.reduce_tasks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WordCountGrid,
    ::testing::Combine(::testing::Values(1, 3, 8),
                       ::testing::Values(128, 517, 100000),
                       ::testing::Values(SchedulerKind::kLaf, SchedulerKind::kDelay)));

TEST(MrEngine, GrepMatchesSerial) {
  Cluster cluster(SmallCluster(4));
  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());
  JobResult result = cluster.Run(apps::GrepJob("grep", "corpus", "w1 "));
  ASSERT_TRUE(result.status.ok());

  auto expected = apps::GrepSerial(text, "w1 ");
  ASSERT_EQ(result.output.size(), expected.size());
  for (const auto& kv : result.output) {
    EXPECT_EQ(kv.value, std::to_string(expected.at(kv.key)));
  }
}

TEST(MrEngine, InvertedIndexMatchesSerial) {
  Cluster cluster(SmallCluster(5));
  Rng rng(7);
  workload::TextOptions topts;
  topts.vocabulary = 30;
  std::string docs = workload::GenerateDocuments(rng, 40, 12, topts);
  ASSERT_TRUE(cluster.dfs().Upload("docs", docs).ok());

  JobResult result = cluster.Run(apps::InvertedIndexJob("ii", "docs"));
  ASSERT_TRUE(result.status.ok());

  auto expected = apps::InvertedIndexSerial(docs);
  ASSERT_EQ(result.output.size(), expected.size());
  for (const auto& kv : result.output) {
    std::set<std::string> got;
    for (auto& d : apps::Split(kv.value, ' ')) got.insert(d);
    EXPECT_EQ(got, expected.at(kv.key)) << "postings for " << kv.key;
  }
}

TEST(MrEngine, SortProducesGlobalOrder) {
  Cluster cluster(SmallCluster(4));
  Rng rng(3);
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += 'k' + std::to_string(rng.Below(500)) + " payload" + std::to_string(i) + "\n";
  }
  ASSERT_TRUE(cluster.dfs().Upload("records", text).ok());

  JobResult result = cluster.Run(apps::SortJob("sort", "records"));
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.output.size(), 200u);
  for (std::size_t i = 1; i < result.output.size(); ++i) {
    EXPECT_LE(result.output[i - 1].key, result.output[i].key);
  }
}

TEST(MrEngine, MissingInputFails) {
  Cluster cluster(SmallCluster(3));
  JobResult result = cluster.Run(apps::WordCountJob("wc", "nope"));
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), ErrorCode::kNotFound);
}

TEST(MrEngine, EmptyInputYieldsEmptyOutput) {
  Cluster cluster(SmallCluster(3));
  ASSERT_TRUE(cluster.dfs().Upload("empty", "").ok());
  JobResult result = cluster.Run(apps::WordCountJob("wc", "empty"));
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.output.empty());
}

TEST(MrEngine, SecondRunHitsInputCache) {
  Cluster cluster(SmallCluster(4));
  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  JobResult cold = cluster.Run(apps::WordCountJob("wc1", "corpus"));
  ASSERT_TRUE(cold.status.ok());
  EXPECT_EQ(cold.stats.icache_hits, 0u) << "cold cache: every block misses";
  EXPECT_GT(cold.stats.icache_misses, 0u);

  JobResult warm = cluster.Run(apps::WordCountJob("wc2", "corpus"));
  ASSERT_TRUE(warm.status.ok());
  EXPECT_GT(warm.stats.icache_hits, 0u) << "same keys → same servers → hits";
}

TEST(MrEngine, TaggedIntermediatesSkipMapsOnReuse) {
  Cluster cluster(SmallCluster(4));
  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  JobSpec first = apps::WordCountJob("wc-a", "corpus");
  first.intermediate_tag = "wc-shared";
  JobResult r1 = cluster.Run(first);
  ASSERT_TRUE(r1.status.ok());
  EXPECT_EQ(r1.stats.maps_skipped, 0u);

  JobSpec second = apps::WordCountJob("wc-b", "corpus");
  second.intermediate_tag = "wc-shared";
  JobResult r2 = cluster.Run(second);
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r2.stats.maps_skipped, r2.stats.map_tasks)
      << "every map should reuse the tagged intermediates (§II-C)";

  // Identical results either way.
  ASSERT_EQ(r1.output.size(), r2.output.size());
  for (std::size_t i = 0; i < r1.output.size(); ++i) {
    EXPECT_EQ(r1.output[i], r2.output[i]);
  }
  // The first job's reduces put the tagged spills in their oCache; the
  // second job's reduces read every spill from it.
  EXPECT_EQ(r2.stats.ocache_misses, 0u);
  EXPECT_GT(r2.stats.ocache_hits, 0u);
}

TEST(MrEngine, ExpiredIntermediatesAreRecomputed) {
  Cluster cluster(SmallCluster(3));
  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  JobSpec first = apps::WordCountJob("wc-a", "corpus");
  first.intermediate_tag = "ttl-tag";
  first.intermediate_ttl = std::chrono::milliseconds(30);
  ASSERT_TRUE(cluster.Run(first).status.ok());

  std::this_thread::sleep_for(std::chrono::milliseconds(80));

  JobSpec second = apps::WordCountJob("wc-b", "corpus");
  second.intermediate_tag = "ttl-tag";
  second.intermediate_ttl = std::chrono::milliseconds(30);
  JobResult r2 = cluster.Run(second);
  ASSERT_TRUE(r2.status.ok()) << r2.status.ToString();
  // TTL invalidated the manifests: maps must re-run, results still correct.
  auto expected = apps::WordCountSerial(text);
  EXPECT_EQ(r2.output.size(), expected.size());
}

TEST(MrEngine, ProactiveSpillsPlacedReducerSide) {
  ClusterOptions opts = SmallCluster(4);
  Cluster cluster(opts);
  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  JobSpec spec = apps::WordCountJob("wc", "corpus");
  spec.spill_threshold = 64;  // many small spills while mapping
  JobResult result = cluster.Run(spec);
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(result.stats.spills, result.stats.reduce_tasks)
      << "threshold spilling should produce multiple spills per range";
  EXPECT_GT(result.stats.bytes_spilled, 0u);
}

TEST(MrEngine, ReduceGathersItsRangeInOneCall) {
  // Fixed-width lines that tile the blocks: every map makes one call for
  // its block and one boundary peek at the previous block, never a
  // follow-on read, so the job's map-side calls can be counted exactly.
  ClusterOptions opts = SmallCluster(4);
  Cluster cluster(opts);
  Rng rng(7);
  std::string text;
  for (int line = 0; line < 250; ++line) {
    for (int word = 0; word < 4; ++word) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "w%02d", static_cast<int>(rng.Below(50)));
      text += buf;
      text.push_back(word == 3 ? '\n' : ' ');
    }
  }
  ASSERT_EQ(text.size() % 16, 0u);
  ASSERT_EQ(opts.block_size % 16, 0u);
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());
  const std::uint64_t blocks = cluster.dfs().GetMetadata("corpus").value().num_blocks;

  Counter& calls = cluster.metrics().GetCounter("net.calls", {{"transport", "inproc"}});
  const std::uint64_t before = calls.value();
  JobSpec spec = apps::WordCountJob("wc-gather", "corpus");
  spec.spill_threshold = 64;
  JobResult result = cluster.Run(spec);
  const std::uint64_t job_calls = calls.value() - before;
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_GT(result.stats.spills, 4 * result.stats.reduce_tasks);
  ASSERT_EQ(result.stats.icache_misses, blocks);

  // Metadata, block reads, boundary peeks, one push per spill.
  const std::uint64_t map_side = 1 + blocks + (blocks - 1) + result.stats.spills;
  ASSERT_GE(job_calls, map_side);
  // Each range: one gather by its reduce, then one delete by the cleanup.
  EXPECT_EQ(job_calls - map_side, 2 * result.stats.reduce_tasks)
      << "each range should cost one gather and one delete, not one call per spill ("
      << result.stats.spills << " spills)";

  auto expected = apps::WordCountSerial(text);
  ASSERT_EQ(result.output.size(), expected.size());
  for (const auto& kv : result.output) {
    EXPECT_EQ(kv.value, std::to_string(expected.at(kv.key))) << kv.key;
  }
}

TEST(MrEngine, UntaggedSpillsStayOutOfTheOCache) {
  Cluster cluster(SmallCluster(4));
  ASSERT_TRUE(cluster.dfs().Upload("corpus", SampleText()).ok());
  JobSpec spec = apps::WordCountJob("wc", "corpus");
  spec.spill_threshold = 64;
  JobResult result = cluster.Run(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_GT(result.stats.spills, 0u);
  EXPECT_EQ(result.stats.ocache_hits + result.stats.ocache_misses, 0u);

  const std::string prefix = "im/j" + std::to_string(result.job_id) + "/";
  for (int id : cluster.WorkerIds()) {
    for (const auto& entry : cluster.worker(id).cache().Entries()) {
      EXPECT_NE(entry.id.rfind(prefix, 0), 0u)
          << "private spill " << entry.id << " cached on worker " << id;
    }
  }
}

TEST(MrEngine, MigrateMisplacedCacheMovesEntries) {
  ClusterOptions opts = SmallCluster(4);
  opts.laf.window = 8;  // repartition quickly
  opts.laf.alpha = 1.0;
  Cluster cluster(opts);
  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());
  ASSERT_TRUE(cluster.Run(apps::WordCountJob("wc", "corpus")).status.ok());
  // After aggressive repartitioning some cached blocks are misplaced; the
  // migration pass may move them. It must never lose entries.
  std::size_t before = 0;
  for (int id : cluster.WorkerIds()) before += cluster.worker(id).cache().Count();
  cluster.MigrateMisplacedCache();
  std::size_t after = 0;
  for (int id : cluster.WorkerIds()) after += cluster.worker(id).cache().Count();
  EXPECT_EQ(after, before);
}

TEST(MrEngine, MultiFileInputsUnionCorrectly) {
  Cluster cluster(SmallCluster(4));
  Rng rng(21);
  workload::TextOptions topts;
  topts.target_bytes = 2500;
  topts.vocabulary = 30;
  std::string a = workload::GenerateText(rng, topts);
  std::string b = workload::GenerateText(rng, topts);
  std::string c = workload::GenerateText(rng, topts);
  ASSERT_TRUE(cluster.dfs().Upload("a", a).ok());
  ASSERT_TRUE(cluster.dfs().Upload("b", b).ok());
  ASSERT_TRUE(cluster.dfs().Upload("c", c).ok());

  JobSpec spec = apps::WordCountJob("wc-multi", "a");
  spec.extra_inputs = {"b", "c"};
  JobResult result = cluster.Run(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  auto expected = apps::WordCountSerial(a + b + c);
  ASSERT_EQ(result.output.size(), expected.size());
  for (const auto& kv : result.output) {
    EXPECT_EQ(kv.value, std::to_string(expected.at(kv.key))) << kv.key;
  }
  EXPECT_EQ(result.stats.input_bytes, a.size() + b.size() + c.size());

  // A file named twice is read once: both mentions produce the same spill
  // ids, and a reduce reads each spill id once.
  JobSpec twice = apps::WordCountJob("wc-twice", "a");
  twice.extra_inputs = {"a"};
  JobResult once = cluster.Run(twice);
  ASSERT_TRUE(once.status.ok()) << once.status.ToString();
  auto expected_a = apps::WordCountSerial(a);
  ASSERT_EQ(once.output.size(), expected_a.size());
  for (const auto& kv : once.output) {
    EXPECT_EQ(kv.value, std::to_string(expected_a.at(kv.key))) << kv.key;
  }

  // A missing extra input fails the whole job up front.
  JobSpec broken = apps::WordCountJob("wc-broken", "a");
  broken.extra_inputs = {"nope"};
  EXPECT_EQ(cluster.Run(broken).status.code(), ErrorCode::kNotFound);
}

TEST(MrEngine, VirtualNodeClusterRunsCorrectly) {
  ClusterOptions opts = SmallCluster(5);
  opts.vnodes = 8;
  Cluster cluster(opts);
  EXPECT_EQ(cluster.ring().NumPositions(), 40u);

  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());
  auto back = cluster.dfs().ReadFile("corpus");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), text);

  JobResult result = cluster.Run(apps::WordCountJob("wc", "corpus"));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  auto expected = apps::WordCountSerial(text);
  ASSERT_EQ(result.output.size(), expected.size());
  for (const auto& kv : result.output) {
    EXPECT_EQ(kv.value, std::to_string(expected.at(kv.key)));
  }

  // Failure handling is vnode-aware too: every vnode of the victim leaves.
  ASSERT_EQ(cluster.KillServer(1).blocks_lost, 0u);
  back = cluster.dfs().ReadFile("corpus");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), text);
}

TEST(MrEngine, OutputFilePersistedToDfs) {
  Cluster cluster(SmallCluster(4));
  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  JobSpec spec = apps::WordCountJob("wc", "corpus");
  spec.output_file = "wc.out";
  JobResult result = cluster.Run(spec);
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(result.stats.output_bytes, 0u);

  auto stored = cluster.dfs().ReadFile("wc.out");
  ASSERT_TRUE(stored.ok());
  // One "key\tvalue" line per output pair, in output order.
  std::size_t lines = 0, pos = 0;
  while ((pos = stored.value().find('\n', pos)) != std::string::npos) {
    ++lines;
    ++pos;
  }
  EXPECT_EQ(lines, result.output.size());
  const auto& first = result.output.front();
  EXPECT_EQ(stored.value().substr(0, first.key.size() + 1 + first.value.size()),
            first.key + "\t" + first.value);

  // Re-running with the same output file replaces it, not duplicates it.
  JobSpec again = apps::WordCountJob("wc2", "corpus");
  again.output_file = "wc.out";
  ASSERT_TRUE(cluster.Run(again).status.ok());
  auto replaced = cluster.dfs().ReadFile("wc.out");
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(replaced.value(), stored.value());
}

/// Delegating reducer that holds each key ~5 ms and records the peak number
/// of reducers inside Reduce at once.
class OverlapProbeReducer : public Reducer {
 public:
  OverlapProbeReducer(std::unique_ptr<Reducer> inner, std::atomic<int>& in_flight,
                      std::atomic<int>& peak)
      : inner_(std::move(inner)), in_flight_(in_flight), peak_(peak) {}

  void Reduce(std::string_view key, const std::vector<std::string_view>& values,
              ReduceContext& ctx) override {
    const int now = in_flight_.fetch_add(1) + 1;
    int seen = peak_.load();
    while (now > seen && !peak_.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    in_flight_.fetch_sub(1);
    inner_->Reduce(key, values, ctx);
  }

 private:
  std::unique_ptr<Reducer> inner_;
  std::atomic<int>& in_flight_;
  std::atomic<int>& peak_;
};

TEST(MrEngine, ReducesOverlapWithoutSpeculation) {
  // With speculation off, every range's reduce still runs at once on its
  // owner: a phase lasts about as long as its slowest reduce, not the sum.
  Cluster cluster(SmallCluster(8));
  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  JobSpec spec = apps::WordCountJob("wc-overlap", "corpus");
  ASSERT_FALSE(spec.speculative_execution);
  spec.reducer = [inner = spec.reducer, &in_flight, &peak] {
    return std::make_unique<OverlapProbeReducer>(inner(), in_flight, peak);
  };
  JobResult result = cluster.Run(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GE(peak.load(), 2) << "reduces ran one at a time";

  auto expected = apps::WordCountSerial(text);
  ASSERT_EQ(result.output.size(), expected.size());
  for (const auto& kv : result.output) {
    EXPECT_EQ(kv.value, std::to_string(expected.at(kv.key))) << kv.key;
  }
}

/// Delegating mapper that stalls 100 ms on the record "sentinel".
class SentinelStallMapper : public Mapper {
 public:
  explicit SentinelStallMapper(std::unique_ptr<Mapper> inner) : inner_(std::move(inner)) {}

  void Map(std::string_view record, MapContext& ctx) override {
    if (record == "sentinel") std::this_thread::sleep_for(std::chrono::milliseconds(100));
    inner_->Map(record, ctx);
  }
  void Finish(MapContext& ctx) override { inner_->Finish(ctx); }

 private:
  std::unique_ptr<Mapper> inner_;
};

TEST(MrEngine, MapDurationsRecordedWhenEachMapCompletes) {
  // Speculation off. Only block 0's map is slow; the maps behind it must
  // not record its duration as their own in the RuntimePredictor.
  ClusterOptions opts = SmallCluster(8);
  Cluster cluster(opts);
  const std::string text = "sentinel\n" + SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  JobSpec spec = apps::WordCountJob("wc-stall", "corpus");
  ASSERT_FALSE(spec.speculative_execution);
  spec.mapper = [inner = spec.mapper] {
    return std::make_unique<SentinelStallMapper>(inner());
  };
  JobResult result = cluster.Run(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_GT(result.stats.map_tasks, 4u);
  EXPECT_EQ(result.output.size(), apps::WordCountSerial(text).size());

  auto predicted = cluster.predictor().Predict("wc-stall", sched::PredictPhase::kMap,
                                               opts.block_size);
  ASSERT_TRUE(predicted.has_value());
  EXPECT_LT(predicted->mean_us, 50'000u);
}

/// Emits three pairs per key, out of its visit order: its reversed key twice
/// ("first", then "second") and the shared key "#all".
class OutOfOrderReducer : public Reducer {
 public:
  void Reduce(std::string_view key, const std::vector<std::string_view>&,
              ReduceContext& ctx) override {
    const std::string reversed(key.rbegin(), key.rend());
    ctx.Emit(reversed, "first:" + std::string(key));
    ctx.Emit("#all", key);
    ctx.Emit(reversed, "second:" + std::string(key));
  }
};

TEST(MrEngine, OutputStaysSortedAndStableWhenAReducerEmitsOutOfOrder) {
  Cluster cluster(SmallCluster(4));
  const std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());
  JobSpec spec = apps::WordCountJob("wc-reversed", "corpus");
  spec.reducer = [] { return std::make_unique<OutOfOrderReducer>(); };
  JobResult result = cluster.Run(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  // The contract: every reduce's emissions, concatenated in ascending range
  // order, then stable-sorted by key. Each word's reduce runs in the range
  // its ring key routes to, and a range's reduce visits words in order.
  std::vector<HashKey> begins;
  for (const auto& [server, range] : cluster.CurrentEpoch()->fs_ranges.entries()) {
    if (!range.IsEmpty()) begins.push_back(range.begin);
  }
  std::sort(begins.begin(), begins.end());
  std::vector<std::vector<std::string>> words_by_range(begins.size());
  for (const auto& [word, count] : apps::WordCountSerial(text)) {
    words_by_range[RouteToRange(begins, KeyOf(word))].push_back(word);
  }
  // "#all" ties across runs only if at least two ranges hold words.
  ASSERT_GT(std::count_if(words_by_range.begin(), words_by_range.end(),
                          [](const auto& words) { return !words.empty(); }),
            1);
  std::vector<KV> expected;
  for (auto& words : words_by_range) {
    std::sort(words.begin(), words.end());
    for (const std::string& word : words) {
      const std::string reversed(word.rbegin(), word.rend());
      expected.push_back({reversed, "first:" + word});
      expected.push_back({"#all", word});
      expected.push_back({reversed, "second:" + word});
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const KV& a, const KV& b) { return a.key < b.key; });
  EXPECT_EQ(result.output, expected);
}

/// Joins a key's values in the order they reach the reducer.
class JoinReducer : public Reducer {
 public:
  void Reduce(std::string_view key, const std::vector<std::string_view>& values,
              ReduceContext& ctx) override {
    std::string joined;
    for (std::string_view v : values) {
      if (!joined.empty()) joined += ',';
      joined += v;
    }
    ctx.Emit(key, joined);
  }
};

TEST(MrEngine, ReduceReadsItsSpillsInSpillIdOrder) {
  // A reduce reads its range's spills in ascending spill id, and a spill id
  // names its block in decimal ("…/b10/…" sorts before "…/b2/…"). Reducers
  // that sum doubles in arrival order depend on that order, so it is pinned
  // here over more than ten blocks, where it differs from block order.
  ClusterOptions opts = SmallCluster(4);
  Cluster cluster(opts);
  Rng rng(5);
  std::string text;
  std::map<std::uint64_t, std::vector<std::pair<std::string, std::string>>> by_block;
  for (int i = 0; i < 400; ++i) {
    // A record belongs to the block holding its first byte.
    const std::uint64_t block = text.size() / opts.block_size;
    std::string key = 'k' + std::to_string(rng.Below(4));
    std::string value = 'v' + std::to_string(i);
    text += key + ' ' + value + '\n';
    by_block[block].emplace_back(std::move(key), std::move(value));
  }
  ASSERT_GE(by_block.size(), 11u);
  ASSERT_TRUE(cluster.dfs().Upload("records", text).ok());

  JobSpec spec = apps::SortJob("join", "records");
  spec.reducer = [] { return std::make_unique<JoinReducer>(); };
  JobResult result = cluster.Run(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  std::vector<std::uint64_t> id_order;
  for (const auto& [block, records] : by_block) id_order.push_back(block);
  std::sort(id_order.begin(), id_order.end(), [](std::uint64_t a, std::uint64_t b) {
    return std::to_string(a) < std::to_string(b);
  });
  auto join_in = [&](const std::vector<std::uint64_t>& blocks) {
    std::map<std::string, std::string> joined;
    for (std::uint64_t block : blocks) {
      for (const auto& [key, value] : by_block.at(block)) {
        std::string& j = joined[key];
        if (!j.empty()) j += ',';
        j += value;
      }
    }
    return joined;
  };
  const std::map<std::string, std::string> expected = join_in(id_order);
  std::vector<std::uint64_t> block_order;
  for (const auto& [block, records] : by_block) block_order.push_back(block);
  ASSERT_NE(expected, join_in(block_order)) << "spill-id order must differ from block order";

  ASSERT_EQ(result.output.size(), expected.size());
  for (const auto& kv : result.output) EXPECT_EQ(kv.value, expected.at(kv.key)) << kv.key;
}

TEST(MrEngine, StatsReportWallTimeAndInputBytes) {
  Cluster cluster(SmallCluster(2));
  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());
  JobResult result = cluster.Run(apps::WordCountJob("wc", "corpus"));
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(result.stats.wall_seconds, 0.0);
  EXPECT_EQ(result.stats.input_bytes, text.size());
}

}  // namespace
}  // namespace eclipse::mr
