#include "mr/shuffle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "dht/ring.h"
#include "net/transport.h"
#include "common/rng.h"

namespace eclipse::mr {
namespace {

// One spill's payload, encoded as a map task encodes it.
std::string EncodeSpill(const std::vector<KV>& pairs) {
  std::vector<KVView> views;
  for (const KV& kv : pairs) views.push_back({kv.key, kv.value});
  BinaryWriter w;
  EncodeSpillTo(views, w);
  return w.Take();
}

// Decode a whole spill, as a reduce task does, into owned pairs.
Result<std::vector<KV>> DecodeSpill(const std::string& data) {
  std::vector<KVView> views;
  if (Status s = DecodeSpillViews(data, &views); !s.ok()) return s;
  std::vector<KV> out;
  for (const KVView& kv : views) out.push_back({std::string(kv.key), std::string(kv.value)});
  return out;
}

TEST(Spill, EncodeDecodeRoundTrip) {
  std::vector<KV> pairs = {{"k1", "v1"}, {"k2", ""}, {"", "v3"}};
  auto back = DecodeSpill(EncodeSpill(pairs));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), pairs);
}

TEST(Spill, DecodeTruncatedFails) {
  auto data = EncodeSpill({{"key", "value"}});
  EXPECT_FALSE(DecodeSpill(data.substr(0, data.size() - 2)).ok());
  EXPECT_FALSE(DecodeSpill("").ok());
}

TEST(Manifest, RoundTrip) {
  std::vector<SpillInfo> spills = {{"id1", 100, 5, 64}, {"id2", 200, 9, 128}};
  auto back = DecodeManifest(EncodeManifest(spills));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 2u);
  EXPECT_EQ(back.value()[0].id, "id1");
  EXPECT_EQ(back.value()[1].range_begin, 200u);
  EXPECT_EQ(back.value()[1].pairs, 9u);
}

TEST(Spill, EncodedBytesMatchesTheEncoding) {
  std::vector<KV> pairs = {{"k1", "v1"}, {"key", ""}, {"", "value"}};
  SpillInfo info{"id", 0, pairs.size(), 0};
  for (const KV& kv : pairs) info.bytes += kv.key.size() + kv.value.size();
  EXPECT_EQ(EncodedSpillBytes(info), EncodeSpill(pairs).size());
}

TEST(BatchEndsTest, SplitsUnderTheCap) {
  // Spills of 4 + 8·pairs + bytes encoded bytes each, cut under a small cap.
  std::vector<SpillInfo> spills = {
      {"a", 0, 1, 28},   // 40
      {"b", 0, 2, 20},   // 40
      {"c", 0, 1, 8},    // 20
      {"d", 0, 10, 36},  // 120: over the cap on its own
      {"e", 0, 1, 48},   // 60
      {"f", 0, 1, 88},   // 100: exactly the cap
      {"g", 0, 0, 0},    // 4
  };
  std::vector<Bytes> sizes;
  for (const SpillInfo& s : spills) sizes.push_back(EncodedSpillBytes(s));
  ASSERT_EQ(sizes, (std::vector<Bytes>{40, 40, 20, 120, 60, 100, 4}));
  const Bytes cap = 100;
  const std::vector<std::size_t> ends = BatchEnds(sizes, cap);
  EXPECT_EQ(ends, (std::vector<std::size_t>{3, 4, 5, 6, 7}));

  std::size_t begin = 0;
  for (std::size_t end : ends) {
    ASSERT_LT(begin, end) << "empty batch";
    Bytes total = 0;
    for (std::size_t i = begin; i < end; ++i) total += sizes[i];
    if (total > cap) {
      EXPECT_EQ(end - begin, 1u) << "an oversized spill shares its batch";
    }
    begin = end;
  }
  EXPECT_EQ(begin, sizes.size());

  EXPECT_TRUE(BatchEnds({}, cap).empty());
  EXPECT_EQ(BatchEnds({500}, cap), (std::vector<std::size_t>{1}));
  EXPECT_EQ(BatchEnds({500, 500}, cap), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(BatchEnds({10, 10, 10}, 1000), (std::vector<std::size_t>{3}));
}

TEST(SpillIdTest, DeterministicAndDistinct) {
  EXPECT_EQ(SpillId("p", 10, 0), SpillId("p", 10, 0));
  EXPECT_NE(SpillId("p", 10, 0), SpillId("p", 10, 1));
  EXPECT_NE(SpillId("p", 10, 0), SpillId("p", 11, 0));
  EXPECT_EQ(ManifestId("tag", "in", 3), "man/tag/in/b3");
}

// The linear-scan reference RouteToRange replaced: first range whose
// [begin, end) interval (reconstructed from the boundary list) covers hk.
std::size_t RouteLinear(const std::vector<HashKey>& begins, HashKey hk) {
  for (std::size_t i = 0; i < begins.size(); ++i) {
    HashKey begin = begins[i];
    HashKey end = begins[(i + 1) % begins.size()];
    bool contains = begin < end ? (hk >= begin && hk < end)  // non-wrapping
                                : (hk >= begin || hk < end);  // wraps past 0
    if (begins.size() == 1 || contains) return i;
  }
  return begins.size();  // unreachable for a tiling boundary set
}

TEST(RouteToRangeTest, MatchesLinearScanOnRandomBoundaryTables) {
  Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    std::size_t n = 1 + rng.Below(12);
    std::vector<HashKey> begins;
    for (std::size_t i = 0; i < n; ++i) begins.push_back(rng.Next());
    std::sort(begins.begin(), begins.end());
    begins.erase(std::unique(begins.begin(), begins.end()), begins.end());
    // Random probes plus the adversarial points: each boundary, its
    // neighbors, and the ring extremes.
    std::vector<HashKey> probes;
    for (int i = 0; i < 64; ++i) probes.push_back(rng.Next());
    for (HashKey b : begins) {
      probes.push_back(b);
      probes.push_back(b - 1);
      probes.push_back(b + 1);
    }
    probes.push_back(0);
    probes.push_back(~HashKey{0});
    for (HashKey hk : probes) {
      EXPECT_EQ(RouteToRange(begins, hk), RouteLinear(begins, hk))
          << "round " << round << " hk " << hk;
    }
  }
}

using Groups = std::map<std::string, std::vector<std::string>>;

// The reference grouping: values appended per key in input (spill) order,
// keys iterated in ascending order.
Groups MapReference(const std::vector<KV>& pairs) {
  Groups expect;
  for (const KV& kv : pairs) expect[kv.key].push_back(kv.value);
  return expect;
}

// Group `pairs` as a reduce task does: Clear the scratch, decode the pairs
// as spills of `per_spill` pairs each, in order, then ForEachGroupViews.
// Checks the result against MapReference, and that each key is visited
// exactly once, in ascending order.
void ExpectGroupsLikeMap(ReduceScratch& scratch, const std::vector<KV>& pairs,
                         std::size_t per_spill, const std::string& what) {
  std::vector<std::string> spills;
  for (std::size_t i = 0; i < pairs.size(); i += per_spill) {
    const std::size_t end = std::min(pairs.size(), i + per_spill);
    spills.push_back(EncodeSpill({pairs.begin() + i, pairs.begin() + end}));
  }
  scratch.Clear();
  for (const std::string& spill : spills) {
    ASSERT_TRUE(DecodeSpillViews(spill, &scratch.pairs).ok()) << what;
  }
  Groups got;
  std::vector<std::string> key_order;
  EXPECT_TRUE(ForEachGroupViews(
      scratch, [&](std::string_view key, const std::vector<std::string_view>& values) {
        key_order.emplace_back(key);
        got[std::string(key)].assign(values.begin(), values.end());
        return true;
      }))
      << what;
  const Groups expect = MapReference(pairs);
  EXPECT_EQ(got, expect) << what;
  EXPECT_EQ(key_order.size(), expect.size()) << what;
  EXPECT_TRUE(std::adjacent_find(key_order.begin(), key_order.end(),
                                 std::greater_equal<std::string>()) == key_order.end())
      << what << ": keys not strictly ascending";
}

TEST(ForEachGroupTest, MatchesMapGroupingIncludingValueOrder) {
  Rng rng(11);
  // One scratch throughout, as one slot thread keeps it across tasks.
  ReduceScratch scratch;
  for (int round = 0; round < 50; ++round) {
    std::vector<KV> pairs;
    std::size_t n = rng.Below(200);
    for (std::size_t i = 0; i < n; ++i) {
      // Few distinct keys → long chains; values unique so order is observable.
      pairs.push_back({'k' + std::to_string(rng.Below(9)), 'v' + std::to_string(i)});
    }
    ExpectGroupsLikeMap(scratch, pairs, 1 + rng.Below(64), "round " + std::to_string(round));
  }

  std::vector<KV> one_key;
  for (int i = 0; i < 1000; ++i) one_key.push_back({"only", 'v' + std::to_string(i)});
  ExpectGroupsLikeMap(scratch, one_key, 100, "one key");

  // Every chain one pair long: the sort orders every pair.
  std::vector<KV> distinct;
  for (int i = 5000; i > 0; --i) distinct.push_back({'k' + std::to_string(i), std::to_string(i)});
  ExpectGroupsLikeMap(scratch, distinct, 700, "all keys distinct");

  // An empty key is a key like any other, and empty values keep their place.
  std::vector<KV> empties = {{"", ""}, {"a", ""}, {"", "x"}, {"a", "y"}, {"", ""}};
  ExpectGroupsLikeMap(scratch, empties, 2, "empty key and values");

  // 120 000 pairs over ~38 000 keys: the table doubles many times within
  // one call.
  std::vector<KV> many;
  for (std::size_t i = 0; i < 120000; ++i) {
    many.push_back({'k' + std::to_string(rng.Below(40000)), 'v' + std::to_string(i)});
  }
  ExpectGroupsLikeMap(scratch, many, 4096, "120 000 pairs");

  // Two reduce tasks on one scratch: a small task after the large one sees
  // none of its chains, and a large one after a small one grows again.
  std::vector<KV> task_a, task_b;
  for (std::size_t i = 0; i < 3000; ++i) {
    task_a.push_back({'k' + std::to_string(rng.Below(1500)), 'a' + std::to_string(i)});
    task_b.push_back({'k' + std::to_string(rng.Below(7)), 'b' + std::to_string(i)});
  }
  ExpectGroupsLikeMap(scratch, task_a, 512, "task a");
  ExpectGroupsLikeMap(scratch, task_b, 512, "task b after a");
  ExpectGroupsLikeMap(scratch, task_a, 512, "task a after b");
}

TEST(ForEachGroupTest, EarlyStopReturnsFalse) {
  const std::string spill = EncodeSpill({{"b", "1"}, {"a", "2"}, {"b", "3"}});
  ReduceScratch scratch;
  ASSERT_TRUE(DecodeSpillViews(spill, &scratch.pairs).ok());
  std::vector<std::string> keys;
  auto visit = [&](std::string_view key, const std::vector<std::string_view>&) {
    keys.emplace_back(key);
    return key != "a";
  };
  EXPECT_FALSE(ForEachGroupViews(scratch, visit));
  EXPECT_EQ(keys, std::vector<std::string>{"a"});
  // The scratch groups the same pairs again after an early stop.
  keys.clear();
  EXPECT_TRUE(ForEachGroupViews(
      scratch, [&](std::string_view key, const std::vector<std::string_view>& values) {
        keys.emplace_back(key);
        return !values.empty();
      }));
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
}

/// The output contract MergeRuns must meet: the runs concatenated in order,
/// then stable-sorted by key.
std::vector<KV> StableSortedConcat(const std::vector<std::vector<KV>>& runs) {
  std::vector<KV> all;
  for (const auto& run : runs) all.insert(all.end(), run.begin(), run.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const KV& a, const KV& b) { return a.key < b.key; });
  return all;
}

TEST(MergeRunsTest, EqualKeysComeFromTheLowerRunFirst) {
  std::vector<std::vector<KV>> runs = {
      {{"a", "r0"}, {"b", "r0"}},
      {{"a", "r1"}, {"c", "r1"}},
      {{"a", "r2"}, {"b", "r2"}, {"c", "r2"}},
  };
  std::vector<KV> out;
  MergeRuns(runs, &out);
  EXPECT_EQ(out, (std::vector<KV>{{"a", "r0"}, {"a", "r1"}, {"a", "r2"}, {"b", "r0"},
                                  {"b", "r2"}, {"c", "r1"}, {"c", "r2"}}));
}

TEST(MergeRunsTest, EqualKeysInsideARunKeepTheirOrder) {
  std::vector<KV> run = {{"k", "3"}, {"b", "1"}, {"k", "1"}, {"b", "2"}, {"k", "2"}};
  SortRunByKey(run);
  EXPECT_EQ(run, (std::vector<KV>{{"b", "1"}, {"b", "2"}, {"k", "3"}, {"k", "1"}, {"k", "2"}}));
  std::vector<std::vector<KV>> runs = {{{"a", "x"}}, run, {{"k", "0"}}};
  std::vector<KV> out;
  MergeRuns(runs, &out);
  EXPECT_EQ(out, (std::vector<KV>{{"a", "x"}, {"b", "1"}, {"b", "2"}, {"k", "3"},
                                  {"k", "1"}, {"k", "2"}, {"k", "0"}}));
}

TEST(MergeRunsTest, EmptyRunsAndASingleRun) {
  std::vector<KV> out = {{"stale", "pair"}};
  std::vector<std::vector<KV>> none;
  MergeRuns(none, &out);
  EXPECT_TRUE(out.empty());

  std::vector<std::vector<KV>> empties(3);
  MergeRuns(empties, &out);
  EXPECT_TRUE(out.empty());

  const std::vector<KV> single = {{"a", "1"}, {"a", "2"}, {"b", ""}, {"c", "3"}};
  std::vector<std::vector<KV>> one = {{}, single, {}};
  MergeRuns(one, &out);
  EXPECT_EQ(out, single);
}

TEST(MergeRunsTest, MatchesStableSortOfTheConcatenation) {
  Rng rng(21);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::vector<KV>> runs(rng.Below(12));
    std::size_t tag = 0;
    for (auto& run : runs) {
      const std::size_t n = rng.Below(4) == 0 ? 0 : rng.Below(60);
      // Few keys, so ties across and inside runs are common; unique values
      // make any reordering of equal keys visible.
      for (std::size_t i = 0; i < n; ++i) {
        run.push_back({'k' + std::to_string(rng.Below(20)), std::to_string(tag++)});
      }
    }
    const std::vector<KV> expected = StableSortedConcat(runs);
    for (auto& run : runs) SortRunByKey(run);
    std::vector<KV> out;
    MergeRuns(runs, &out);
    ASSERT_EQ(out, expected) << "round " << round;
  }
}

TEST(DecodeSpillViewsTest, AppendsAcrossSpills) {
  const std::string a = EncodeSpill({{"k1", "v1"}, {"k2", "v2"}});
  const std::string b = EncodeSpill({{"k3", "v3"}});
  std::vector<KVView> out;
  ASSERT_TRUE(DecodeSpillViews(a, &out).ok());
  ASSERT_TRUE(DecodeSpillViews(b, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].key, "k1");
  EXPECT_EQ(out[2].value, "v3");
  EXPECT_FALSE(DecodeSpillViews("garbage", &out).ok());
}

class ShuffleWriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 4; ++i) ring_.AddServer(i);
    for (int i = 0; i < 4; ++i) {
      dispatchers_.push_back(std::make_unique<net::Dispatcher>());
      nodes_.push_back(std::make_unique<dfs::DfsNode>(i, *dispatchers_.back()));
      transport_.Register(i, dispatchers_.back()->AsHandler());
    }
    client_ = std::make_unique<dfs::DfsClient>(100, transport_, [this] { return std::make_shared<const dht::Ring>(ring_); });
  }

  net::InProcessTransport transport_;
  dht::Ring ring_;
  std::vector<std::unique_ptr<net::Dispatcher>> dispatchers_;
  std::vector<std::unique_ptr<dfs::DfsNode>> nodes_;
  std::unique_ptr<dfs::DfsClient> client_;
};

TEST_F(ShuffleWriterTest, FlushPersistsAllPairs) {
  RangeTable ranges = ring_.MakeRangeTable();
  ShuffleWriter w("im/job/b0", ranges, *client_, 1_MiB, std::chrono::milliseconds(0));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(w.Add("key-" + std::to_string(i), "value").ok());
  }
  ASSERT_TRUE(w.Flush().ok());
  ASSERT_FALSE(w.spills().empty());

  // Reading every spill back recovers exactly the 100 pairs.
  std::size_t total = 0;
  for (const auto& spill : w.spills()) {
    auto data = client_->GetObject(spill.id, spill.range_begin);
    ASSERT_TRUE(data.ok());
    auto pairs = DecodeSpill(data.value());
    ASSERT_TRUE(pairs.ok());
    total += pairs.value().size();
    EXPECT_EQ(pairs.value().size(), spill.pairs);
    // Every key in this spill must hash into the spill's range.
    KeyRange range;
    for (const auto& [server, kr] : ranges.entries()) {
      if (kr.begin == spill.range_begin && !kr.IsEmpty()) range = kr;
    }
    for (const auto& kv : pairs.value()) {
      EXPECT_TRUE(range.Contains(KeyOf(kv.key))) << kv.key;
    }
  }
  EXPECT_EQ(total, 100u);
}

TEST_F(ShuffleWriterTest, ThresholdTriggersEarlySpills) {
  RangeTable ranges = ring_.MakeRangeTable();
  ShuffleWriter w("im/job/b1", ranges, *client_, 64, std::chrono::milliseconds(0));
  // Push enough into one range to cross the 64-byte threshold repeatedly.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(w.Add("constant-key", std::string(16, 'v')).ok());
  }
  // Spills happened before Flush.
  EXPECT_GT(w.spills().size(), 1u);
  ASSERT_TRUE(w.Flush().ok());
}

TEST_F(ShuffleWriterTest, SpillLandsOnRangeOwner) {
  RangeTable ranges = ring_.MakeRangeTable();
  ShuffleWriter w("im/job/b2", ranges, *client_, 1_MiB, std::chrono::milliseconds(0));
  ASSERT_TRUE(w.Add("some-key", "v").ok());
  ASSERT_TRUE(w.Flush().ok());
  ASSERT_EQ(w.spills().size(), 1u);
  const auto& spill = w.spills()[0];
  int owner = ranges.Owner(spill.range_begin);
  EXPECT_TRUE(nodes_[static_cast<std::size_t>(owner)]->blocks().Contains(spill.id))
      << "proactive shuffle must place the spill reducer-side";
}

TEST_F(ShuffleWriterTest, DeterministicAcrossReruns) {
  RangeTable ranges = ring_.MakeRangeTable();
  auto run = [&] {
    ShuffleWriter w("im/job/b3", ranges, *client_, 64, std::chrono::milliseconds(0));
    for (int i = 0; i < 30; ++i) {
      EXPECT_TRUE(w.Add("key-" + std::to_string(i % 7), "payload-" + std::to_string(i)).ok());
    }
    EXPECT_TRUE(w.Flush().ok());
    return w.spills();
  };
  auto first = run();
  auto second = run();  // re-execution overwrites identical ids
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, second[i].id);
    EXPECT_EQ(first[i].pairs, second[i].pairs);
  }
}

}  // namespace
}  // namespace eclipse::mr
