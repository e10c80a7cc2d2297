// Robustness / model-based property tests:
//  * decoders never crash or mis-succeed on corrupted bytes,
//  * LruCache matches a reference model under long random op streams,
//  * the record reader matches the line oracle on random texts,
//  * RangeTable stays total under randomized LAF repartition sequences.
#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cache/lru_cache.h"
#include "common/rng.h"
#include "dfs/metadata.h"
#include "mr/record_reader.h"
#include "mr/shuffle.h"
#include "sched/cdf_partition.h"
#include "sched/laf_scheduler.h"

namespace eclipse {
namespace {

std::string RandomBytes(Rng& rng, std::size_t n) {
  std::string s(n, '\0');
  for (auto& c : s) c = static_cast<char>(rng.Next() & 0xFF);
  return s;
}

// The decoder every reduce task runs on the spills it fetched.
TEST(Fuzz, SpillDecoderSurvivesGarbage) {
  Rng rng(1);
  std::vector<mr::KVView> views;
  BinaryWriter w;
  int decoded = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string data;
    if (i % 2 == 0) {
      data = RandomBytes(rng, rng.Below(200));
      // A random entry count is almost always implausible; give half the
      // inputs a small one, so the decoder walks into the entries.
      if (data.size() >= 4 && rng.Below(2) == 0) {
        w.Clear();
        w.PutU32(static_cast<std::uint32_t>(rng.Below(8)));
        data.replace(0, 4, w.str());
      }
    } else {
      // A valid spill with a few bytes overwritten, and half the time cut short.
      std::vector<std::string> strings;
      for (std::uint64_t n = rng.Below(6) * 2; n > 0; --n) {
        strings.push_back(RandomBytes(rng, rng.Below(12)));
      }
      std::vector<mr::KVView> pairs;
      for (std::size_t k = 0; k < strings.size(); k += 2) {
        pairs.push_back({strings[k], strings[k + 1]});
      }
      mr::EncodeSpillTo(pairs, w);
      data = w.str();
      for (std::uint64_t n = rng.Below(4); n > 0; --n) {
        data[rng.Below(data.size())] = static_cast<char>(rng.Next() & 0xFF);
      }
      if (rng.Below(2) == 0) data.resize(rng.Below(data.size() + 1));
    }

    views.clear();
    if (!mr::DecodeSpillViews(data, &views).ok()) continue;  // must not crash
    ++decoded;
    const auto begin = reinterpret_cast<std::uintptr_t>(data.data());
    auto inside = [&](std::string_view v) {
      const auto p = reinterpret_cast<std::uintptr_t>(v.data());
      return p >= begin && p + v.size() <= begin + data.size();
    };
    for (const mr::KVView& kv : views) {
      EXPECT_TRUE(inside(kv.key)) << "input " << i;
      EXPECT_TRUE(inside(kv.value)) << "input " << i;
    }
    mr::EncodeSpillTo(views, w);
    EXPECT_LE(w.str().size(), data.size()) << "input " << i;
  }
  EXPECT_GT(decoded, 400);  // the success path ran, not only the rejections
}

TEST(Fuzz, ManifestDecoderSurvivesGarbage) {
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    auto data = RandomBytes(rng, rng.Below(200));
    auto result = mr::DecodeManifest(data);
    (void)result;
  }
}

TEST(Fuzz, MetadataDecoderSurvivesTruncationsOfValidRecord) {
  dfs::FileMetadata m;
  m.name = "some/long/file/name.txt";
  m.owner = "owner";
  m.size = 123456789;
  m.block_size = 4096;
  m.num_blocks = 30140;
  BinaryWriter w;
  m.Serialize(w);
  std::string full = w.str();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    BinaryReader r(std::string_view(full).substr(0, cut));
    auto result = dfs::FileMetadata::Deserialize(r);
    EXPECT_FALSE(result.ok()) << "truncation at " << cut << " must fail";
  }
  BinaryReader r(full);
  EXPECT_TRUE(dfs::FileMetadata::Deserialize(r).ok());
}

// Reference LRU model: ordered list of (id, size), front = most recent.
class ModelLru {
 public:
  explicit ModelLru(Bytes capacity) : capacity_(capacity) {}

  bool Put(const std::string& id, Bytes size) {
    if (size > capacity_) return false;
    Erase(id);
    while (used_ + size > capacity_ && !order_.empty()) {
      used_ -= order_.back().second;
      index_.erase(order_.back().first);
      order_.pop_back();
    }
    order_.emplace_front(id, size);
    index_[id] = order_.begin();
    used_ += size;
    return true;
  }

  bool Get(const std::string& id) {
    auto it = index_.find(id);
    if (it == index_.end()) return false;
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }

  void Erase(const std::string& id) {
    auto it = index_.find(id);
    if (it == index_.end()) return;
    used_ -= it->second->second;
    order_.erase(it->second);
    index_.erase(it);
  }

  Bytes used() const { return used_; }
  std::size_t count() const { return order_.size(); }

 private:
  Bytes capacity_;
  Bytes used_ = 0;
  std::list<std::pair<std::string, Bytes>> order_;
  std::map<std::string, std::list<std::pair<std::string, Bytes>>::iterator> index_;
};

class LruModelCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LruModelCheck, MatchesReferenceModel) {
  Rng rng(GetParam());
  const Bytes capacity = 64 + rng.Below(512);
  cache::LruCache real(capacity);
  ModelLru model(capacity);

  for (int op = 0; op < 5000; ++op) {
    std::string id = "k" + std::to_string(rng.Below(40));
    switch (rng.Below(4)) {
      case 0:
      case 1: {  // put
        Bytes size = rng.Below(100);
        std::string data(size, 'd');
        bool a = real.Put(id, KeyOf(id), data, cache::EntryKind::kInput);
        bool b = model.Put(id, size);
        ASSERT_EQ(a, b) << "op " << op;
        break;
      }
      case 2: {  // get
        bool a = real.Get(id, cache::EntryKind::kInput) != nullptr;
        bool b = model.Get(id);
        ASSERT_EQ(a, b) << "op " << op;
        break;
      }
      default: {  // erase
        real.Erase(id);
        model.Erase(id);
        break;
      }
    }
    ASSERT_EQ(real.used(), model.used()) << "op " << op;
    ASSERT_EQ(real.Count(), model.count()) << "op " << op;
    ASSERT_LE(real.used(), capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruModelCheck, ::testing::Values(11, 22, 33, 44, 55));

class RecordReaderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecordReaderFuzz, RandomTextsMatchLineOracle) {
  Rng rng(GetParam());
  for (int round = 0; round < 30; ++round) {
    // Random text with random line lengths, including empty lines and a
    // possibly unterminated tail.
    std::string text;
    std::size_t lines = 1 + rng.Below(30);
    for (std::size_t l = 0; l < lines; ++l) {
      text += std::string(rng.Below(20), static_cast<char>('a' + (l % 26)));
      text.push_back('\n');
    }
    if (rng.Below(2) == 0 && !text.empty()) text.pop_back();

    Bytes block_size = 1 + rng.Below(40);
    dfs::FileMetadata meta;
    meta.name = "fuzz";
    meta.size = text.size();
    meta.block_size = block_size;
    meta.num_blocks = dfs::NumBlocks(text.size(), block_size);

    auto block_of = [&](std::uint64_t j) { return text.substr(j * block_size, block_size); };
    std::vector<std::string> got;
    for (std::uint64_t b = 0; b < meta.num_blocks; ++b) {
      auto records = mr::ExtractRecords(
          meta, b, '\n', block_of(b),
          [&](std::uint64_t j) -> Result<std::string> { return block_of(j); },
          [&](std::uint64_t j, Bytes off, Bytes len) -> Result<std::string> {
            return block_of(j).substr(off, len);
          });
      ASSERT_TRUE(records.ok());
      for (auto& rec : records.value()) got.push_back(std::move(rec));
    }

    std::vector<std::string> expected;
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t p = text.find('\n', start);
      if (p == std::string::npos) p = text.size();
      if (p > start) expected.push_back(text.substr(start, p - start));
      start = p + 1;
    }
    ASSERT_EQ(got, expected) << "round " << round << " block_size " << block_size;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordReaderFuzz, ::testing::Values(7, 17, 27, 37));

TEST(Fuzz, LafRangesStayTotalUnderRandomStreams) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Rng rng(seed);
    std::vector<int> servers;
    int n = 2 + static_cast<int>(rng.Below(20));
    std::vector<std::pair<int, HashKey>> positions;
    for (int i = 0; i < n; ++i) {
      servers.push_back(i);
      positions.emplace_back(i, rng.Next());
    }
    sched::LafOptions opts;
    opts.window = 16;
    opts.alpha = rng.NextDouble();
    opts.bandwidth = 1 + rng.Below(8);
    opts.num_bins = 64 + rng.Below(512);
    sched::LafScheduler laf(servers, RangeTable::FromPositions(positions), opts);

    for (int i = 0; i < 3000; ++i) {
      // Alternate uniform keys and a few hot spots.
      HashKey key = (i % 3 == 0) ? rng.Next() : (rng.Next() & 0xFFFF000000000000ull);
      int assigned = laf.Assign(key);
      ASSERT_GE(assigned, 0);
      ASSERT_LT(assigned, n);
      // The assigned server's current range must cover the key — unless a
      // repartition just happened, in which case ownership under the NEW
      // table must still be total.
      ASSERT_GE(laf.ranges().Owner(key), 0);
    }
  }
}

TEST(Fuzz, CdfPartitionTotalForRandomPdfs) {
  Rng rng(9);
  for (int round = 0; round < 200; ++round) {
    std::size_t bins = 1 + rng.Below(300);
    std::vector<double> pdf(bins);
    for (auto& v : pdf) v = rng.Below(10) == 0 ? rng.NextDouble() * 100 : 0.0;
    std::vector<int> servers;
    int n = 1 + static_cast<int>(rng.Below(30));
    for (int i = 0; i < n; ++i) servers.push_back(i);

    auto table = sched::PartitionCdf(sched::ConstructCdf(pdf), servers);
    for (int probe = 0; probe < 50; ++probe) {
      ASSERT_GE(table.Owner(rng.Next()), 0)
          << "round " << round << ": partition must cover the whole keyspace";
    }
  }
}

}  // namespace
}  // namespace eclipse
