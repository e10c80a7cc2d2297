// Units, Result/Status, serde, arena, buffer pool, and RNG distribution
// tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/buffer_pool.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/units.h"

namespace eclipse {
namespace {

TEST(Units, Literals) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
  EXPECT_EQ(1_GiB, 1024u * 1024 * 1024);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(FormatBytes(17), "17 B");
  EXPECT_EQ(FormatBytes(1536), "1.5 KiB");
  EXPECT_EQ(FormatBytes(32_MiB), "32.0 MiB");
}

TEST(Status, Basics) {
  EXPECT_TRUE(Status::Ok().ok());
  Status s = Status::Error(ErrorCode::kNotFound, "gone");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: gone");
  EXPECT_EQ(Status::Ok().ToString(), "Ok");
}

TEST(ResultT, ValueAndError) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  Result<int> bad(Status::Error(ErrorCode::kUnavailable, "down"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_EQ(good.value_or(-1), 42);
}

TEST(Serde, RoundTrip) {
  BinaryWriter w;
  w.PutU8(7);
  w.PutU32(0xDEADBEEF);
  w.PutU64(~0ull);
  w.PutI64(-17);
  w.PutDouble(3.25);
  w.PutString("hello");
  w.PutString("");

  BinaryReader r(w.str());
  std::uint8_t u8;
  std::uint32_t u32;
  std::uint64_t u64;
  std::int64_t i64;
  double d;
  std::string s1, s2;
  ASSERT_TRUE(r.GetU8(&u8));
  ASSERT_TRUE(r.GetU32(&u32));
  ASSERT_TRUE(r.GetU64(&u64));
  ASSERT_TRUE(r.GetI64(&i64));
  ASSERT_TRUE(r.GetDouble(&d));
  ASSERT_TRUE(r.GetString(&s1));
  ASSERT_TRUE(r.GetString(&s2));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(u64, ~0ull);
  EXPECT_EQ(i64, -17);
  EXPECT_EQ(d, 3.25);
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serde, TruncationFails) {
  BinaryWriter w;
  w.PutString("abcdef");
  std::string data = w.str();
  BinaryReader r(std::string_view(data).substr(0, 6));  // length + partial
  std::string s;
  EXPECT_FALSE(r.GetString(&s));
  BinaryReader r2("");
  std::uint64_t v;
  EXPECT_FALSE(r2.GetU64(&v));
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(10), 10u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(Zipf, RankZeroMostFrequent) {
  Rng rng(5);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[50]);
  // Zipf(1.0): rank 0 should take roughly 1/H(100) ~ 19% of the mass.
  EXPECT_GT(counts[0], 20000 / 10);
}

TEST(Zipf, ZeroSkewIsUniformish) {
  Rng rng(5);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 450);
}

TEST(GaussianMixtureTest, SamplesClampedAndBimodal) {
  Rng rng(3);
  GaussianMixture mix({{1.0, 0.3, 0.02}, {1.0, 0.7, 0.02}});
  int low = 0, high = 0;
  for (int i = 0; i < 5000; ++i) {
    double v = mix.Sample(rng, 0.0, 1.0);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    if (v < 0.5) ++low; else ++high;
  }
  // Equal weights: both modes populated.
  EXPECT_GT(low, 1500);
  EXPECT_GT(high, 1500);
}

TEST(ArenaTest, CopyStringPreservesBytesAcrossBlocks) {
  Arena arena(64);  // tiny initial block: forces growth immediately
  std::vector<std::string_view> views;
  std::vector<std::string> originals;
  for (int i = 0; i < 200; ++i) {
    originals.push_back("payload-" + std::to_string(i) +
                        std::string(static_cast<std::size_t>(i % 37), 'x'));
  }
  for (const auto& s : originals) views.push_back(arena.CopyString(s));
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i], originals[i]);
  }
  EXPECT_GE(arena.block_count(), 2u) << "growth path must have been exercised";
}

TEST(ArenaTest, AllocateRespectsAlignment) {
  Arena arena;
  arena.CopyString("x");  // misalign the bump pointer
  void* p8 = arena.Allocate(16, 8);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p8) % 8, 0u);
  arena.CopyString("yyy");
  void* p64 = arena.Allocate(64, 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p64) % 64, 0u);
}

// Satellite 4: reset-reuse. Under ASan this proves the recycled blocks are
// written and read strictly within the new cycle — a use-after-Reset of the
// old views would be an ASan hit if blocks were freed, and a logic bug this
// test's byte checks catch since the second cycle overwrites in place.
TEST(ArenaTest, ResetReuse) {
  Arena arena;
  for (int cycle = 0; cycle < 5; ++cycle) {
    std::vector<std::string_view> views;
    std::vector<std::string> originals;
    for (int i = 0; i < 300; ++i) {
      originals.push_back('c' + std::to_string(cycle) + "-v" + std::to_string(i));
      views.push_back(arena.CopyString(originals.back()));
    }
    for (std::size_t i = 0; i < views.size(); ++i) {
      ASSERT_EQ(views[i], originals[i]) << "cycle " << cycle;
    }
    std::size_t blocks_before = arena.block_count();
    arena.Reset();
    EXPECT_EQ(arena.block_count(), blocks_before)
        << "Reset retains blocks for reuse, it does not free them";
    EXPECT_EQ(arena.bytes_allocated(), 0u);
  }
}

TEST(BufferPoolTest, RecyclesWarmBuffers) {
  BufferPool pool;
  std::string b = pool.Acquire();
  EXPECT_TRUE(b.empty());
  b.assign(4096, 'z');
  const std::size_t warmed = b.capacity();
  pool.Release(std::move(b));
  EXPECT_EQ(pool.PooledCount(), 1u);
  std::string again = pool.Acquire();
  EXPECT_TRUE(again.empty()) << "recycled buffers come back cleared";
  EXPECT_GE(again.capacity(), warmed) << "recycled buffers keep their capacity";
  EXPECT_EQ(pool.PooledCount(), 0u);
}

TEST(BufferPoolTest, DropsUselessAndOversizedBuffers) {
  BufferPool pool;
  pool.Release(std::string());  // capacity 0: nothing worth pooling
  EXPECT_EQ(pool.PooledCount(), 0u);
  std::string huge;
  huge.reserve(65 * 1024 * 1024);  // above the retention ceiling
  pool.Release(std::move(huge));
  EXPECT_EQ(pool.PooledCount(), 0u);
}

}  // namespace
}  // namespace eclipse
