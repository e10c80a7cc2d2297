// Zero-allocation proof for the data-path hot functions (docs/performance.md).
//
// This binary replaces the global operator new/delete with counting
// forwarders, warms the per-task scratch structures once, and then asserts
// that the steady state — ShuffleWriter::Add over records that fit the
// spill threshold, and the reduce grouping kernel (DecodeSpillViews +
// ForEachGroupViews) over a warmed ReduceScratch — performs exactly zero
// heap allocations. It runs under the plain, ASan, and TSan builds; the
// counter only observes this binary's single thread, which is why these
// cases live here and not in test_shuffle.cc (a per-binary global override
// must not leak into unrelated suites).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/arena.h"
#include "dfs/dfs_client.h"
#include "fault/straggler.h"
#include "dfs/dfs_node.h"
#include "dht/ring.h"
#include "mr/shuffle.h"
#include "net/dispatcher.h"
#include "net/transport.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// Counting replacements. Everything forwards to malloc/free so the
// sanitizers still see every allocation; only the count is added. Not
// inlined: GCC 12 at -O2 and above pairs the malloc/free inside them with
// the other side's operator and reports -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
[[gnu::noinline]] void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace eclipse::mr {
namespace {

std::uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

TEST(HotAlloc, ArenaSteadyStateIsAllocationFree) {
  Arena arena;
  // Warm: establish the high-water mark.
  for (int i = 0; i < 1000; ++i) arena.CopyString("some-representative-key-bytes");
  arena.Reset();
  std::uint64_t before = AllocCount();
  std::size_t bytes = 0;
  for (int i = 0; i < 1000; ++i) {
    bytes += arena.CopyString("some-representative-key-bytes").size();
  }
  std::uint64_t delta = AllocCount() - before;
  EXPECT_EQ(bytes, 29000u);
  EXPECT_EQ(delta, 0u)
      << "a warmed arena must serve the same workload without touching the heap";
  arena.Reset();
}

TEST(HotAlloc, StragglerDetectorMemoryIsBoundedOverAMillionRecords) {
  // The detector used to keep every completion in a sorted vector (O(n)
  // insert, unbounded memory over a cluster's lifetime). It now holds a
  // fixed ring reserved at construction: a million Records — with threshold
  // reads interleaved the way the driver's sweep issues them — must not
  // touch the heap at all, and the threshold must stay stable.
  fault::StragglerOptions opts;
  opts.min_completed = 3;
  opts.window = 512;
  fault::StragglerDetector det(opts);
  // Warm past min_completed (and any lazy lock-validator state) so every
  // threshold read inside the measured loop sees a live verdict.
  for (int i = 0; i < opts.min_completed; ++i) det.Record(100);
  ASSERT_EQ(det.ThresholdUs(), 200u);
  std::uint64_t before = AllocCount();
  for (int i = 0; i < 1'000'000; ++i) {
    det.Record(100);
    if ((i & 0xFFF) == 0 && det.ThresholdUs() != 200) {
      FAIL() << "threshold drifted at record " << i << ": " << det.ThresholdUs();
    }
  }
  std::uint64_t delta = AllocCount() - before;
  EXPECT_EQ(delta, 0u)
      << "a million straggler records must run entirely inside the "
         "pre-reserved window ring and scratch buffer";
  EXPECT_EQ(det.ThresholdUs(), 200u);  // p75 = 100 x 2.0, unchanged
  EXPECT_EQ(det.completed(), 1'000'003);
}

class HotAllocShuffle : public ::testing::Test {
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

TEST_F(HotAllocShuffle, AddSteadyStateIsAllocationFree) {
  RangeTable ranges = ring_.MakeRangeTable();
  // Threshold far above what the measured phase writes: no spill (and so no
  // DFS call, which legitimately allocates) happens inside the window.
  ShuffleWriter w("im/hot/b0", ranges, *client_, 1_MiB,
                  std::chrono::milliseconds(0));
  constexpr int kRecords = 2000;
  // Plain control flow, no gtest macros: the measured window must contain
  // only the code under test.
  auto add_all = [&w]() -> bool {
    char key[32];
    for (int i = 0; i < kRecords; ++i) {
      int len = std::snprintf(key, sizeof key, "key-%07d", i);
      if (!w.Add(std::string_view(key, static_cast<std::size_t>(len)),
                 "value-payload-of-modest-size")
               .ok()) {
        return false;
      }
    }
    return true;
  };
  // Warm: grows each range's arena blocks and pair vectors, then Flush
  // resets them in place (capacity retained).
  ASSERT_TRUE(add_all());
  ASSERT_TRUE(w.Flush().ok());

  std::uint64_t before = AllocCount();
  bool ok = add_all();
  std::uint64_t delta = AllocCount() - before;
  ASSERT_TRUE(ok);
  EXPECT_EQ(delta, 0u)
      << "steady-state ShuffleWriter::Add must not allocate: two arena "
         "copies and a capacity-retained vector append only";
  ASSERT_TRUE(w.Flush().ok());
}

TEST(HotAlloc, ReduceGroupingKernelIsAllocationFreeWhenWarm) {
  // Build two spills the way a map task would.
  std::vector<KVView> pairs;
  std::vector<std::string> backing;
  for (int i = 0; i < 500; ++i) {
    backing.push_back("key-" + std::to_string(i % 50));
    backing.push_back("value-" + std::to_string(i));
  }
  for (std::size_t i = 0; i < backing.size(); i += 2) {
    pairs.push_back({backing[i], backing[i + 1]});
  }
  BinaryWriter enc1, enc2;
  EncodeSpillTo({pairs.begin(), pairs.begin() + 250}, enc1);
  EncodeSpillTo({pairs.begin() + 250, pairs.end()}, enc2);
  const std::string spill1 = enc1.Take();
  const std::string spill2 = enc2.Take();

  ReduceScratch scratch;
  // No gtest macros inside: the second run is the measured window.
  auto kernel = [&]() -> bool {
    scratch.Clear();
    if (!DecodeSpillViews(spill1, &scratch.pairs).ok()) return false;
    if (!DecodeSpillViews(spill2, &scratch.pairs).ok()) return false;
    std::size_t groups = 0, values = 0;
    ForEachGroupViews(scratch, [&](std::string_view key,
                                   const std::vector<std::string_view>& vs) {
      if (key.empty()) return false;
      ++groups;
      values += vs.size();
      return true;
    });
    return groups == 50 && values == 500;
  };
  ASSERT_TRUE(kernel());  // warm: scratch vectors reach high-water capacity

  std::uint64_t before = AllocCount();
  bool ok = kernel();
  std::uint64_t delta = AllocCount() - before;
  ASSERT_TRUE(ok);
  EXPECT_EQ(delta, 0u)
      << "decode + index-sort grouping over a warmed ReduceScratch must not "
         "allocate (std::sort is in-place; stable_sort's merge buffer is "
         "exactly what ForEachGroupViews exists to avoid)";
}

}  // namespace
}  // namespace eclipse::mr
