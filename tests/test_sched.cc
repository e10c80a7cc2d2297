// LAF scheduler component tests: histogram/KDE, CDF partitioning, and the
// Algorithm 1 behaviours the paper describes (locality, balance, hot-spot
// range narrowing).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "sched/cdf_partition.h"
#include "sched/delay_scheduler.h"
#include "sched/fair_scheduler.h"
#include "sched/key_histogram.h"
#include "sched/laf_scheduler.h"
#include "sched/slot_arbiter.h"

namespace eclipse::sched {
namespace {

TEST(KeyHistogram, BinOfCoversSpace) {
  KeyHistogram h(16, 1);
  EXPECT_EQ(h.BinOf(0), 0u);
  EXPECT_EQ(h.BinOf(~HashKey{0}), 15u);
  EXPECT_EQ(h.BinOf(HashKey{1} << 63), 8u);  // midpoint
}

TEST(KeyHistogram, BoxKernelSpreadsMass) {
  KeyHistogram h(100, 5);
  HashKey mid = HashKey{1} << 63;  // bin 50
  h.Add(mid);
  double total = 0;
  int touched = 0;
  for (double v : h.window()) {
    total += v;
    if (v > 0) ++touched;
  }
  EXPECT_NEAR(total, 1.0, 1e-9) << "each access contributes unit mass";
  EXPECT_EQ(touched, 5) << "bandwidth k touches k bins";
  EXPECT_NEAR(h.window()[50], 0.2, 1e-9);
  EXPECT_NEAR(h.window()[48], 0.2, 1e-9);
  EXPECT_NEAR(h.window()[52], 0.2, 1e-9);
}

TEST(KeyHistogram, KernelWrapsAroundRing) {
  KeyHistogram h(100, 5);
  h.Add(0);  // bin 0; kernel spans bins {98, 99, 0, 1, 2}
  EXPECT_GT(h.window()[98], 0.0);
  EXPECT_GT(h.window()[99], 0.0);
  EXPECT_GT(h.window()[0], 0.0);
  EXPECT_GT(h.window()[1], 0.0);
  EXPECT_GT(h.window()[2], 0.0);
  EXPECT_EQ(h.window()[50], 0.0);
}

TEST(KeyHistogram, MovingAverageFold) {
  KeyHistogram h(4, 1);
  std::vector<double> ma(4, 0.0);
  h.Add(0);  // bin 0
  h.FoldInto(ma, 0.5);
  EXPECT_NEAR(ma[0], 0.5, 1e-12);  // 0.5*1 + 0.5*0
  EXPECT_EQ(h.window_count(), 0u) << "fold clears the window";

  h.Add(HashKey{1} << 63);  // bin 2
  h.FoldInto(ma, 0.5);
  EXPECT_NEAR(ma[0], 0.25, 1e-12);  // attenuated history
  EXPECT_NEAR(ma[2], 0.5, 1e-12);
}

TEST(KeyHistogram, AlphaOneForgetsHistory) {
  KeyHistogram h(4, 1);
  std::vector<double> ma(4, 0.0);
  h.Add(0);
  h.FoldInto(ma, 1.0);
  h.Add(HashKey{1} << 63);
  h.FoldInto(ma, 1.0);
  EXPECT_NEAR(ma[0], 0.0, 1e-12) << "alpha=1 keeps only the current window";
  EXPECT_NEAR(ma[2], 1.0, 1e-12);
}

TEST(CdfPartition, UniformPdfGivesEqualRanges) {
  std::vector<double> pdf(64, 1.0);
  auto cdf = ConstructCdf(pdf);
  auto table = PartitionCdf(cdf, {0, 1, 2, 3});
  // Each server's range should span ~1/4 of the keyspace.
  for (int s = 0; s < 4; ++s) {
    double frac = static_cast<double>(table.RangeOf(s).Width()) /
                  std::pow(2.0, 64);
    EXPECT_NEAR(frac, 0.25, 0.02) << "server " << s;
  }
}

TEST(CdfPartition, ZeroMassFallsBackToUniform) {
  std::vector<double> pdf(32, 0.0);
  auto cdf = ConstructCdf(pdf);
  auto table = PartitionCdf(cdf, {0, 1});
  EXPECT_NEAR(static_cast<double>(table.RangeOf(0).Width()) / std::pow(2.0, 64), 0.5, 0.05);
}

TEST(CdfPartition, HotRegionGetsNarrowRange) {
  // Fig. 3: popularity around two regions narrows their owners' ranges.
  std::vector<double> pdf(100, 0.1);
  for (int b = 28; b < 32; ++b) pdf[static_cast<std::size_t>(b)] = 10.0;  // hot region ~30%
  auto cdf = ConstructCdf(pdf);
  auto table = PartitionCdf(cdf, {0, 1, 2, 3, 4});

  // The server whose range covers the hot region must have a much narrower
  // range than the widest server.
  HashKey hot_key = static_cast<HashKey>(0.30 * std::pow(2.0, 64));
  int hot_server = table.Owner(hot_key);
  std::uint64_t hot_width = table.RangeOf(hot_server).Width();
  std::uint64_t max_width = 0;
  for (int s = 0; s < 5; ++s) max_width = std::max(max_width, table.RangeOf(s).Width());
  EXPECT_LT(static_cast<double>(hot_width), 0.5 * static_cast<double>(max_width));
}

TEST(CdfPartition, PointMassYieldsEmptyRanges) {
  // The paper's extreme case: one hash key is the only hot spot; interior
  // servers end up with (near-)empty ranges like [40,40).
  std::vector<double> pdf(1000, 0.0);
  pdf[400] = 100.0;
  auto cdf = ConstructCdf(pdf);
  auto table = PartitionCdf(cdf, {0, 1, 2, 3});
  // All four ranges must still tile the ring: every key has an owner.
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_GE(table.Owner(rng.Next()), 0);
  // Middle servers own slivers inside bin 400: each range is tiny.
  double bin_width = std::pow(2.0, 64) / 1000.0;
  EXPECT_LT(static_cast<double>(table.RangeOf(1).Width()), bin_width + 1);
  EXPECT_LT(static_cast<double>(table.RangeOf(2).Width()), bin_width + 1);
}

// Property: the partition always assigns each segment equal probability
// mass under the PDF it was built from.
class CdfEqualProbability : public ::testing::TestWithParam<int> {};

TEST_P(CdfEqualProbability, SegmentsCarryEqualMass) {
  int num_servers = GetParam();
  Rng rng(static_cast<std::uint64_t>(num_servers));
  std::vector<double> pdf(512);
  for (auto& v : pdf) v = rng.NextDouble() + 0.01;
  auto cdf = ConstructCdf(pdf);
  std::vector<int> servers;
  for (int i = 0; i < num_servers; ++i) servers.push_back(i);
  auto bounds = CdfBoundaries(cdf, static_cast<std::size_t>(num_servers));

  // Mass of segment i under the PDF (measured by sampling the CDF at the
  // boundaries via interpolation) must be ~ total/num_servers.
  auto cdf_at = [&](HashKey k) {
    double pos = static_cast<double>(k) / std::pow(2.0, 64) * 512.0;
    auto bin = static_cast<std::size_t>(pos);
    if (bin >= 512) bin = 511;
    double below = bin == 0 ? 0.0 : cdf[bin - 1];
    return below + (cdf[bin] - below) * (pos - static_cast<double>(bin));
  };
  double total = cdf.back();
  for (int i = 0; i + 1 < num_servers; ++i) {
    double lo = cdf_at(bounds[static_cast<std::size_t>(i)]);
    double hi = cdf_at(bounds[static_cast<std::size_t>(i) + 1]);
    EXPECT_NEAR(hi - lo, total / num_servers, total * 0.01)
        << "segment " << i << " of " << num_servers;
  }
}

INSTANTIATE_TEST_SUITE_P(ServerCounts, CdfEqualProbability,
                         ::testing::Values(2, 3, 5, 8, 16, 40));

RangeTable UniformTable(int n) {
  std::vector<std::pair<int, HashKey>> positions;
  for (int i = 0; i < n; ++i) {
    positions.emplace_back(i, static_cast<HashKey>(i + 1) * (~HashKey{0} / static_cast<HashKey>(n)));
  }
  return RangeTable::FromPositions(positions);
}

TEST(LafSchedulerTest, LocalitySameKeySameServer) {
  LafOptions opts;
  opts.window = 1000;  // no repartition during this test
  LafScheduler laf({0, 1, 2, 3}, UniformTable(4), opts);
  HashKey k = KeyOf("popular-block");
  int first = laf.Assign(k);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(laf.Assign(k), first);
}

TEST(LafSchedulerTest, RepartitionsEveryWindow) {
  LafOptions opts;
  opts.window = 10;
  LafScheduler laf({0, 1, 2}, UniformTable(3), opts);
  Rng rng(2);
  for (int i = 0; i < 35; ++i) laf.Assign(rng.Next());
  EXPECT_EQ(laf.repartitions(), 3u);
}

TEST(LafSchedulerTest, SkewedStreamRebalances) {
  // All accesses hit keys near one point: after re-partitioning, tasks
  // spread across servers (the paper's hot-spot replication effect).
  LafOptions opts;
  opts.window = 64;
  opts.alpha = 1.0;  // adapt immediately
  opts.num_bins = 512;
  LafScheduler laf({0, 1, 2, 3}, UniformTable(4), opts);

  Rng rng(6);
  HashKey hot = HashKey{1} << 62;
  std::map<int, int> counts;
  for (int i = 0; i < 2000; ++i) {
    // Keys in a hot band covering ~1/16 of the keyspace (≈32 of the 512
    // histogram bins — comfortably above LAF's bin resolution).
    HashKey k = hot + (rng.Next() >> 4);
    ++counts[laf.Assign(k)];
  }
  // After adaptation every server should receive a meaningful share.
  EXPECT_EQ(counts.size(), 4u);
  for (const auto& [server, count] : counts) {
    EXPECT_GT(count, 2000 / 16) << "server " << server << " starved";
  }
  double stddev = CountStdDev(laf.assigned_counts());
  EXPECT_LT(stddev, 2000.0 * 0.15) << "LAF should be roughly balanced";
}

TEST(LafSchedulerTest, AlphaZeroKeepsStaticRanges) {
  LafOptions opts;
  opts.window = 16;
  opts.alpha = 0.0;
  LafScheduler laf({0, 1, 2, 3}, UniformTable(4), opts);
  RangeTable initial = laf.ranges();
  Rng rng(9);
  for (int i = 0; i < 100; ++i) laf.Assign(rng.Next() >> 32);  // skewed low keys
  // alpha = 0: moving average stays zero => CDF uniform => ranges equal
  // quarters, i.e. behaviourally static (paper §II-E).
  for (int s = 0; s < 4; ++s) {
    double frac = static_cast<double>(laf.ranges().RangeOf(s).Width()) / std::pow(2.0, 64);
    EXPECT_NEAR(frac, 0.25, 0.02);
  }
  (void)initial;
}

TEST(DelaySchedulerTest, PreferredFollowsStaticRanges) {
  RangeTable t = UniformTable(4);
  DelayScheduler delay({0, 1, 2, 3}, t);
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    HashKey k = rng.Next();
    EXPECT_EQ(delay.Preferred(k), t.Owner(k));
  }
}

TEST(DelaySchedulerTest, FallbackPicksFreest) {
  DelayScheduler delay({0, 1, 2, 3}, UniformTable(4));
  EXPECT_EQ(delay.Fallback({0, 2, 5, 1}), 2);
  EXPECT_EQ(delay.Fallback({0, 0, 0, 0}), -1);  // everyone saturated
  delay.RecordAssignment(2);
  delay.RecordAssignment(2);
  EXPECT_EQ(delay.assigned_counts()[2], 2u);
}

TEST(FairSchedulerTest, PrefersReplicaHolders) {
  FairScheduler fair(4);
  // Holder 2 has free slots: locality wins.
  EXPECT_EQ(fair.Assign({2, 3}, {1, 1, 1, 0}), 2);
  // No holder free: least-loaded free server.
  int s = fair.Assign({3}, {1, 1, 1, 0});
  EXPECT_TRUE(s == 0 || s == 1);
  // Nothing free at all.
  EXPECT_EQ(fair.Assign({0}, {0, 0, 0, 0}), -1);
}

TEST(CountStdDevTest, Values) {
  EXPECT_DOUBLE_EQ(CountStdDev({}), 0.0);
  EXPECT_DOUBLE_EQ(CountStdDev({5, 5, 5}), 0.0);
  EXPECT_NEAR(CountStdDev({0, 10}), 5.0, 1e-12);
}

// ---- SlotArbiter: slot threads, accounting and weighted fairness -------

namespace {
/// Spin until `fn()` is true or ~2 s elapse (bodies run on the arbiter's
/// slot threads; their effects are the only observable ordering signal).
bool Eventually(const std::function<bool()>& fn) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!fn()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// One submitted body. Records the status it was called with; when granted
/// a slot it holds the slot until Release().
class Probe {
 public:
  SlotArbiter::RunFn Body() {
    return [this](Status s) {
      code_.store(static_cast<int>(s.code()));
      calls_.fetch_add(1);
      if (s.ok()) held_.wait();
    };
  }
  void Release() { release_.set_value(); }
  /// Called with Ok: running on a slot thread, holding the slot.
  bool Running() const { return calls_.load() == 1 && code() == ErrorCode::kOk; }
  int calls() const { return calls_.load(); }
  ErrorCode code() const { return static_cast<ErrorCode>(code_.load()); }

 private:
  std::promise<void> release_;
  std::shared_future<void> held_ = release_.get_future().share();
  std::atomic<int> calls_{0};
  std::atomic<int> code_{-1};
};
}  // namespace

// Each test declares its probes before the arbiter, so the arbiter joins its
// slot threads before any probe goes away.

TEST(SlotArbiter, AcquireReleaseAccounting) {
  Probe a, b, c, d;
  SlotArbiter arb;
  arb.AddWorker(0, 2, 1);
  EXPECT_EQ(arb.FreeSlots(0, SlotKind::kMap), 2);
  EXPECT_EQ(arb.FreeSlots(0, SlotKind::kReduce), 1);
  arb.Submit(0, SlotKind::kMap, "a", nullptr, nullptr, a.Body());
  arb.Submit(0, SlotKind::kMap, "a", nullptr, nullptr, b.Body());
  ASSERT_TRUE(Eventually([&] { return a.Running() && b.Running(); }));
  EXPECT_EQ(arb.FreeSlots(0, SlotKind::kMap), 0);
  EXPECT_EQ(arb.FreeSlots(0, SlotKind::kReduce), 1);
  EXPECT_EQ(arb.InUse("a"), 2);
  // Both map slots are busy: a third attempt queues and holds no slot.
  arb.Submit(0, SlotKind::kMap, "a", nullptr, nullptr, c.Body());
  EXPECT_EQ(arb.Waiting(), 1u);
  EXPECT_EQ(c.calls(), 0);
  a.Release();
  ASSERT_TRUE(Eventually([&] { return c.Running(); }));
  EXPECT_EQ(arb.Waiting(), 0u);
  EXPECT_EQ(arb.InUse("a"), 2);
  b.Release();
  c.Release();
  ASSERT_TRUE(Eventually([&] { return arb.InUse("a") == 0; }));
  EXPECT_EQ(arb.FreeSlots(0, SlotKind::kMap), 2);
  // An unknown worker refuses at once, on the submitting thread.
  arb.Submit(9, SlotKind::kMap, "a", nullptr, nullptr, d.Body());
  EXPECT_EQ(d.calls(), 1);
  EXPECT_EQ(d.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(arb.FreeSlots(9, SlotKind::kMap), 0);
}

TEST(SlotArbiter, ContendedSlotGoesToSmallestShare) {
  // b holds nothing, a holds two slots elsewhere: when the contended slot on
  // worker 0 frees, max-min fairness must hand it to b, although a queued
  // first.
  Probe a1, a2, c, a, b;
  SlotArbiter arb;
  arb.AddWorker(0, 1, 0);
  arb.AddWorker(1, 2, 0);
  arb.Submit(1, SlotKind::kMap, "a", nullptr, nullptr, a1.Body());
  arb.Submit(1, SlotKind::kMap, "a", nullptr, nullptr, a2.Body());
  arb.Submit(0, SlotKind::kMap, "c", nullptr, nullptr, c.Body());  // the contended slot
  ASSERT_TRUE(Eventually([&] { return a1.Running() && a2.Running() && c.Running(); }));
  arb.Submit(0, SlotKind::kMap, "a", nullptr, nullptr, a.Body());
  arb.Submit(0, SlotKind::kMap, "b", nullptr, nullptr, b.Body());
  EXPECT_EQ(arb.Waiting(), 2u);

  c.Release();
  ASSERT_TRUE(Eventually([&] { return b.Running(); })) << "slot went to the larger-share user";
  EXPECT_EQ(a.calls(), 0);
  b.Release();
  ASSERT_TRUE(Eventually([&] { return a.Running(); }));
  for (Probe* p : {&a, &a1, &a2}) p->Release();
  ASSERT_TRUE(Eventually([&] { return arb.InUse("a") == 0; }));
  EXPECT_EQ(arb.InUse("b"), 0);
}

TEST(SlotArbiter, WeightScalesShare) {
  // a and b each hold one slot, but b's weight is 4: b's share (1/4) is
  // smaller than a's (1/1), so the freed contended slot goes to b.
  Probe ha, hb, c, a, b;
  SlotArbiter arb;
  arb.AddWorker(0, 1, 0);
  arb.AddWorker(1, 2, 0);
  arb.SetWeight("b", 4.0);
  arb.Submit(1, SlotKind::kMap, "a", nullptr, nullptr, ha.Body());
  arb.Submit(1, SlotKind::kMap, "b", nullptr, nullptr, hb.Body());
  arb.Submit(0, SlotKind::kMap, "c", nullptr, nullptr, c.Body());
  ASSERT_TRUE(Eventually([&] { return ha.Running() && hb.Running() && c.Running(); }));
  arb.Submit(0, SlotKind::kMap, "a", nullptr, nullptr, a.Body());
  arb.Submit(0, SlotKind::kMap, "b", nullptr, nullptr, b.Body());
  c.Release();
  ASSERT_TRUE(Eventually([&] { return b.Running(); }))
      << "weight-4 user should win the contended slot";
  EXPECT_EQ(a.calls(), 0);
  b.Release();
  ASSERT_TRUE(Eventually([&] { return a.Running(); }));
  for (Probe* p : {&a, &ha, &hb}) p->Release();
  ASSERT_TRUE(Eventually([&] { return arb.InUse("a") == 0 && arb.InUse("b") == 0; }));
}

TEST(SlotArbiter, SameUserWaitersAreFifo) {
  Probe holder;
  std::vector<int> order;
  Mutex order_mu{Rank::kTest, "test.order_mu"};
  SlotArbiter arb;
  arb.AddWorker(0, 1, 0);
  arb.Submit(0, SlotKind::kMap, "u", nullptr, nullptr, holder.Body());
  ASSERT_TRUE(Eventually([&] { return holder.Running(); }));
  constexpr int kQueued = 5;
  for (int i = 0; i < kQueued; ++i) {
    arb.Submit(0, SlotKind::kMap, "u", nullptr, nullptr, [&order, &order_mu, i](Status s) {
      ASSERT_TRUE(s.ok());
      MutexLock l(order_mu);
      order.push_back(i);
    });
  }
  holder.Release();
  ASSERT_TRUE(Eventually([&] {
    MutexLock l(order_mu);
    return order.size() == kQueued;
  }));
  {
    // Scoped: the arbiter's destructor takes SlotArbiter::mu_, which may not
    // be acquired while the leaf-ranked test lock is held.
    MutexLock l(order_mu);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4})) << "same-user grants must stay FIFO";
  }
}

TEST(SlotArbiter, RemoveWorkerFailsWaitersAndAbsorbsReleases) {
  Probe running, queued, late;
  SlotArbiter arb;
  arb.AddWorker(0, 1, 0);
  arb.Submit(0, SlotKind::kMap, "u", nullptr, nullptr, running.Body());
  ASSERT_TRUE(Eventually([&] { return running.Running(); }));
  arb.Submit(0, SlotKind::kMap, "u", nullptr, nullptr, queued.Body());
  arb.RemoveWorker(0);
  // The queued entry is withdrawn on the removing thread.
  EXPECT_EQ(queued.calls(), 1);
  EXPECT_EQ(queued.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(arb.Waiting(), 0u);
  EXPECT_EQ(arb.InUse("u"), 1);
  // The running body finishes; its slot is absorbed, never granted again.
  running.Release();
  ASSERT_TRUE(Eventually([&] { return arb.InUse("u") == 0; }));
  EXPECT_EQ(arb.FreeSlots(0, SlotKind::kMap), 0);
  arb.Submit(0, SlotKind::kMap, "u", nullptr, nullptr, late.Body());
  EXPECT_EQ(late.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(running.calls(), 1);
}

TEST(SlotArbiter, CancellationTokenAbortsWait) {
  Probe holder, poked, at_submit, at_grant;
  std::atomic<bool> cancel{false};
  std::atomic<bool> late{false};
  SlotArbiter arb;
  arb.AddWorker(0, 1, 0);
  arb.Submit(0, SlotKind::kMap, "u", nullptr, nullptr, holder.Body());
  ASSERT_TRUE(Eventually([&] { return holder.Running(); }));

  // Set while queued: Poke withdraws the entry.
  arb.Submit(0, SlotKind::kMap, "u", &cancel, nullptr, poked.Body());
  EXPECT_EQ(arb.Waiting(), 1u);
  cancel.store(true);
  arb.Poke();
  EXPECT_EQ(poked.code(), ErrorCode::kCancelled);
  EXPECT_EQ(arb.Waiting(), 0u);
  EXPECT_EQ(arb.InUse("u"), 1) << "a cancelled entry must not be charged a slot";

  // Set at submit: refused at once.
  arb.Submit(0, SlotKind::kMap, "u", nullptr, &cancel, at_submit.Body());
  EXPECT_EQ(at_submit.code(), ErrorCode::kCancelled);

  // Set at grant time, without a poke: the slot thread completes it
  // cancelled and the slot stays free.
  arb.Submit(0, SlotKind::kMap, "u", nullptr, &late, at_grant.Body());
  late.store(true);
  holder.Release();
  ASSERT_TRUE(Eventually([&] { return at_grant.calls() == 1; }));
  EXPECT_EQ(at_grant.code(), ErrorCode::kCancelled);
  ASSERT_TRUE(Eventually([&] { return arb.InUse("u") == 0; }));
  EXPECT_EQ(arb.FreeSlots(0, SlotKind::kMap), 1);
  for (Probe* p : {&holder, &poked, &at_submit, &at_grant}) EXPECT_EQ(p->calls(), 1);
}

// A queue that builds up behind a busy slot drains without wakeups: the
// slot thread that finishes a body takes the next grant itself. Only the
// first submit, to an idle worker, may signal a sleeping thread.
TEST(SlotArbiter, BoundedWakeupsPerRelease) {
  constexpr int kQueued = 8;
  Probe holder;
  std::atomic<int> done{0};
  SlotArbiter arb;
  arb.AddWorker(0, 1, 0);
  const std::uint64_t before = arb.WakeupSignals();
  arb.Submit(0, SlotKind::kMap, "u", nullptr, nullptr, holder.Body());
  ASSERT_TRUE(Eventually([&] { return holder.Running(); }));
  for (int i = 0; i < kQueued; ++i) {
    arb.Submit(0, SlotKind::kMap, "u", nullptr, nullptr, [&done](Status s) {
      EXPECT_TRUE(s.ok());
      done.fetch_add(1);
    });
  }
  EXPECT_EQ(arb.Waiting(), static_cast<std::size_t>(kQueued));
  holder.Release();
  ASSERT_TRUE(Eventually([&] { return done.load() == kQueued; }));
  EXPECT_LE(arb.WakeupSignals() - before, 1u);
  EXPECT_EQ(arb.Waiting(), 0u);
}

}  // namespace
}  // namespace eclipse::sched
