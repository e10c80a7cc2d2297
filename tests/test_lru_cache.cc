#include "cache/lru_cache.h"

#include <gtest/gtest.h>

#include "cache/cache_node.h"
#include "net/transport.h"

namespace eclipse::cache {
namespace {

TEST(LruCache, PutGetHitMiss) {
  LruCache c(100);
  EXPECT_TRUE(c.Put("a", 1, "hello", EntryKind::kInput));
  CacheValue got = c.Get("a", EntryKind::kInput);
  ASSERT_TRUE(got != nullptr);
  EXPECT_EQ(*got, "hello");
  EXPECT_EQ(c.Get("b", EntryKind::kInput), nullptr);
  auto s = c.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_DOUBLE_EQ(s.HitRatio(), 0.5);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache c(10);
  c.Put("a", 1, "1234", EntryKind::kInput);   // 4 bytes
  c.Put("b", 2, "5678", EntryKind::kInput);   // 8 total
  c.Get("a", EntryKind::kInput);               // promote a
  c.Put("c", 3, "abcd", EntryKind::kInput);   // needs eviction: b goes
  EXPECT_TRUE(c.Contains("a"));
  EXPECT_FALSE(c.Contains("b"));
  EXPECT_TRUE(c.Contains("c"));
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_LE(c.used(), c.capacity());
}

TEST(LruCache, RejectsOversizedObject) {
  LruCache c(4);
  EXPECT_FALSE(c.Put("big", 1, "12345", EntryKind::kInput));
  EXPECT_EQ(c.Count(), 0u);
}

TEST(LruCache, ZeroCapacityCachesNothing) {
  LruCache c(0);
  EXPECT_FALSE(c.Put("a", 1, "x", EntryKind::kInput));
  EXPECT_EQ(c.Get("a", EntryKind::kInput), nullptr);
}

TEST(LruCache, OverwriteUpdatesBytes) {
  LruCache c(100);
  c.Put("a", 1, "12345678", EntryKind::kInput);
  c.Put("a", 1, "12", EntryKind::kInput);
  EXPECT_EQ(c.used(), 2u);
  EXPECT_EQ(c.Count(), 1u);
}

TEST(LruCache, PerPartitionStats) {
  LruCache c(1000);
  c.Put("in", 1, "x", EntryKind::kInput);
  c.Put("out", 2, "y", EntryKind::kOutput);
  c.Get("in", EntryKind::kInput);
  c.Get("out", EntryKind::kOutput);
  c.Get("out", EntryKind::kOutput);
  EXPECT_EQ(c.stats(EntryKind::kInput).hits, 1u);
  EXPECT_EQ(c.stats(EntryKind::kOutput).hits, 2u);
  EXPECT_EQ(c.stats().hits, 3u);
}

// Regression: misses used to be charged to the iCache partition regardless
// of what the caller was looking for, understating oCache miss traffic.
TEST(LruCache, MissChargedToExpectedKind) {
  LruCache c(1000);
  EXPECT_EQ(c.Get("nope", EntryKind::kOutput), nullptr);
  EXPECT_EQ(c.stats(EntryKind::kOutput).misses, 1u);
  EXPECT_EQ(c.stats(EntryKind::kInput).misses, 0u);
  EXPECT_EQ(c.Get("nada", EntryKind::kInput), nullptr);
  EXPECT_EQ(c.stats(EntryKind::kInput).misses, 1u);
}

// Regression: ResetStats used to clear hard-coded slots [0] and [1]; it must
// clear every partition it reports.
TEST(LruCache, ResetStatsClearsAllPartitions) {
  LruCache c(1000);
  c.Put("in", 1, "x", EntryKind::kInput);
  c.Put("out", 2, "y", EntryKind::kOutput);
  c.Get("in", EntryKind::kInput);
  c.Get("out", EntryKind::kOutput);
  c.Get("miss", EntryKind::kOutput);
  c.ResetStats();
  for (auto kind : {EntryKind::kInput, EntryKind::kOutput}) {
    auto s = c.stats(kind);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.inserts, 0u);
    EXPECT_EQ(s.evictions, 0u);
  }
  EXPECT_EQ(c.stats().hits, 0u);
}

TEST(LruCache, ResizeEvicts) {
  LruCache c(100);
  c.Put("a", 1, std::string(40, 'a'), EntryKind::kInput);
  c.Put("b", 2, std::string(40, 'b'), EntryKind::kInput);
  c.Resize(50);
  EXPECT_FALSE(c.Contains("a"));  // LRU victim
  EXPECT_TRUE(c.Contains("b"));
  EXPECT_EQ(c.capacity(), 50u);
}

TEST(LruCache, ExtractRangePullsOnlyInRange) {
  LruCache c(1000);
  c.Put("low", 100, "L", EntryKind::kInput);
  c.Put("mid", 500, "M", EntryKind::kOutput);
  c.Put("high", 900, "H", EntryKind::kInput);
  auto moved = c.ExtractRange(KeyRange{400, 600, false});
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].first.id, "mid");
  EXPECT_EQ(moved[0].first.kind, EntryKind::kOutput);
  ASSERT_TRUE(moved[0].second != nullptr);
  EXPECT_EQ(*moved[0].second, "M");
  EXPECT_FALSE(c.Contains("mid"));
  EXPECT_TRUE(c.Contains("low"));
  EXPECT_TRUE(c.Contains("high"));
  EXPECT_EQ(c.used(), 2u);
}

TEST(LruCache, PlaceholderAccountsSizeWithoutPayload) {
  LruCache c(100);
  EXPECT_TRUE(c.PutPlaceholder("blk", 1, 60, EntryKind::kInput));
  EXPECT_EQ(c.used(), 60u);
  // A second 60-byte placeholder evicts the first.
  EXPECT_TRUE(c.PutPlaceholder("blk2", 2, 60, EntryKind::kInput));
  EXPECT_FALSE(c.Contains("blk"));
}

// Regression: Get used to hand placeholder entries (no payload, nonzero
// size) to data-path callers as real hits with an empty string. It must
// miss; the Touch probe is where a placeholder still counts as resident.
TEST(LruCache, GetSkipsPlaceholdersTouchSeesThem) {
  LruCache c(100);
  ASSERT_TRUE(c.PutPlaceholder("blk", 1, 60, EntryKind::kInput));
  EXPECT_EQ(c.Get("blk", EntryKind::kInput), nullptr);
  EXPECT_EQ(c.stats(EntryKind::kInput).misses, 1u);
  EXPECT_TRUE(c.Touch("blk", EntryKind::kInput));
  EXPECT_EQ(c.stats(EntryKind::kInput).hits, 1u);
  EXPECT_FALSE(c.Touch("absent", EntryKind::kInput));
  // Backfilling the placeholder with real bytes turns Get into a hit.
  ASSERT_TRUE(c.Put("blk", 1, std::string(60, 'x'), EntryKind::kInput));
  CacheValue got = c.Get("blk", EntryKind::kInput);
  ASSERT_TRUE(got != nullptr);
  EXPECT_EQ(got->size(), 60u);
}

// Zero-copy contract: repeated hits return the same shared block, and a
// handle taken before an eviction keeps the bytes alive afterwards.
TEST(LruCache, GetReturnsSharedHandleNotACopy) {
  LruCache c(1000);
  c.Put("a", 1, "same-bytes", EntryKind::kInput);
  CacheValue first = c.Get("a", EntryKind::kInput);
  CacheValue second = c.Get("a", EntryKind::kInput);
  ASSERT_TRUE(first != nullptr);
  EXPECT_EQ(first.get(), second.get());  // one block, two refcounts
}

TEST(LruCache, EvictionKeepsOutstandingReadersAlive) {
  LruCache c(10);
  c.Put("a", 1, "0123456789", EntryKind::kInput);
  CacheValue held = c.Get("a", EntryKind::kInput);
  ASSERT_TRUE(held != nullptr);
  c.Put("b", 2, "9876543210", EntryKind::kInput);  // evicts a entirely
  EXPECT_FALSE(c.Contains("a"));
  EXPECT_EQ(*held, "0123456789");  // reader unaffected by the eviction
  EXPECT_EQ(held.use_count(), 1);  // cache dropped its reference
}

TEST(LruCache, PutSharedHandleDoesNotCopy) {
  LruCache c(1000);
  auto block = std::make_shared<const std::string>("shared-block");
  ASSERT_TRUE(c.Put("a", 1, block, EntryKind::kOutput));
  CacheValue got = c.Get("a", EntryKind::kOutput);
  EXPECT_EQ(got.get(), block.get());  // cache stored the same object
}

TEST(LruCache, EntriesMostRecentFirst) {
  LruCache c(1000);
  c.Put("a", 1, "1", EntryKind::kInput);
  c.Put("b", 2, "2", EntryKind::kInput);
  c.Get("a", EntryKind::kInput);
  auto entries = c.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].id, "a");
  EXPECT_EQ(entries[1].id, "b");
}

TEST(CacheNodeTest, RemoteFetch) {
  net::InProcessTransport transport;
  net::Dispatcher d;
  CacheNode node(1, d, 1000);
  transport.Register(1, d.AsHandler());
  node.local().Put("obj", 5, "cached-data", EntryKind::kOutput);

  CacheClient client(0, transport);
  CacheValue got = client.FetchFrom(1, "obj");
  ASSERT_TRUE(got != nullptr);
  EXPECT_EQ(*got, "cached-data");
  EXPECT_EQ(client.FetchFrom(1, "missing"), nullptr);
  EXPECT_EQ(client.FetchFrom(9, "obj"), nullptr);  // dead peer
}

TEST(CacheNodeTest, RemoteFetchSkipsPlaceholders) {
  net::InProcessTransport transport;
  net::Dispatcher d;
  CacheNode node(1, d, 1000);
  transport.Register(1, d.AsHandler());
  node.local().PutPlaceholder("ph", 5, 64, EntryKind::kOutput);

  CacheClient client(0, transport);
  // A placeholder has no bytes to serve; the peer must answer not-found
  // rather than an empty payload masquerading as the block.
  EXPECT_EQ(client.FetchFrom(1, "ph"), nullptr);
}

/// Two cache nodes on one in-process transport: a donor (1) and the node a
/// range migrates to (2). The client is the receiving worker's own endpoint,
/// as in WorkerServer::CacheMigrateFrom.
struct MigrationPair {
  MigrationPair() {
    transport.Register(1, donor_dispatcher.AsHandler());
    transport.Register(2, mine_dispatcher.AsHandler());
  }
  net::InProcessTransport transport;
  net::Dispatcher donor_dispatcher;
  net::Dispatcher mine_dispatcher;
  CacheNode donor{1, donor_dispatcher, 1000};
  CacheNode mine{2, mine_dispatcher, 1000};
  CacheClient client{2, transport};
};

TEST(CacheNodeTest, MigrateRangeMovesEntries) {
  MigrationPair p;
  p.donor.local().Put("in-range", 500, "A", EntryKind::kInput);
  p.donor.local().Put("out-of-range", 50, "B", EntryKind::kInput);

  std::size_t moved = p.client.MigrateRemote(1, KeyRange{400, 600, false}, 2);
  EXPECT_EQ(moved, 1u);
  EXPECT_TRUE(p.mine.local().Contains("in-range"));
  EXPECT_FALSE(p.mine.local().Contains("out-of-range"));
  EXPECT_FALSE(p.donor.local().Contains("in-range"));
  EXPECT_TRUE(p.donor.local().Contains("out-of-range"));
}

TEST(CacheNodeTest, MigrateRangePreservesPlaceholders) {
  MigrationPair p;
  p.donor.local().PutPlaceholder("ph", 500, 64, EntryKind::kInput);

  std::size_t moved = p.client.MigrateRemote(1, KeyRange{400, 600, false}, 2);
  EXPECT_EQ(moved, 1u);
  // Still a placeholder on the receiving side: size accounted, no payload.
  LruCache& mine = p.mine.local();
  EXPECT_TRUE(mine.Contains("ph"));
  EXPECT_EQ(mine.used(), 64u);
  EXPECT_EQ(mine.Get("ph", EntryKind::kInput), nullptr);
  EXPECT_TRUE(mine.Touch("ph", EntryKind::kInput));
}

}  // namespace
}  // namespace eclipse::cache
