#include "dfs/block_store.h"

#include <gtest/gtest.h>

#include <thread>

#include "dfs/metadata.h"

namespace eclipse::dfs {
namespace {

using namespace std::chrono_literals;

TEST(BlockStore, PutGetErase) {
  BlockStore store;
  store.Put("a", 1, "hello");
  auto got = store.Get("a");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "hello");
  EXPECT_TRUE(store.Contains("a"));
  EXPECT_EQ(store.TotalBytes(), 5u);
  store.Erase("a");
  EXPECT_FALSE(store.Contains("a"));
  EXPECT_EQ(store.Get("a").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(store.TotalBytes(), 0u);
}

TEST(BlockStore, OverwriteAdjustsBytes) {
  BlockStore store;
  store.Put("a", 1, "12345");
  store.Put("a", 1, "12");
  EXPECT_EQ(store.TotalBytes(), 2u);
  EXPECT_EQ(store.Count(), 1u);
}

TEST(BlockStore, TtlExpiry) {
  BlockStore store;
  store.Put("t", 1, "x", 20ms);
  EXPECT_TRUE(store.Contains("t"));
  std::this_thread::sleep_for(40ms);
  EXPECT_FALSE(store.Contains("t"));
  EXPECT_EQ(store.Get("t").status().code(), ErrorCode::kExpired);
  // A second Get after expiry-erase reports NotFound.
  EXPECT_EQ(store.Get("t").status().code(), ErrorCode::kNotFound);
}

TEST(BlockStore, SweepDropsExpiredOnly) {
  BlockStore store;
  store.Put("keep", 1, "abc");
  store.Put("drop1", 2, "d", 10ms);
  store.Put("drop2", 3, "e", 10ms);
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(store.Sweep(), 2u);
  EXPECT_TRUE(store.Contains("keep"));
  EXPECT_EQ(store.Count(), 1u);
}

TEST(BlockStore, ListSkipsExpiredBlocks) {
  BlockStore store;
  store.Put("durable", 10, "abcd");
  store.Put("temp", 20, "ef", 10min);
  store.Put("gone", 30, "g", 10ms);
  std::this_thread::sleep_for(30ms);
  auto infos = store.List();
  ASSERT_EQ(infos.size(), 2u);
  for (const auto& info : infos) {
    if (info.id == "durable") {
      EXPECT_EQ(info.size, 4u);
      EXPECT_EQ(info.key, 10u);
    } else {
      EXPECT_EQ(info.id, "temp");
      EXPECT_EQ(info.size, 2u);
      EXPECT_EQ(info.key, 20u);
    }
  }
}

TEST(Metadata, SerializeRoundTrip) {
  FileMetadata m;
  m.name = "corpus.txt";
  m.owner = "alice";
  m.public_read = false;
  m.size = 123456;
  m.block_size = 4096;
  m.num_blocks = NumBlocks(m.size, m.block_size);

  BinaryWriter w;
  m.Serialize(w);
  BinaryReader r(w.str());
  auto back = FileMetadata::Deserialize(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), m);
}

TEST(Metadata, NumBlocksEdges) {
  EXPECT_EQ(NumBlocks(0, 100), 1u);    // empty file keeps one empty block
  EXPECT_EQ(NumBlocks(1, 100), 1u);
  EXPECT_EQ(NumBlocks(100, 100), 1u);
  EXPECT_EQ(NumBlocks(101, 100), 2u);
  EXPECT_EQ(NumBlocks(1000, 100), 10u);
  EXPECT_EQ(NumBlocks(5, 0), 0u);      // invalid block size
}

TEST(Metadata, BlockSizes) {
  FileMetadata m;
  m.size = 250;
  m.block_size = 100;
  m.num_blocks = 3;
  EXPECT_EQ(m.SizeOfBlock(0), 100u);
  EXPECT_EQ(m.SizeOfBlock(1), 100u);
  EXPECT_EQ(m.SizeOfBlock(2), 50u);
}

TEST(Metadata, BlockKeysSpread) {
  FileMetadata m;
  m.name = "f";
  EXPECT_NE(m.KeyOfBlock(0), m.KeyOfBlock(1));
  EXPECT_EQ(m.KeyOfBlock(0), BlockKey("f", 0));
  EXPECT_EQ(BlockId("f", 3), "f#3");
}

}  // namespace
}  // namespace eclipse::dfs
