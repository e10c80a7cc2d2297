// The DHT file system running over the loopback TCP transport: identical
// node code, real wire. Verifies the transport abstraction holds end to
// end (upload/read/replication/objects) and that crashes look the same.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "dfs/dfs_client.h"
#include "dfs/dfs_node.h"
#include "net/tcp_transport.h"

namespace eclipse::dfs {
namespace {

class DfsOverTcpTest : public ::testing::Test {
 protected:
  void Boot(int n, Bytes block_size = 128) {
    for (int i = 0; i < n; ++i) ring_.AddServer(i);
    for (int i = 0; i < n; ++i) {
      dispatchers_.push_back(std::make_unique<net::Dispatcher>());
      nodes_.push_back(std::make_unique<DfsNode>(i, *dispatchers_.back()));
      transport_.Register(i, dispatchers_.back()->AsHandler());
    }
    DfsClientOptions opts;
    opts.default_block_size = block_size;
    client_ = std::make_unique<DfsClient>(1000, transport_, [this] { return std::make_shared<const dht::Ring>(ring_); }, opts);
  }

  net::TcpTransport transport_;
  dht::Ring ring_;
  std::vector<std::unique_ptr<net::Dispatcher>> dispatchers_;
  std::vector<std::unique_ptr<DfsNode>> nodes_;
  std::unique_ptr<DfsClient> client_;
};

TEST_F(DfsOverTcpTest, UploadReadRoundTrip) {
  Boot(4);
  Rng rng(3);
  std::string content;
  for (int i = 0; i < 60; ++i) content += "record " + std::to_string(rng.Next()) + "\n";

  ASSERT_TRUE(client_->Upload("tcp-file", content).ok());
  auto back = client_->ReadFile("tcp-file");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), content);
}

TEST_F(DfsOverTcpTest, ObjectsAndRangesOverTcp) {
  Boot(3);
  HashKey key = KeyOf("obj");
  ASSERT_TRUE(client_->PutObject("obj", key, std::string(10000, 'x')).ok());
  auto got = client_->GetObject("obj", key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().size(), 10000u);

  ASSERT_TRUE(client_->Upload("ranged", "0123456789abcdef", 8, true).ok());
  auto meta = client_->GetMetadata("ranged").value();
  auto range = client_->ReadBlockRange(meta, 1, 2, 4);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range.value(), "abcd");
}

TEST_F(DfsOverTcpTest, CrashedServerFallsBackToReplicas) {
  Boot(5, 100);
  std::string content(450, 'z');
  ASSERT_TRUE(client_->Upload("f", content).ok());
  auto meta = client_->GetMetadata("f").value();

  int owner = ring_.Owner(meta.KeyOfBlock(0));
  transport_.Register(owner, nullptr);  // close its listener
  ring_.RemoveServer(owner);

  auto back = client_->ReadFile("f");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), content);
}

}  // namespace
}  // namespace eclipse::dfs
