// DHT file system integration tests over an in-process transport.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <thread>

#include "common/metrics.h"
#include "common/rng.h"
#include "dfs/dfs_client.h"
#include "dfs/recovery.h"

namespace eclipse::dfs {
namespace {

class DfsTest : public ::testing::TestWithParam<int> {
 protected:
  void Boot(int n, Bytes block_size = 64) {
    for (int i = 0; i < n; ++i) ring_.AddServer(i);
    for (int i = 0; i < n; ++i) {
      dispatchers_.push_back(std::make_unique<net::Dispatcher>());
      nodes_.push_back(std::make_unique<DfsNode>(i, *dispatchers_.back()));
      transport_.Register(i, dispatchers_.back()->AsHandler());
    }
    DfsClientOptions opts;
    opts.default_block_size = block_size;
    opts.user = "tester";
    client_ = std::make_unique<DfsClient>(1000, transport_, [this] { return std::make_shared<const dht::Ring>(ring_); }, opts);
  }

  void Crash(int id) {
    transport_.Register(id, nullptr);
    ring_.RemoveServer(id);
  }

  net::InProcessTransport transport_;
  dht::Ring ring_;
  std::vector<std::unique_ptr<net::Dispatcher>> dispatchers_;
  std::vector<std::unique_ptr<DfsNode>> nodes_;
  std::unique_ptr<DfsClient> client_;
};

std::string MakeContent(std::size_t bytes) {
  Rng rng(77);
  std::string s;
  s.reserve(bytes);
  while (s.size() < bytes) {
    s += "line-" + std::to_string(rng.Below(1000)) + "\n";
  }
  s.resize(bytes);
  return s;
}

TEST_P(DfsTest, UploadReadRoundTrip) {
  Boot(GetParam());
  std::string content = MakeContent(1000);
  ASSERT_TRUE(client_->Upload("data.txt", content).ok());
  auto back = client_->ReadFile("data.txt");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), content);
}

INSTANTIATE_TEST_SUITE_P(ClusterSizes, DfsTest, ::testing::Values(1, 2, 3, 5, 8, 16));

TEST_F(DfsTest, MetadataFields) {
  Boot(4, 128);
  std::string content = MakeContent(1000);
  ASSERT_TRUE(client_->Upload("f", content).ok());
  auto meta = client_->GetMetadata("f");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta.value().name, "f");
  EXPECT_EQ(meta.value().owner, "tester");
  EXPECT_EQ(meta.value().size, 1000u);
  EXPECT_EQ(meta.value().block_size, 128u);
  EXPECT_EQ(meta.value().num_blocks, 8u);  // ceil(1000/128)
}

TEST_F(DfsTest, DuplicateUploadRejected) {
  Boot(3);
  ASSERT_TRUE(client_->Upload("f", "abc").ok());
  EXPECT_EQ(client_->Upload("f", "xyz").code(), ErrorCode::kAlreadyExists);
}

TEST_F(DfsTest, MissingFileNotFound) {
  Boot(3);
  EXPECT_EQ(client_->ReadFile("ghost").status().code(), ErrorCode::kNotFound);
}

TEST_F(DfsTest, EmptyFile) {
  Boot(3);
  ASSERT_TRUE(client_->Upload("empty", "").ok());
  auto back = client_->ReadFile("empty");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), "");
}

TEST_F(DfsTest, BlocksReplicatedOnOwnerAndNeighbors) {
  Boot(5, 100);
  std::string content = MakeContent(450);
  ASSERT_TRUE(client_->Upload("f", content).ok());
  auto meta = client_->GetMetadata("f").value();

  for (std::uint64_t b = 0; b < meta.num_blocks; ++b) {
    HashKey key = meta.KeyOfBlock(b);
    auto expected = ring_.Replicas(key, 3);
    std::string id = BlockId("f", b);
    std::set<int> holders;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i]->blocks().Contains(id)) holders.insert(static_cast<int>(i));
    }
    EXPECT_EQ(holders, std::set<int>(expected.begin(), expected.end()))
        << "block " << b << " replica set";
  }
}

TEST_F(DfsTest, MetadataOnOwnerAndNeighbors) {
  Boot(5);
  ASSERT_TRUE(client_->Upload("somefile", "content here").ok());
  auto expected = ring_.Replicas(KeyOf("somefile"), 3);
  std::set<int> holders;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->GetMetadataLocal("somefile").ok()) holders.insert(static_cast<int>(i));
  }
  EXPECT_EQ(holders, std::set<int>(expected.begin(), expected.end()));
}

TEST_F(DfsTest, PermissionDeniedForPrivateFile) {
  Boot(4);
  ASSERT_TRUE(client_->Upload("secret", "classified", 64, /*public_read=*/false).ok());
  // Same user reads fine.
  EXPECT_TRUE(client_->ReadFile("secret").ok());
  // Another user is rejected at the metadata owner.
  DfsClientOptions other;
  other.user = "mallory";
  DfsClient intruder(1001, transport_, [this] { return std::make_shared<const dht::Ring>(ring_); }, other);
  EXPECT_EQ(intruder.ReadFile("secret").status().code(), ErrorCode::kPermission);
}

TEST_F(DfsTest, DeleteRemovesEverything) {
  Boot(4, 50);
  ASSERT_TRUE(client_->Upload("f", MakeContent(300)).ok());
  ASSERT_TRUE(client_->Delete("f").ok());
  EXPECT_EQ(client_->ReadFile("f").status().code(), ErrorCode::kNotFound);
  for (auto& node : nodes_) {
    EXPECT_EQ(node->blocks().Count(), 0u);
    EXPECT_TRUE(node->ListMetadataLocal().empty());
  }
}

TEST_F(DfsTest, ReadBlockRange) {
  Boot(4, 100);
  std::string content = MakeContent(250);
  ASSERT_TRUE(client_->Upload("f", content).ok());
  auto meta = client_->GetMetadata("f").value();
  auto range = client_->ReadBlockRange(meta, 1, 10, 20);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range.value(), content.substr(110, 20));
  // Last byte of block 0.
  auto last = client_->ReadBlockRange(meta, 0, 99, 1);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.value(), content.substr(99, 1));
  // Out-of-range index.
  EXPECT_FALSE(client_->ReadBlockRange(meta, 99, 0, 1).ok());
}

TEST_F(DfsTest, ObjectsWithTtl) {
  Boot(3);
  HashKey key = KeyOf("obj-key");
  ASSERT_TRUE(client_->PutObject("obj", key, "payload", std::chrono::milliseconds(0)).ok());
  auto got = client_->GetObject("obj", key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "payload");
  client_->DeleteObject("obj", key);
  EXPECT_EQ(client_->GetObject("obj", key).status().code(), ErrorCode::kNotFound);
}

TEST_F(DfsTest, ListFilesUnionsDecentralizedNamespace) {
  Boot(5);
  ASSERT_TRUE(client_->Upload("b-file", "bbb").ok());
  ASSERT_TRUE(client_->Upload("a-file", "aaa").ok());
  ASSERT_TRUE(client_->Upload("c-private", "ccc", 64, /*public_read=*/false).ok());

  auto mine = client_->ListFiles();
  ASSERT_EQ(mine.size(), 3u);  // owner sees their private file too
  EXPECT_EQ(mine[0].name, "a-file");
  EXPECT_EQ(mine[1].name, "b-file");
  EXPECT_EQ(mine[2].name, "c-private");

  DfsClientOptions other;
  other.user = "someone-else";
  DfsClient visitor(1001, transport_, [this] { return std::make_shared<const dht::Ring>(ring_); }, other);
  auto visible = visitor.ListFiles();
  ASSERT_EQ(visible.size(), 2u) << "private files hidden from other users";
  EXPECT_EQ(visible[0].name, "a-file");
  EXPECT_EQ(visible[1].name, "b-file");

  ASSERT_TRUE(client_->Delete("b-file").ok());
  EXPECT_EQ(client_->ListFiles().size(), 2u);
}

TEST_F(DfsTest, ReadSurvivesOwnerCrash) {
  Boot(5, 100);
  std::string content = MakeContent(500);
  ASSERT_TRUE(client_->Upload("f", content).ok());
  auto meta = client_->GetMetadata("f").value();

  // Crash the owner of block 0; replicas on its neighbors still serve it.
  int owner = ring_.Owner(meta.KeyOfBlock(0));
  Crash(owner);
  auto back = client_->ReadFile("f");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), content);
}

TEST_F(DfsTest, RecoveryRestoresReplicationFactor) {
  Boot(6, 100);
  std::string content = MakeContent(600);
  ASSERT_TRUE(client_->Upload("f", content).ok());
  auto meta = client_->GetMetadata("f").value();

  Crash(2);
  FsRecovery recovery(1000, transport_, [this] { return std::make_shared<const dht::Ring>(ring_); });
  auto report = recovery.Repair(3);
  EXPECT_EQ(report.blocks_lost, 0u);

  // Every durable block must again live on exactly its 3 replica targets
  // (supersets allowed for stale copies; targets must all be present).
  for (std::uint64_t b = 0; b < meta.num_blocks; ++b) {
    std::string id = BlockId("f", b);
    for (int target : ring_.Replicas(meta.KeyOfBlock(b), 3)) {
      EXPECT_TRUE(nodes_[static_cast<std::size_t>(target)]->blocks().Contains(id))
          << "block " << b << " missing on takeover target " << target;
    }
  }
  // Metadata replicas too.
  for (int target : ring_.Replicas(KeyOf("f"), 3)) {
    EXPECT_TRUE(nodes_[static_cast<std::size_t>(target)]->GetMetadataLocal("f").ok());
  }
}

TEST_F(DfsTest, RecoveryReportsUnrecoverableBlocks) {
  Boot(5, 1000);
  // On this ring the record of "doomed" has a replica outside its block's
  // replica set, so after the crash below the namespace still names the
  // block. (A file whose every record replica dies leaves the namespace;
  // no repair can count what it lost.)
  ASSERT_TRUE(client_->Upload("doomed", MakeContent(800)).ok());
  auto meta = client_->GetMetadata("doomed").value();
  ASSERT_EQ(meta.num_blocks, 1u);

  // Kill every replica holder of the single block: data is gone.
  auto holders = ring_.Replicas(meta.KeyOfBlock(0), 3);
  for (int h : holders) Crash(h);
  bool named = false;
  for (int server : ring_.Servers()) {
    named |= nodes_[static_cast<std::size_t>(server)]->GetMetadataLocal("doomed").ok();
  }
  ASSERT_TRUE(named) << "no surviving record";

  FsRecovery recovery(1000, transport_, [this] { return std::make_shared<const dht::Ring>(ring_); });
  auto report = recovery.Repair(3);
  EXPECT_EQ(report.blocks_lost, 1u) << "the namespace names a block no server holds";
  EXPECT_EQ(client_->ReadBlock(meta, 0).status().code(), ErrorCode::kNotFound);
}

TEST_F(DfsTest, RecoveryRestoresMetadataFromOneListPerServer) {
  Boot(6, 100);
  ASSERT_TRUE(client_->Upload("f", MakeContent(600)).ok());
  const FileMetadata meta = client_->GetMetadata("f").value();

  // Crash the record's owner: its successor set now includes a server
  // without the record.
  Crash(ring_.Owner(meta.MetaKey()));
  int list_calls = 0;
  for (int server : ring_.Servers()) {
    const std::size_t i = static_cast<std::size_t>(server);
    transport_.Register(server, [&list_calls, handler = dispatchers_[i]->AsHandler()](
                                    int from, const net::Message& m) {
      if (m.type == msg::kListMetadata) ++list_calls;
      return handler(from, m);
    });
  }

  FsRecovery recovery(1000, transport_, [this] { return std::make_shared<const dht::Ring>(ring_); });
  auto report = recovery.Repair(3);
  EXPECT_EQ(report.metadata_copied, 1u);
  EXPECT_EQ(list_calls, static_cast<int>(ring_.size())) << "one kListMetadata per live server";
  for (int target : ring_.Replicas(meta.MetaKey(), 3)) {
    auto restored = nodes_[static_cast<std::size_t>(target)]->GetMetadataLocal("f");
    ASSERT_TRUE(restored.ok()) << "no record on target " << target;
    EXPECT_EQ(restored.value(), meta);
  }
}

/// Four DFS nodes on a static ring; the transport counts every call.
struct CountedServers {
  CountedServers() {
    transport.BindMetrics(metrics, "inproc");
    for (int i = 0; i < 4; ++i) {
      ring.AddServer(i);
      dispatchers.push_back(std::make_unique<net::Dispatcher>());
      nodes.push_back(std::make_unique<DfsNode>(i, *dispatchers.back()));
      transport.Register(i, dispatchers.back()->AsHandler());
    }
    client = std::make_unique<DfsClient>(
        1000, transport, [this] { return std::make_shared<const dht::Ring>(ring); });
  }

  std::uint64_t calls() {
    return metrics.GetCounter("net.calls", {{"transport", "inproc"}}).value();
  }
  BlockStore& store(int server) { return nodes[static_cast<std::size_t>(server)]->blocks(); }

  MetricsRegistry metrics;  // outlives the transport bound to it
  net::InProcessTransport transport;
  dht::Ring ring;
  std::vector<std::unique_ptr<net::Dispatcher>> dispatchers;
  std::vector<std::unique_ptr<DfsNode>> nodes;
  std::unique_ptr<DfsClient> client;
};

TEST(DfsClient, GetObjectsAnswersInRequestOrderAndFallsBackPerObject) {
  CountedServers s;
  const HashKey key = KeyOf("range");
  const std::vector<int> replicas = s.ring.Replicas(key, 3);
  ASSERT_EQ(replicas.size(), 3u);
  const int owner = replicas[0];
  const int successor = replicas[1];
  ASSERT_TRUE(s.client->PutObject("A", key, "a-bytes").ok());  // owner only
  ASSERT_TRUE(s.client->PutObject("B", key, "b-bytes").ok());
  ASSERT_TRUE(s.store(owner).Contains("A"));
  s.store(successor).Put("C", key, "c-bytes");  // only a later replica holds C
  s.store(owner).Put("E", key, "stale", std::chrono::milliseconds(1));
  s.store(successor).Put("E", key, "e-copy");  // must not be asked for: E expired
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  const std::uint64_t before = s.calls();
  auto got = s.client->GetObjects({"C", "A", "D", "E", "B"}, key);
  // Owner: all five (A, B served; E expired). Successor: C, D (C served).
  // Predecessor: D. One call per replica tried.
  EXPECT_EQ(s.calls() - before, 3u);
  ASSERT_EQ(got.size(), 5u);
  ASSERT_TRUE(got[0].ok()) << got[0].status().ToString();
  EXPECT_EQ(got[0].value(), "c-bytes");
  ASSERT_TRUE(got[1].ok());
  EXPECT_EQ(got[1].value(), "a-bytes");
  EXPECT_EQ(got[2].status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(got[3].status().code(), ErrorCode::kExpired);
  ASSERT_TRUE(got[4].ok());
  EXPECT_EQ(got[4].value(), "b-bytes");

  // Everything on the owner: one call, no fallback.
  const std::uint64_t before_owner_only = s.calls();
  auto both = s.client->GetObjects({"B", "A"}, key);
  EXPECT_EQ(s.calls() - before_owner_only, 1u);
  ASSERT_TRUE(both[0].ok() && both[1].ok());
  EXPECT_EQ(both[0].value(), "b-bytes");
  EXPECT_EQ(both[1].value(), "a-bytes");
}

TEST(DfsClient, GetObjectIsTheOneIdCase) {
  CountedServers s;
  const HashKey key = KeyOf("range");
  const int successor = s.ring.Replicas(key, 3)[1];
  s.store(successor).Put("C", key, "c-bytes");

  const std::uint64_t before = s.calls();
  auto got = s.client->GetObject("C", key);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), "c-bytes");
  EXPECT_EQ(s.calls() - before, 2u);  // owner miss, successor hit
  EXPECT_EQ(s.client->GetObject("D", key).status().code(), ErrorCode::kNotFound);
}

TEST(DfsClient, GetObjectsRejectsTruncatedRequests) {
  CountedServers s;
  BinaryWriter w;
  w.PutU32(2);
  w.PutString("A");
  w.PutString("B");
  std::string full = w.Take();
  const std::vector<std::string> bad = {
      full.substr(0, full.size() - 1),  // second id cut short
      full.substr(0, 4 + 4 + 1),        // second id missing
      full.substr(0, 3),                // count cut short
  };
  for (const std::string& payload : bad) {
    auto resp = s.transport.Call(1000, 0, net::Message{msg::kGetObjects, payload});
    ASSERT_TRUE(resp.ok());
    ASSERT_TRUE(net::IsError(resp.value()));
    EXPECT_EQ(net::DecodeError(resp.value()).code(), ErrorCode::kInvalidArgument);
  }
  BinaryWriter huge;
  huge.PutU32(0xFFFFFFFF);  // a count the payload cannot hold
  auto resp = s.transport.Call(1000, 0, net::Message{msg::kGetObjects, huge.Take()});
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(net::IsError(resp.value()));
  EXPECT_EQ(net::DecodeError(resp.value()).code(), ErrorCode::kInvalidArgument);
}

TEST(DfsClient, DeleteObjectsErasesExactlyTheNamedIds) {
  CountedServers s;
  const HashKey key = KeyOf("range");
  const std::vector<int> replicas = s.ring.Replicas(key, 3);
  ASSERT_EQ(replicas.size(), 3u);
  const int owner = replicas[0];
  const int successor = replicas[1];
  for (const char* id : {"A", "B", "C"}) ASSERT_TRUE(s.client->PutObject(id, key, id).ok());
  s.store(successor).Put("A", key, "a-copy");  // a later replica is not asked by default

  const std::uint64_t before = s.calls();
  const std::vector<std::string> ids = {"C", "absent", "A"};
  s.client->DeleteObjects(ids, key);
  EXPECT_EQ(s.calls() - before, 1u) << "one call carries every id";
  EXPECT_FALSE(s.store(owner).Contains("A"));
  EXPECT_TRUE(s.store(owner).Contains("B"));
  EXPECT_FALSE(s.store(owner).Contains("C"));
  EXPECT_EQ(s.store(owner).Count(), 1u);
  EXPECT_TRUE(s.store(successor).Contains("A"));

  // One call per replica asked; an id a replica lacks is skipped.
  const std::uint64_t before_all = s.calls();
  s.client->DeleteObjects(ids, key, /*replication=*/3);
  EXPECT_EQ(s.calls() - before_all, 3u);
  EXPECT_FALSE(s.store(successor).Contains("A"));
  EXPECT_TRUE(s.store(owner).Contains("B"));

  const std::uint64_t before_none = s.calls();
  s.client->DeleteObjects({}, key);
  EXPECT_EQ(s.calls(), before_none) << "no ids, no call";
}

TEST(DfsClient, DeleteObjectIsTheOneIdCase) {
  CountedServers s;
  const HashKey key = KeyOf("range");
  const int owner = s.ring.Replicas(key, 3)[0];
  ASSERT_TRUE(s.client->PutObject("A", key, "a-bytes").ok());
  ASSERT_TRUE(s.client->PutObject("B", key, "b-bytes").ok());

  const std::uint64_t before = s.calls();
  s.client->DeleteObject("A", key);
  EXPECT_EQ(s.calls() - before, 1u);
  EXPECT_FALSE(s.store(owner).Contains("A"));
  EXPECT_TRUE(s.store(owner).Contains("B"));
  s.client->DeleteObject("absent", key);  // not an error
  EXPECT_TRUE(s.store(owner).Contains("B"));
}

TEST(DfsClient, DeleteObjectsRejectsTruncatedRequests) {
  CountedServers s;
  s.store(0).Put("A", 1, "a-bytes");
  s.store(0).Put("B", 1, "b-bytes");
  BinaryWriter w;
  w.PutU32(2);
  w.PutString("A");
  w.PutString("B");
  std::string full = w.Take();
  const std::vector<std::string> bad = {
      full.substr(0, full.size() - 1),  // second id cut short
      full.substr(0, 4 + 4 + 1),        // second id missing
      full.substr(0, 3),                // count cut short
  };
  for (const std::string& payload : bad) {
    auto resp = s.transport.Call(1000, 0, net::Message{msg::kDeleteObjects, payload});
    ASSERT_TRUE(resp.ok());
    ASSERT_TRUE(net::IsError(resp.value()));
    EXPECT_EQ(net::DecodeError(resp.value()).code(), ErrorCode::kInvalidArgument);
  }
  BinaryWriter huge;
  huge.PutU32(0xFFFFFFFF);  // a count the payload cannot hold
  auto resp = s.transport.Call(1000, 0, net::Message{msg::kDeleteObjects, huge.Take()});
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(net::IsError(resp.value()));
  EXPECT_EQ(net::DecodeError(resp.value()).code(), ErrorCode::kInvalidArgument);
  // A rejected request erases nothing, not even the ids before the cut.
  EXPECT_TRUE(s.store(0).Contains("A"));
  EXPECT_TRUE(s.store(0).Contains("B"));

  auto ok = s.transport.Call(1000, 0, net::Message{msg::kDeleteObjects, full});
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(net::IsError(ok.value()));
  EXPECT_EQ(s.store(0).Count(), 0u);
}

}  // namespace
}  // namespace eclipse::dfs
