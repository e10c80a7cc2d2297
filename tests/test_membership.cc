#include "dht/membership.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>

namespace eclipse::dht {
namespace {

using namespace std::chrono_literals;

struct TestNode {
  explicit TestNode(int id, net::Transport& t, MembershipConfig cfg = {}) {
    agent = std::make_unique<MembershipAgent>(id, t, dispatcher, cfg);
  }
  net::Dispatcher dispatcher;
  std::unique_ptr<MembershipAgent> agent;
};

class MembershipTest : public ::testing::Test {
 protected:
  // Join every heartbeat thread before any node is destroyed: a live thread
  // pinging an already-destroyed peer would be use-after-free.
  void TearDown() override {
    for (auto& node : nodes) node->agent->Stop();
  }

  void Boot(int n, MembershipConfig cfg = {.heartbeat_interval = 10ms, .miss_threshold = 2}) {
    Ring ring;
    for (int i = 0; i < n; ++i) ring.AddServer(i);
    for (int i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<TestNode>(i, transport, cfg));
      nodes.back()->agent->SetRing(ring);
      transport.Register(i, nodes.back()->dispatcher.AsHandler());
    }
  }

  void StartAll() {
    for (auto& node : nodes) node->agent->Start();
  }

  // Wait (bounded) until `pred` holds.
  bool Eventually(const std::function<bool()>& pred, std::chrono::milliseconds limit = 2000ms) {
    auto deadline = std::chrono::steady_clock::now() + limit;
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(5ms);
    }
    return pred();
  }

  net::InProcessTransport transport;
  std::vector<std::unique_ptr<TestNode>> nodes;
};

TEST_F(MembershipTest, PingKeepsRingStable) {
  Boot(4);
  StartAll();
  std::this_thread::sleep_for(100ms);
  for (auto& node : nodes) {
    EXPECT_EQ(node->agent->ring_view().size(), 4u);
  }
}

TEST_F(MembershipTest, NeighborsDetectAndPropagateFailure) {
  Boot(5);
  std::atomic<int> failures_seen{0};
  for (auto& node : nodes) {
    node->agent->OnFailure([&failures_seen](int failed) {
      if (failed == 2) ++failures_seen;
    });
  }
  StartAll();
  std::this_thread::sleep_for(50ms);

  // Crash server 2: detach its endpoint (heartbeats to it now fail).
  nodes[2]->agent->Stop();
  transport.Register(2, nullptr);

  ASSERT_TRUE(Eventually([&] {
    for (int i : {0, 1, 3, 4}) {
      if (nodes[static_cast<std::size_t>(i)]->agent->ring_view().Contains(2)) return false;
    }
    return true;
  })) << "all survivors should drop the failed server";
  EXPECT_GE(failures_seen.load(), 1);
}

TEST_F(MembershipTest, JoinSpreadsToMembers) {
  Boot(3);
  StartAll();
  // A fresh server joins through seed 0.
  auto newcomer = std::make_unique<TestNode>(
      7, transport, MembershipConfig{.heartbeat_interval = 10ms, .miss_threshold = 2});
  transport.Register(7, newcomer->dispatcher.AsHandler());
  ASSERT_TRUE(newcomer->agent->Join(0));
  EXPECT_EQ(newcomer->agent->ring_view().size(), 4u);

  ASSERT_TRUE(Eventually([&] {
    for (auto& node : nodes) {
      if (!node->agent->ring_view().Contains(7)) return false;
    }
    return true;
  }));
  nodes.push_back(std::move(newcomer));
}

TEST_F(MembershipTest, JoinThroughDeadSeedFails) {
  Boot(2);
  TestNode stray(9, transport);
  transport.Register(9, stray.dispatcher.AsHandler());
  EXPECT_FALSE(stray.agent->Join(42));
}

}  // namespace
}  // namespace eclipse::dht
