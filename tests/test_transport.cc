#include "net/transport.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <thread>

#include "common/serde.h"
#include "net/conn_pool.h"
#include "net/dispatcher.h"
#include "net/epoll_server.h"
#include "net/tcp_transport.h"

namespace eclipse::net {
namespace {

Message Echo(NodeId from, const Message& m) {
  Message resp{m.type + 1, "from=" + std::to_string(from) + ":" + m.payload};
  return resp;
}

TEST(InProcessTransport, CallRoundTrip) {
  InProcessTransport t;
  t.Register(1, Echo);
  auto resp = t.Call(0, 1, Message{10, "hello"});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().type, 11u);
  EXPECT_EQ(resp.value().payload, "from=0:hello");
}

TEST(InProcessTransport, UnknownNodeIsUnavailable) {
  InProcessTransport t;
  auto resp = t.Call(0, 42, Message{1, ""});
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), ErrorCode::kUnavailable);
}

TEST(InProcessTransport, DetachSimulatesCrash) {
  InProcessTransport t;
  t.Register(1, Echo);
  ASSERT_TRUE(t.Call(0, 1, Message{1, ""}).ok());
  t.Register(1, nullptr);
  EXPECT_FALSE(t.Call(0, 1, Message{1, ""}).ok());
}

TEST(InProcessTransport, ConcurrentCalls) {
  InProcessTransport t;
  std::atomic<int> handled{0};
  t.Register(5, [&handled](NodeId, const Message& m) {
    ++handled;
    return m;
  });
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&t, i] {
      for (int j = 0; j < 50; ++j) {
        auto r = t.Call(i, 5, Message{1, "x"});
        ASSERT_TRUE(r.ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(handled.load(), 400);
}

TEST(Dispatcher, RoutesByTypeRange) {
  Dispatcher d;
  d.Route(100, 199, [](NodeId, const Message& m) { return Message{1, "dht" + m.payload}; });
  d.Route(200, 299, [](NodeId, const Message& m) { return Message{2, "dfs" + m.payload}; });
  auto h = d.AsHandler();
  EXPECT_EQ(h(0, Message{150, "!"}).payload, "dht!");
  EXPECT_EQ(h(0, Message{200, "!"}).payload, "dfs!");
  EXPECT_EQ(h(0, Message{299, "!"}).payload, "dfs!");
  // Unrouted type yields an error message.
  Message resp = h(0, Message{999, ""});
  EXPECT_TRUE(IsError(resp));
  EXPECT_EQ(DecodeError(resp).code(), ErrorCode::kInvalidArgument);
}

TEST(ErrorMessageTest, RoundTrip) {
  Message m = ErrorMessage(ErrorCode::kPermission, "nope");
  ASSERT_TRUE(IsError(m));
  Status s = DecodeError(m);
  EXPECT_EQ(s.code(), ErrorCode::kPermission);
  EXPECT_EQ(s.message(), "nope");
}

TEST(TcpTransport, LoopbackRoundTrip) {
  TcpTransport t;
  t.Register(3, Echo);
  ASSERT_GT(t.PortOf(3), 0);
  auto resp = t.Call(9, 3, Message{7, "over tcp"});
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().type, 8u);
  EXPECT_EQ(resp.value().payload, "from=9:over tcp");
}

TEST(TcpTransport, LargePayload) {
  TcpTransport t;
  t.Register(1, [](NodeId, const Message& m) { return Message{2, m.payload}; });
  std::string big(512 * 1024, 'z');
  auto resp = t.Call(0, 1, Message{1, big});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().payload, big);
}

TEST(TcpTransport, UnregisteredUnavailable) {
  TcpTransport t;
  EXPECT_EQ(t.Call(0, 77, Message{1, ""}).status().code(), ErrorCode::kUnavailable);
}

TEST(TcpTransport, DetachStopsService) {
  TcpTransport t;
  t.Register(2, Echo);
  ASSERT_TRUE(t.Call(0, 2, Message{1, ""}).ok());
  t.Register(2, nullptr);
  EXPECT_FALSE(t.Call(0, 2, Message{1, ""}).ok());
}

TEST(WritevFull, ClosedPeerFailsWithoutSigpipe) {
  // Nothing in this binary ignores SIGPIPE: a plain writev to a socket
  // whose peer is gone would kill the process instead of failing.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
  ::close(sv[1]);
  char byte = 'x';
  iovec iov{&byte, 1};
  EXPECT_FALSE(WritevFull(sv[0], &iov, 1, 100));
  ::close(sv[0]);
}

TEST(ConnPool, ResendsASynTheListenerDropped) {
  // A listener whose accept queue is full drops SYNs without a reset — the
  // same silence a SYN meets when it races a listener being opened or
  // closed. The kernel would resend only after its 1 s initial RTO, past
  // this connect's budget; the pool must resend on its own and connect as
  // soon as the listener has room again.
  int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(listener, 0), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  // Takes the one accept-queue slot a zero backlog leaves.
  int filler = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_EQ(::connect(filler, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  std::thread drain([listener] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::close(::accept(listener, nullptr, nullptr));
  });

  ConnPool pool(1);
  const auto t0 = std::chrono::steady_clock::now();
  ConnPool::Lease lease = pool.Acquire("127.0.0.1", ntohs(addr.sin_port), 800);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  drain.join();
  EXPECT_GE(lease.fd, 0) << "the connect waited for the kernel's SYN retransmission";
  EXPECT_LT(elapsed, std::chrono::milliseconds(500));
  pool.Discard(lease.fd);
  ::close(filler);
  ::close(listener);
}

// Leaves `client` two idle pooled connections to node 0 on `server`, then
// detaches and re-registers node 0 on the same port, which severs both.
void ParkTwoStaleConnections(TcpTransport& server, TcpTransport& client) {
  std::latch both_in(2);
  const int port = server.RegisterAt(
      0,
      [&both_in](NodeId, const Message& m) {
        both_in.arrive_and_wait();  // two calls in flight: two connections
        return Message{m.type, m.payload};
      },
      0);
  ASSERT_GT(port, 0);
  client.AddPeer(0, "127.0.0.1", port);
  std::vector<std::thread> callers;
  for (int i = 0; i < 2; ++i) {
    callers.emplace_back(
        [&client] { EXPECT_TRUE(client.Call(1, 0, Message{1, "park"}).ok()); });
  }
  for (auto& t : callers) t.join();
  server.Register(0, nullptr);
  ASSERT_EQ(server.RegisterAt(0, Echo, port), port);
}

TEST(TcpTransport, StaleRetryConnectsAfresh) {
  // The one stale retry must open a new connection: popping the next idle
  // one would find it just as dead.
  TcpTransport server;
  TcpTransport client;
  ASSERT_NO_FATAL_FAILURE(ParkTwoStaleConnections(server, client));
  auto resp = client.Call(1, 0, Message{1, "after"});
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().payload, "from=1:after");
}

TEST(TcpTransport, StaleBatchRetryConnectsAfresh) {
  TcpTransport server;
  TcpTransport client;
  ASSERT_NO_FATAL_FAILURE(ParkTwoStaleConnections(server, client));
  auto results = client.CallBatch(1, 0, {Message{1, "a"}, Message{1, "b"}});
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(results[1].value().payload, "from=1:b");
}

TEST(TcpTransport, ConcurrentClients) {
  TcpTransport t;
  t.Register(1, Echo);
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&t, &ok, i] {
      for (int j = 0; j < 20; ++j) {
        auto r = t.Call(i, 1, Message{1, std::to_string(j)});
        if (r.ok()) ++ok;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), 80);
}

}  // namespace
}  // namespace eclipse::net
