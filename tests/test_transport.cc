#include "net/transport.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <latch>
#include <memory>
#include <thread>

#include "common/metrics.h"
#include "common/serde.h"
#include "net/conn_pool.h"
#include "net/dispatcher.h"
#include "net/frame_server.h"
#include "net/retry.h"
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

TEST(TcpTransport, NestedLoopbackCallsDoNotDeadlock) {
  // A's handler calls B and B's handler calls A until the hop count in the
  // payload reaches 16: every caller holds a chain of 16 handlers blocked in
  // nested calls back into this process, 8 callers at once.
  constexpr int kHops = 16;
  // Room to keep every hop's connection pooled, so repeated calls reuse
  // them instead of churning through sockets.
  TcpTransport::Options opts;
  opts.max_idle_conns_per_peer = 128;
  TcpTransport t(opts);
  const Deadline deadline = Deadline::After(std::chrono::seconds(10));
  auto bounce = [&t, deadline](NodeId self, NodeId other) {
    return [&t, deadline, self, other](NodeId, const Message& m) {
      const int hop = std::stoi(m.payload);
      if (hop >= kHops) return Message{m.type, m.payload};
      // Bounded, so a deadlock fails the test instead of hanging it.
      ScopedDeadline sd(deadline);
      auto r = t.Call(self, other, Message{m.type, std::to_string(hop + 1)});
      return r.ok() ? r.value() : ErrorMessage(r.status().code(), r.status().message());
    };
  };
  t.Register(1, bounce(1, 2));
  t.Register(2, bounce(2, 1));

  std::atomic<int> ok{0};
  std::vector<std::thread> callers;
  for (int i = 0; i < 8; ++i) {
    callers.emplace_back([&] {
      for (int j = 0; j < 20; ++j) {
        ScopedDeadline sd(deadline);
        auto r = t.Call(0, 1, Message{5, "0"});
        if (r.ok() && !IsError(r.value()) &&
            r.value().payload == std::to_string(kHops))
          ++ok;
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(ok.load(), 160);
}

TEST(TcpTransport, CallBatchAnswersInOrderAcrossWindows) {
  // 200 requests on one pooled connection span four windows: two cut by
  // the 64-request bound, then one cut by the 64 KiB byte bound (8 KiB
  // payloads from request 100 on), then the tail.
  TcpTransport t;
  t.Register(1, Echo);
  std::vector<Message> requests;
  for (int i = 0; i < 200; ++i) {
    std::string payload = std::to_string(i);
    if (i >= 100 && i % 7 == 0) payload.append(8192, 'p');
    requests.push_back(Message{static_cast<std::uint32_t>(i), payload});
  }
  auto results = t.CallBatch(9, 1, requests);
  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].status().ToString();
    EXPECT_EQ(results[i].value().type, i + 1);
    EXPECT_EQ(results[i].value().payload, "from=9:" + requests[i].payload);
  }
}

std::int64_t LiveConnThreads(MetricsRegistry& registry) {
  return registry.GetGauge("net.handler_threads", {{"transport", "tcp"}}).value();
}

// Polls `pred` until it holds or 10 s pass.
template <typename Pred>
bool Eventually(Pred pred) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

TEST(TcpTransport, HandlerThreadsGaugeCountsLiveConnections) {
  MetricsRegistry registry;
  TcpTransport server;
  server.BindTransportMetrics(registry, "tcp");
  server.Register(0, Echo);
  const int port = server.PortOf(0);
  for (int cycle = 0; cycle < 5; ++cycle) {
    std::vector<std::unique_ptr<TcpTransport>> clients;
    for (int i = 0; i < 64; ++i) {
      auto& c = clients.emplace_back(std::make_unique<TcpTransport>());
      c->AddPeer(0, "127.0.0.1", port);
      ASSERT_TRUE(c->Call(1, 0, Message{1, "x"}).ok());
    }
    // Each client keeps its connection pooled, and each connection keeps
    // its thread.
    EXPECT_EQ(LiveConnThreads(registry), 64) << "cycle " << cycle;
    clients.clear();  // closes every pooled connection
    EXPECT_TRUE(Eventually([&] { return LiveConnThreads(registry) == 0; }))
        << "cycle " << cycle << ": " << LiveConnThreads(registry) << " left";
  }
}

// A blocking connection to 127.0.0.1:`port` from 127.0.0.2. A thousand
// of these must not disturb other tests. On 127.0.0.2, with the port picked
// at connect time like any client's, their live ports cannot fail another
// process's bind of a fixed 127.0.0.1 port. A zero linger makes close()
// reset rather than leave a TIME_WAIT socket on each port, which repeated
// runs would pile up until the ephemeral range ran out.
int ConnectRaw(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  linger abort{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort, sizeof abort);
  int one = 1;
  ::setsockopt(fd, IPPROTO_IP, IP_BIND_ADDRESS_NO_PORT, &one, sizeof one);
  sockaddr_in local{};
  local.sin_family = AF_INET;
  local.sin_addr.s_addr = htonl(INADDR_LOOPBACK + 1);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&local), sizeof local) != 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(TcpTransport, ClosesConnectionsPastTheThreadBound) {
  constexpr int kBound = FrameServer::kMaxConnThreads;
  constexpr int kSurplus = 8;
  // Client and server ends of every connection live in this process.
  rlimit lim{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &lim), 0);
  const rlim_t need = 2 * (kBound + kSurplus) + 64;
  if (lim.rlim_max != RLIM_INFINITY && lim.rlim_max < need)
    GTEST_SKIP() << "RLIMIT_NOFILE hard limit " << lim.rlim_max << " < " << need;
  const rlimit saved = lim;
  if (lim.rlim_cur != RLIM_INFINITY && lim.rlim_cur < need) {
    lim.rlim_cur = lim.rlim_max;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lim), 0);
  }

  MetricsRegistry registry;
  {
    TcpTransport server;
    server.BindTransportMetrics(registry, "tcp");
    server.Register(0, Echo);
    const int port = server.PortOf(0);
    // Each connection gets its thread before the next one opens (a burst
    // would overflow the listen queue), so the last kSurplus are the ones
    // past the bound.
    std::vector<int> fds;
    for (int i = 0; i < kBound + kSurplus; ++i) {
      fds.push_back(ConnectRaw(port));
      ASSERT_GE(fds.back(), 0) << "connect " << i;
      const int want = std::min(i + 1, kBound);
      ASSERT_TRUE(Eventually([&] { return LiveConnThreads(registry) == want; }))
          << "connect " << i << ": " << LiveConnThreads(registry) << " threads";
    }
    for (int i = kBound; i < kBound + kSurplus; ++i) {
      pollfd p{fds[i], POLLIN, 0};
      char byte;
      ASSERT_EQ(::poll(&p, 1, 10'000), 1) << "connection " << i << " left open";
      EXPECT_LE(::read(fds[i], &byte, 1), 0) << "connection " << i;
    }
    std::vector<pollfd> open;
    for (int i = 0; i < kBound; ++i) open.push_back({fds[i], POLLIN, 0});
    EXPECT_EQ(::poll(open.data(), open.size(), 0), 0);
    EXPECT_EQ(LiveConnThreads(registry), kBound);

    // An existing connection still gets answers.
    const std::string payload = "still served";
    unsigned char hdr[12];
    const std::uint32_t body_len = 8 + payload.size(), type = 7;
    const std::int32_t from = 3;
    std::memcpy(hdr, &body_len, 4);
    std::memcpy(hdr + 4, &type, 4);
    std::memcpy(hdr + 8, &from, 4);
    iovec iov[2] = {{hdr, sizeof hdr},
                    {const_cast<char*>(payload.data()), payload.size()}};
    ASSERT_TRUE(WritevFull(fds[0], iov, 2, 5000));
    unsigned char resp_hdr[8];
    ASSERT_TRUE(ReadFullTimed(fds[0], resp_hdr, sizeof resp_hdr, 5000));
    std::uint32_t resp_len, resp_type;
    std::memcpy(&resp_len, resp_hdr, 4);
    std::memcpy(&resp_type, resp_hdr + 4, 4);
    EXPECT_EQ(resp_type, 8u);
    std::string body(resp_len - 4, '\0');
    ASSERT_TRUE(ReadFullTimed(fds[0], body.data(), body.size(), 5000));
    EXPECT_EQ(body, "from=3:still served");

    for (int fd : fds) ::close(fd);
    EXPECT_TRUE(Eventually([&] { return LiveConnThreads(registry) == 0; }))
        << LiveConnThreads(registry) << " threads left";
  }
  ::setrlimit(RLIMIT_NOFILE, &saved);
}

}  // namespace
}  // namespace eclipse::net
