#include "net/conn_pool.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace eclipse::net {
namespace {

std::string PeerKey(const std::string& host, int port) {
  return host + ":" + std::to_string(port);
}

// A SYN that races the peer's listener being opened or closed (an endpoint
// re-registering, a worker restarting on its port) can be dropped without a
// reset, and the kernel resends it only after its 1 s initial RTO — longer
// than most call deadlines. So a handshake that stalls is restarted on a
// fresh socket after kSynResendMs (far above a loopback or LAN round trip),
// then at doubling intervals; once the interval reaches the kernel's own
// RTO, the last SYN is left to the kernel.
constexpr int kSynResendMs = 10;
constexpr int kKernelSynRtoMs = 1000;
constexpr int kStalled = -2;

// One non-blocking connect, waiting up to `wait_ms` (-1 = no bound) for the
// handshake, then a SO_ERROR check. Returns the connected fd, -1 when the
// connect failed (refused, reset), or kStalled when the wait ran out first.
int ConnectOnce(const sockaddr_in& addr, int wait_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  if (rc != 0) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLOUT;
    for (;;) {
      int pr = ::poll(&p, 1, wait_ms);
      if (pr > 0) break;
      if (pr == 0) {
        ::close(fd);
        return kStalled;
      }
      if (errno != EINTR) {
        ::close(fd);
        return -1;
      }
    }
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return -1;
    }
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

// Connect within `timeout_ms` (-1 = no bound), resending stalled SYNs — so a
// refused, black-holed or SYN-dropping peer cannot stall the caller past its
// deadline.
int ConnectTimed(const std::string& host, int port, int timeout_ms,
                 bool* timed_out) {
  *timed_out = false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return -1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (int wait_ms = kSynResendMs;; wait_ms *= 2) {
    long long slice = wait_ms < kKernelSynRtoMs ? wait_ms : -1;
    if (timeout_ms >= 0) {
      const long long left = std::chrono::ceil<std::chrono::milliseconds>(
                                 deadline - std::chrono::steady_clock::now())
                                 .count();
      if (left <= 0) break;
      slice = slice < 0 ? left : std::min(slice, left);
    }
    int fd = ConnectOnce(addr, static_cast<int>(slice));
    if (fd != kStalled) return fd;
  }
  *timed_out = true;
  return -1;
}

}  // namespace

ConnPool::ConnPool(int max_idle_per_peer)
    : max_idle_per_peer_(max_idle_per_peer) {}

ConnPool::~ConnPool() { CloseAll(); }

ConnPool::Lease ConnPool::Acquire(const std::string& host, int port,
                                  int connect_timeout_ms) {
  Lease lease;
  {
    MutexLock lock(mu_);
    auto it = idle_.find(PeerKey(host, port));
    if (it != idle_.end() && !it->second.empty()) {
      lease.fd = it->second.back();
      it->second.pop_back();
      lease.reused = true;
    }
  }
  if (!lease.reused) return Connect(host, port, connect_timeout_ms);
  if (auto* c = reuse_.load(std::memory_order_acquire)) c->Add();
  return lease;
}

ConnPool::Lease ConnPool::Connect(const std::string& host, int port,
                                  int connect_timeout_ms) {
  Lease lease;
  lease.fd = ConnectTimed(host, port, connect_timeout_ms, &lease.timed_out);
  if (lease.fd >= 0)
    if (auto* c = connects_.load(std::memory_order_acquire)) c->Add();
  return lease;
}

void ConnPool::Release(const std::string& host, int port, int fd) {
  {
    MutexLock lock(mu_);
    // After CloseAll swapped the stash out, re-creating a map entry here
    // would leak a live socket past shutdown (and hand it out stale later).
    if (!closed_) {
      auto& stash = idle_[PeerKey(host, port)];
      if (static_cast<int>(stash.size()) < max_idle_per_peer_) {
        stash.push_back(fd);
        return;
      }
    }
  }
  ::close(fd);
}

void ConnPool::Discard(int fd) {
  if (fd >= 0) ::close(fd);
}

void ConnPool::CloseAll() {
  std::unordered_map<std::string, std::vector<int>> idle;
  {
    MutexLock lock(mu_);
    closed_ = true;
    idle.swap(idle_);
  }
  for (auto& [key, fds] : idle)
    for (int fd : fds) ::close(fd);
}

void ConnPool::BindMetrics(MetricsRegistry& registry, const char* label) {
  MetricLabels labels{{"transport", label}};
  reuse_.store(&registry.GetCounter("net.pool_reuse", labels),
               std::memory_order_release);
  connects_.store(&registry.GetCounter("net.pool_connects", labels),
                  std::memory_order_release);
  stale_retries_.store(&registry.GetCounter("net.pool_stale_retries", labels),
                       std::memory_order_release);
}

void ConnPool::UnbindMetrics() {
  reuse_.store(nullptr, std::memory_order_release);
  connects_.store(nullptr, std::memory_order_release);
  stale_retries_.store(nullptr, std::memory_order_release);
}

void ConnPool::CountStaleRetry() {
  if (auto* c = stale_retries_.load(std::memory_order_acquire)) c->Add();
}

}  // namespace eclipse::net
