// Client-side connection pool for TcpTransport.
//
// One Call used to mean one connect/close pair; with persistent framing the
// pool keeps a small per-destination stash of idle connections and reuses
// them across Calls. A reused connection may have been severed by the peer
// while idle (worker crash, endpoint re-register) — the transport detects
// that as "failed before any response byte arrived" and retries exactly once
// on a freshly connected socket, so stale reuse never surfaces to callers.
#pragma once

#include <atomic>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"

namespace eclipse::net {

class ConnPool {
 public:
  struct Lease {
    int fd = -1;
    bool reused = false;  // popped from the idle stash (stale-retry eligible)
    bool timed_out = false;  // connect failed by deadline, not by refusal
  };

  explicit ConnPool(int max_idle_per_peer = 8);
  ~ConnPool();

  ConnPool(const ConnPool&) = delete;
  ConnPool& operator=(const ConnPool&) = delete;

  /// Pop an idle connection to host:port, or Connect when none is idle.
  Lease Acquire(const std::string& host, int port, int connect_timeout_ms);

  /// Open a new connection to host:port, bypassing the idle stash
  /// (non-blocking connect bounded by `connect_timeout_ms`, -1 = no bound; a
  /// handshake whose SYN went unanswered is restarted on a fresh socket
  /// rather than left to the kernel's 1 s retransmission). fd < 0 on
  /// failure. The fd is non-blocking with TCP_NODELAY set.
  Lease Connect(const std::string& host, int port, int connect_timeout_ms);

  /// Return a healthy connection for reuse (closed if the stash is full, or
  /// if CloseAll has already run — a Release racing transport teardown must
  /// not stash an fd that would silently survive shutdown).
  void Release(const std::string& host, int port, int fd);

  /// Close a connection that failed or has unread response bytes in flight.
  void Discard(int fd);

  /// Close every idle connection and mark the pool closed (transport
  /// teardown). Terminal: later Releases close their fds instead of
  /// stashing them.
  void CloseAll();

  /// Register pool counters: net.pool_reuse, net.pool_connects,
  /// net.pool_stale_retries (bumped by the transport via StaleRetry()).
  void BindMetrics(MetricsRegistry& registry, const char* label);
  /// Drop the cached counter pointers (when the registry dies first).
  void UnbindMetrics();
  void CountStaleRetry();

 private:
  const int max_idle_per_peer_;
  Mutex mu_{Rank::kConnPool, "ConnPool::mu_"};
  std::unordered_map<std::string, std::vector<int>> idle_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;  // CloseAll ran; never stash again

  std::atomic<Counter*> reuse_{nullptr};
  std::atomic<Counter*> connects_{nullptr};
  std::atomic<Counter*> stale_retries_{nullptr};
};

}  // namespace eclipse::net
