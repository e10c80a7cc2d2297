// Frame server shared by every TcpTransport endpoint.
//
// Each endpoint has one acceptor thread, blocked in accept4 on its
// listener, and each accepted connection has one thread of its own. That
// thread reads a frame (header, then payload read straight into its final
// string — no staging buffer), runs the handler and writes the response
// itself, then reads the next frame. Frames on one connection are therefore
// served one at a time and in order, which gives pipelined clients strict
// in-order responses over a single pooled connection (CallBatch relies on
// it). A request costs one wakeup of its connection's thread.
//
// A handler may itself issue a Call back into this process. Every nested
// hop travels on its own pooled connection, so it is served by its own
// thread: a chain of nested loopback calls cannot deadlock. Live
// connection threads are bounded by kMaxConnThreads per server; at the
// bound a new connection is closed at once, because peers outside the
// process decide how many arrive.
//
// fd rule: a connection thread is the only closer of its fd, and it
// deregisters the fd under mu_ before closing it. RemoveEndpoint only
// shutdown()s fds that are still registered, and closes the listener only
// after joining its acceptor, so no fd is ever reused under a reader.
// Threads are joined, never detached: finished connection threads are
// reaped at their endpoint's next accept and at RemoveEndpoint.
#pragma once

#include <sys/uio.h>

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/metrics.h"
#include "common/mutex.h"
#include "net/transport.h"

namespace eclipse::net {

/// Frames larger than this are treated as protocol corruption and the
/// connection is dropped (a real frame this size would mean a runaway
/// encoder, not a workload).
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;  // 1 GiB

class FrameServer {
 public:
  /// Most connection threads alive at once in one server. It must exceed
  /// the deepest nested-call chain in one process (DFS routing hop limit ×
  /// concurrent callers); past it, new connections are closed unserved.
  static constexpr int kMaxConnThreads = 1024;

  /// `listen_host` is the address every listener binds to. Loopback by
  /// default; a multi-machine worker binds 0.0.0.0 via --listen-host.
  explicit FrameServer(std::string listen_host = "127.0.0.1");
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Bind a listener for `node` on `port` (0 = OS-assigned) and serve
  /// `handler` on it. Replaces any existing endpoint for `node` (stopping
  /// it first). Returns the bound port, or -1 when the listener cannot be
  /// bound or its acceptor thread cannot start.
  int AddEndpoint(NodeId node, Handler handler, int port = 0);

  /// Stop accepting for `node`, sever its connections, and join its
  /// acceptor and connection threads. After this returns no handler
  /// invocation for `node` is running or will ever run. Must not be called
  /// from one of `node`'s own handlers (it would join its own thread).
  void RemoveEndpoint(NodeId node);

  /// Port `node` listens on (0 if not registered).
  int PortOf(NodeId node) const;

  /// Register server counters: net.accepted_connections,
  /// net.frames_dispatched, net.handler_threads (gauge: live connection
  /// threads, up on accept and down when a connection thread finishes).
  void BindMetrics(MetricsRegistry& registry, const char* label);
  /// Drop the cached counter pointers (when the registry dies first).
  void UnbindMetrics();

 private:
  // Threads hold the addresses of both structs, so neither copies or moves.
  struct Conn {
    Conn() = default;
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;
    int fd = -1;        // guarded by mu_: -1 once its thread deregistered it
    bool done = false;  // guarded by mu_: the thread has finished; join it
    std::thread thread;
  };

  struct Endpoint {
    Endpoint(int listen_fd, int port, Handler handler)
        : listen_fd(listen_fd), port(port), handler(std::move(handler)) {}
    Endpoint(const Endpoint&) = delete;
    Endpoint& operator=(const Endpoint&) = delete;
    const int listen_fd;
    const int port;
    const Handler handler;
    std::atomic<bool> stopping{false};  // set under mu_
    // Stable addresses: each connection thread holds a reference to its entry.
    std::list<Conn> conns;  // guarded by mu_
    std::thread acceptor;
  };

  void AcceptLoop(Endpoint& ep);
  // Serves `fd` (ServeFrames), then deregisters and closes it.
  void ServeConn(Endpoint& ep, Conn& conn, int fd);
  // Reads, handles and answers frames until EOF, an error, a corrupt frame
  // or a stopping endpoint.
  void ServeFrames(const Endpoint& ep, int fd);
  // The stop sequence: mark stopping, sever, join the acceptor, close the
  // listener, join every connection thread.
  void Stop(Endpoint& ep);
  void SetThreadsGaugeLocked() REQUIRES(mu_);

  const std::string listen_host_;

  mutable Mutex mu_{Rank::kFrameServer, "FrameServer::mu_"};
  std::unordered_map<NodeId, std::shared_ptr<Endpoint>> endpoints_ GUARDED_BY(mu_);
  int conn_threads_ GUARDED_BY(mu_) = 0;

  std::atomic<Counter*> accepts_{nullptr};
  std::atomic<Counter*> frames_{nullptr};
  std::atomic<Gauge*> threads_gauge_{nullptr};
};

// ---- shared low-level socket helpers (also used by ConnPool/TcpTransport) --

/// Thread-safe strerror.
std::string ErrnoString(int err);

/// Write the full iovec array, waiting (poll) when the socket is not ready,
/// bounded by `deadline_ms` per wait (-1 = no bound). Returns false on error
/// or timeout — including a peer that closed, which never raises SIGPIPE.
/// `fd` must be a socket, blocking or not: every send is non-blocking, so
/// the bound holds either way. The iovec array is clobbered.
bool WritevFull(int fd, struct iovec* iov, int iovcnt, int deadline_ms);

/// Read exactly `n` bytes, waiting (poll) when the socket has no data,
/// bounded by `deadline_ms` per wait (-1 = no bound). `*got` reports bytes
/// read so far even on failure (stale-connection detection needs "did any
/// byte arrive"). Returns false on EOF/error/timeout. On a blocking fd the
/// reads block, so only -1 is meaningful there.
bool ReadFullTimed(int fd, void* buf, std::size_t n, int deadline_ms,
                   std::size_t* got = nullptr);

}  // namespace eclipse::net
