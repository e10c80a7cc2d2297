// TCP implementation of the Transport interface — the deployment substrate
// for multi-process clusters (docs/deployment.md) and the loopback realism
// layer for tests.
//
// Every registered node gets a listening socket with its own acceptor
// thread, and every accepted connection gets a thread that reads each frame,
// runs the handler and writes the response itself (net/frame_server.h);
// calls go out over pooled, persistent connections (net/conn_pool.h)
// speaking a length-prefixed binary frame protocol:
//
//   request:   u32 body_len | u32 type | i32 from | payload bytes
//   response:  u32 body_len | u32 type | payload bytes
//
// A connection carries many frames over its lifetime and its thread serves
// them one at a time, so responses come back in request order: that is what
// lets CallBatch pipeline a burst of requests over one connection instead of
// paying a round trip each. A handler's nested call back into this process
// rides its own connection, and so its own thread; it cannot deadlock.
// Frame encode is zero-copy: headers live on the stack and payloads are
// scatter-gathered straight from their strings with writev (the zero-alloc
// treatment of the record path, extended to the wire; see
// docs/performance.md).
//
// Remote processes are reached via the peer table (AddPeer/RemovePeer),
// which the deployment bootstrap (net/bootstrap.h) populates from the
// coordinator's worker directory. Local endpoints and peers share one
// call path — node code cannot tell whether a destination is a thread or a
// machine.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "net/conn_pool.h"
#include "net/frame_server.h"
#include "net/transport.h"

namespace eclipse::net {

class TcpTransport : public Transport {
 public:
  struct Options {
    /// Address endpoints listen on. Loopback by default; workers that must
    /// be reachable from other machines bind 0.0.0.0.
    std::string listen_host = "127.0.0.1";
    /// Idle pooled connections kept per destination.
    int max_idle_conns_per_peer = 8;
  };

  TcpTransport();
  explicit TcpTransport(Options opts);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Register `node` on an OS-assigned loopback port. Passing nullptr
  /// detaches the node: its listener closes, in-flight handlers finish, and
  /// any peer-table route for it is dropped (a detached node is unreachable
  /// whether it was a thread or a process).
  void Register(NodeId node, Handler handler) override;

  /// Register `node` on a specific port (0 = OS-assigned) — the worker
  /// binary binds its advertised port with this. Returns the bound port, or
  /// -1 on bind failure.
  int RegisterAt(NodeId node, Handler handler, int port);

  Result<Message> Call(NodeId from, NodeId to, const Message& request) override;

  /// Pipelined batch: one connection, one writev burst per window, responses
  /// read back in order. Falls back to nothing — errors are reported
  /// per-request (a mid-batch connection failure fails the tail).
  std::vector<Result<Message>> CallBatch(
      NodeId from, NodeId to, const std::vector<Message>& requests) override;

  /// Route calls for `node` to host:port in another process. Local
  /// endpoints take precedence over peer routes.
  void AddPeer(NodeId node, const std::string& host, int port);
  void RemovePeer(NodeId node);

  /// Port `node` listens on locally, or its peer-route port (0 if unknown).
  int PortOf(NodeId node) const;

  /// Bind the server/pool counters (net.accepted_connections,
  /// net.frames_dispatched, net.handler_threads, net.pool_*) in addition to
  /// the base per-call series bound by Transport::BindMetrics. Split out so
  /// a fault-injection wrapper can own the per-call series while the raw
  /// transport still exports its internals.
  void BindTransportMetrics(MetricsRegistry& registry, const char* label);

 private:
  struct Addr {
    std::string host;
    int port = 0;
  };

  bool Resolve(NodeId to, Addr* out) const;
  Result<Message> CallImpl(NodeId from, NodeId to, const Message& request);
  // One pipelined window: write `requests[begin, end)` in one burst, read
  // the responses in order into `results`. Returns false when the
  // connection died (results for the unreached tail are filled with the
  // error); `*bytes_read` reports whether any response byte ever arrived
  // (stale-reuse detection).
  bool RunWindow(int fd, NodeId from, const std::vector<Message>& requests,
                 std::size_t begin, std::size_t end, int timeout_ms,
                 std::vector<Result<Message>>* results, bool* any_bytes);

  const Options opts_;
  FrameServer server_;
  ConnPool pool_;

  mutable Mutex mu_{Rank::kTcpTransport, "TcpTransport::mu_"};
  std::unordered_map<NodeId, Addr> peers_ GUARDED_BY(mu_);
};

}  // namespace eclipse::net
