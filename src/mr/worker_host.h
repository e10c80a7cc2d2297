// Worker-process host: the eclipse-worker binary's engine room.
//
// Hosts one worker's data plane — DfsNode (metadata + BlockStore) and
// CacheNode (LRU slice) — behind a TcpTransport endpoint, and runs the
// deployment handshake against a coordinator (mr/deployment.h):
//
//   Start():  kHello -> kWelcome (node id, cache capacity) -> build
//             nodes -> bind data listener -> kActivate -> heartbeat
//             thread.
//   Serve():  block until the coordinator sends kShutdown (or Stop() is
//             called, e.g. from a SIGINT handler). In-flight RPCs drain
//             before teardown: the transport's endpoint removal waits for
//             every running handler, so a worker asked to exit mid-read
//             finishes the response instead of slamming the socket.
//
// Control messages (the 500-599 deploy band) arrive on the same data
// endpoint: kSetDiskDelay (fault injection for chaos drills) and kShutdown.
// The host keeps no ring and dials no other worker.
//
// Compute never ships here: JobSpec holds C++ closures, so map/reduce
// execution stays in the coordinator process and only data-plane bytes
// (blocks, metadata, cache entries) cross this endpoint. docs/deployment.md
// covers the operational picture.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "cache/cache_node.h"
#include "common/mutex.h"
#include "dfs/dfs_node.h"
#include "net/bootstrap.h"
#include "net/tcp_transport.h"

namespace eclipse::mr {

struct WorkerHostOptions {
  /// Coordinator bootstrap endpoint (--coordinator host:port).
  std::string coordinator_host = "127.0.0.1";
  int coordinator_port = 0;

  /// Address this worker binds (--listen-host) and the address peers should
  /// dial it at (--advertise-host; differs behind NAT/containers).
  std::string listen_host = "127.0.0.1";
  std::string advertise_host = "127.0.0.1";
  /// Data listener port (--port; 0 = OS-assigned).
  int data_port = 0;

  /// Requested node id (--node; -1 = coordinator assigns).
  int desired_node = -1;

  int heartbeat_interval_ms = 500;
  /// Handshake RPC deadline.
  int hello_timeout_ms = 10'000;

  net::TcpTransport::Options transport;
};

class WorkerHost {
 public:
  explicit WorkerHost(WorkerHostOptions opts);
  ~WorkerHost();

  WorkerHost(const WorkerHost&) = delete;
  WorkerHost& operator=(const WorkerHost&) = delete;

  /// Run the bootstrap handshake and bring the data plane up. False on
  /// failure (coordinator unreachable, kReject, bind failure) — see error().
  bool Start();

  /// Block until the coordinator's kShutdown or Stop(). Returns 0 on a clean
  /// shutdown request, 1 if the heartbeat loop lost the coordinator.
  int Serve();

  /// Request exit from another thread or a signal-polling loop.
  void Stop();

  int node() const { return node_; }
  int data_port() const { return data_port_; }
  const std::string& error() const { return error_; }

  std::uint64_t heartbeats_sent() const { return heartbeats_sent_.load(); }

  // Component access for in-process tests.
  dfs::DfsNode& dfs_node() { return *dfs_node_; }
  cache::CacheNode& cache_node() { return *cache_node_; }
  net::TcpTransport& transport() { return transport_; }

 private:
  net::Message HandleControl(int from, const net::Message& m);
  void HeartbeatLoop();

  const WorkerHostOptions opts_;
  net::TcpTransport transport_;
  net::Dispatcher dispatcher_;
  std::unique_ptr<dfs::DfsNode> dfs_node_;
  std::unique_ptr<cache::CacheNode> cache_node_;

  int node_ = -1;
  int data_port_ = -1;
  std::string error_;  // written only during Start()

  Mutex mu_{Rank::kWorkerHost, "WorkerHost::mu_"};
  CondVar cv_;
  bool shutdown_ GUARDED_BY(mu_) = false;
  bool hb_stop_ GUARDED_BY(mu_) = false;

  std::atomic<std::int64_t> disk_delay_us_{0};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> coordinator_lost_{false};
  std::atomic<std::uint64_t> heartbeats_sent_{0};
  std::thread heartbeat_;
};

}  // namespace eclipse::mr
