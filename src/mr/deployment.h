// Coordinator-side deployment state machine (docs/deployment.md).
//
// Owns the cluster's TcpTransport and a bootstrap endpoint at the
// well-known node id kBootstrapNode. Worker processes (mr/worker_host.h)
// dial it, complete the kHello/kWelcome/kActivate handshake, and then
// heartbeat; the coordinator installs a peer route per activated worker so
// the Cluster's data-plane clients (DfsClient, the cache facade) can reach
// every worker's process.
//
// A Cluster built with ClusterOptions::deployment set uses this transport
// instead of constructing its own, builds remote-mode WorkerServers over
// the active worker set, and receives worker-failure callbacks from the
// heartbeat monitor here (replacing in-process MembershipAgents, whose
// agent-to-agent gossip assumes every node handler lives in this process).
//
// Thread-safety: mu_ (Rank::kDeployment) guards the worker table; it is
// never held across a transport call or a failure callback.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "net/bootstrap.h"
#include "net/tcp_transport.h"

namespace eclipse::mr {

struct DeploymentOptions {
  /// Bootstrap listener bind address/port (0 = OS-assigned; real clusters
  /// pass --port and workers dial it via --coordinator).
  std::string bind_host = "127.0.0.1";
  int bootstrap_port = 0;

  /// Worker liveness policy: a worker missing `heartbeat_misses` consecutive
  /// intervals is declared failed (mirrors dht::MembershipConfig defaults).
  int heartbeat_interval_ms = 500;
  int heartbeat_misses = 6;

  /// Cache slice the kWelcome reply dictates to every worker, so emulation
  /// and deployment run identical data-plane settings.
  std::uint64_t cache_capacity = 64ull << 20;

  net::TcpTransport::Options transport;
};

class DeploymentCoordinator {
 public:
  /// Node id of the coordinator's bootstrap endpoint — outside the worker id
  /// space (workers are 0..N-1, the external DFS client is 1'000'000).
  static constexpr net::NodeId kBootstrapNode = net::deploy::kCoordinatorNode;

  explicit DeploymentCoordinator(DeploymentOptions opts);
  ~DeploymentCoordinator();

  DeploymentCoordinator(const DeploymentCoordinator&) = delete;
  DeploymentCoordinator& operator=(const DeploymentCoordinator&) = delete;

  /// The shared cluster transport. Lives as long as this coordinator; the
  /// Cluster borrows it (never owns it) in deployment mode.
  net::TcpTransport& transport() { return transport_; }

  /// Bound bootstrap port (-1 if the listener failed to bind).
  int bootstrap_port() const { return bootstrap_port_; }

  /// Block until `n` workers have completed activation (or `timeout_ms`
  /// elapses; <0 = wait forever). Returns true when the target was reached.
  bool WaitForWorkers(int n, int timeout_ms);

  /// Block until some worker with id >= `min_id` is active (late join,
  /// Cluster::AddServer adopting a freshly started process). Returns the
  /// smallest such id, or -1 on timeout. Safe to call after the worker
  /// already activated.
  int WaitForWorkerAtLeast(int min_id, int timeout_ms);

  /// Ids of workers that are activated and not shut down, ascending.
  std::vector<int> ActiveWorkers() const;

  /// Slow-disk fault injection: set the worker's BlockStore op delay.
  void SetDiskDelay(int worker, std::int64_t delay_us);

  /// Ask one worker process to drain and exit, then drop its peer route.
  /// Idempotent; unreachable workers are dropped silently.
  void ShutdownWorker(int worker);
  void ShutdownAll();

  /// Failure callback (heartbeat monitor): invoked with the worker id, off
  /// any coordinator lock. Install before StartHeartbeatMonitor. Replacing
  /// the callback (including with nullptr) blocks until any in-flight
  /// invocation returns, so a Cluster can safely detach in its destructor.
  void OnWorkerFailure(std::function<void(int)> cb);
  void StartHeartbeatMonitor();

  /// Heartbeats received in total (tests).
  std::uint64_t HeartbeatCount() const;

  /// Socket-internals registry (net.accepted_connections,
  /// net.frames_dispatched, net.handler_threads, net.pool_*): the
  /// transport's counters are bound here — a registry with exactly the
  /// transport's lifetime — instead of the Cluster's, so the server's
  /// connection threads can keep accounting heartbeat traffic while
  /// Clusters come and go. Cluster::MetricsPrometheus appends this render
  /// to its own.
  MetricsRegistry& net_metrics() { return net_metrics_; }

 private:
  struct WorkerState {
    bool active = false;
    bool shut_down = false;
    std::int64_t last_heartbeat_ms = 0;  // steady clock, monitor's basis
  };

  net::Message HandleBootstrap(int from, const net::Message& m);
  net::Message HandleHello(const net::Message& m);
  net::Message HandleActivate(const net::Message& m);
  net::Message HandleHeartbeat(const net::Message& m);
  void MonitorLoop();
  static std::int64_t NowMs();

  const DeploymentOptions opts_;
  MetricsRegistry net_metrics_;  // declared before transport_: outlives it
  net::TcpTransport transport_;
  int bootstrap_port_ = -1;

  mutable Mutex mu_{Rank::kDeployment, "DeploymentCoordinator::mu_"};
  CondVar activated_;  // signaled on every kActivate
  std::map<int, WorkerState> workers_ GUARDED_BY(mu_);
  int next_node_ GUARDED_BY(mu_) = 0;
  std::uint64_t heartbeats_ GUARDED_BY(mu_) = 0;
  std::function<void(int)> on_failure_ GUARDED_BY(mu_);
  int cb_inflight_ GUARDED_BY(mu_) = 0;  // monitor callbacks currently running
  bool monitor_stop_ GUARDED_BY(mu_) = false;
  std::thread monitor_;
};

}  // namespace eclipse::mr
