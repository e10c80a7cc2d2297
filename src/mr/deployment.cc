#include "mr/deployment.h"

#include <chrono>

#include "common/log.h"
#include "net/dispatcher.h"
#include "net/retry.h"
#include "obs/trace.h"

namespace eclipse::mr {

namespace deploy = net::deploy;

std::int64_t DeploymentCoordinator::NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

DeploymentCoordinator::DeploymentCoordinator(DeploymentOptions opts)
    : opts_(std::move(opts)), transport_(opts_.transport) {
  bootstrap_port_ = transport_.RegisterAt(
      kBootstrapNode,
      [this](int from, const net::Message& m) { return HandleBootstrap(from, m); },
      opts_.bootstrap_port);
  if (bootstrap_port_ < 0) {
    LOG_ERROR << "deployment: bootstrap listener failed to bind "
              << opts_.bind_host << ":" << opts_.bootstrap_port;
  }
  // Socket internals live in the coordinator-owned registry (see
  // net_metrics()); the per-call series is bound by each Cluster into its
  // own registry instead.
  transport_.BindTransportMetrics(net_metrics_, "tcp");
}

DeploymentCoordinator::~DeploymentCoordinator() {
  {
    MutexLock lock(mu_);
    monitor_stop_ = true;
  }
  activated_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  // Worker processes are NOT shut down here: whether teardown means "stop
  // the fleet" (drills, tests) or "coordinator restart, workers keep
  // serving" is the application's call — eclipse-coordinator broadcasts
  // kShutdown explicitly.
}

net::Message DeploymentCoordinator::HandleBootstrap(int from, const net::Message& m) {
  (void)from;
  switch (m.type) {
    case deploy::msg::kHello:
      return HandleHello(m);
    case deploy::msg::kActivate:
      return HandleActivate(m);
    case deploy::msg::kHeartbeat:
      return HandleHeartbeat(m);
    default:
      return net::ErrorMessage(ErrorCode::kInvalidArgument, "unknown bootstrap message");
  }
}

net::Message DeploymentCoordinator::HandleHello(const net::Message& m) {
  deploy::Hello hello;
  if (!deploy::DecodeHello(m, &hello) || hello.magic != deploy::kProtocolMagic) {
    return deploy::EncodeReject({"not an eclipse worker (bad magic)"});
  }
  if (hello.version != deploy::kProtocolVersion) {
    return deploy::EncodeReject(
        {"protocol version mismatch: coordinator=" +
         std::to_string(deploy::kProtocolVersion) +
         " worker=" + std::to_string(hello.version)});
  }

  deploy::Welcome welcome;
  {
    MutexLock lock(mu_);
    int id = hello.desired_node;
    if (id >= 0 && workers_.count(id)) {
      return deploy::EncodeReject({"node id " + std::to_string(id) + " already taken"});
    }
    if (id < 0) {
      while (workers_.count(next_node_)) ++next_node_;
      id = next_node_++;
    }
    workers_[id];  // reserved, inactive until kActivate
    welcome.node = id;
  }
  welcome.cache_capacity = opts_.cache_capacity;
  obs::Tracer::Global().Emit('i', "deploy", "worker_hello", obs::kDriverPid,
                             {obs::U64("node", static_cast<std::uint64_t>(welcome.node))});
  return deploy::EncodeWelcome(welcome);
}

net::Message DeploymentCoordinator::HandleActivate(const net::Message& m) {
  deploy::Activate a;
  if (!deploy::DecodeActivate(m, &a)) {
    return net::ErrorMessage(ErrorCode::kInvalidArgument, "bad activate");
  }
  {
    MutexLock lock(mu_);
    auto it = workers_.find(a.node);
    if (it == workers_.end()) {
      return net::ErrorMessage(ErrorCode::kInvalidArgument,
                               "activate for unknown node " + std::to_string(a.node));
    }
    it->second.active = true;
    it->second.shut_down = false;
    it->second.last_heartbeat_ms = NowMs();
  }
  transport_.AddPeer(a.node, a.host, a.port);
  activated_.notify_all();
  obs::Tracer::Global().Emit('i', "deploy", "worker_activate", obs::kDriverPid,
                             {obs::U64("node", static_cast<std::uint64_t>(a.node)),
                              obs::U64("port", static_cast<std::uint64_t>(a.port))});
  return deploy::EncodeOk();
}

net::Message DeploymentCoordinator::HandleHeartbeat(const net::Message& m) {
  deploy::Heartbeat hb;
  if (!deploy::DecodeHeartbeat(m, &hb)) {
    return net::ErrorMessage(ErrorCode::kInvalidArgument, "bad heartbeat");
  }
  MutexLock lock(mu_);
  auto it = workers_.find(hb.node);
  if (it != workers_.end()) it->second.last_heartbeat_ms = NowMs();
  ++heartbeats_;
  return deploy::EncodeOk();
}

bool DeploymentCoordinator::WaitForWorkers(int n, int timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  MutexLock lock(mu_);
  for (;;) {
    int active = 0;
    for (const auto& [id, w] : workers_) {
      if (w.active && !w.shut_down) ++active;
    }
    if (active >= n) return true;
    if (timeout_ms < 0) {
      activated_.wait(lock);
    } else if (activated_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return false;
    }
  }
}

int DeploymentCoordinator::WaitForWorkerAtLeast(int min_id, int timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  MutexLock lock(mu_);
  for (;;) {
    for (const auto& [id, w] : workers_) {
      if (id >= min_id && w.active && !w.shut_down) return id;
    }
    if (timeout_ms < 0) {
      activated_.wait(lock);
    } else if (activated_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return -1;
    }
  }
}

std::vector<int> DeploymentCoordinator::ActiveWorkers() const {
  MutexLock lock(mu_);
  std::vector<int> out;
  for (const auto& [id, w] : workers_) {
    if (w.active && !w.shut_down) out.push_back(id);
  }
  return out;
}

void DeploymentCoordinator::SetDiskDelay(int worker, std::int64_t delay_us) {
  net::ScopedDeadline sd(net::Deadline::After(std::chrono::milliseconds(2000)));
  (void)transport_.Call(kBootstrapNode, worker, deploy::EncodeDiskDelay({delay_us}));
}

void DeploymentCoordinator::ShutdownWorker(int worker) {
  bool was_active;
  {
    MutexLock lock(mu_);
    auto it = workers_.find(worker);
    if (it == workers_.end()) return;
    was_active = it->second.active && !it->second.shut_down;
    it->second.shut_down = true;
  }
  if (was_active) {
    net::ScopedDeadline sd(net::Deadline::After(std::chrono::milliseconds(2000)));
    (void)transport_.Call(kBootstrapNode, worker, deploy::EncodeShutdown());
  }
  transport_.RemovePeer(worker);
}

void DeploymentCoordinator::ShutdownAll() {
  for (int id : ActiveWorkers()) ShutdownWorker(id);
}

void DeploymentCoordinator::OnWorkerFailure(std::function<void(int)> cb) {
  MutexLock lock(mu_);
  while (cb_inflight_ > 0) activated_.wait(lock);
  on_failure_ = std::move(cb);
}

void DeploymentCoordinator::StartHeartbeatMonitor() {
  MutexLock lock(mu_);
  if (monitor_.joinable()) return;
  monitor_ = std::thread([this] { MonitorLoop(); });
}

void DeploymentCoordinator::MonitorLoop() {
  const auto interval = std::chrono::milliseconds(opts_.heartbeat_interval_ms);
  const std::int64_t budget =
      static_cast<std::int64_t>(opts_.heartbeat_interval_ms) * opts_.heartbeat_misses;
  for (;;) {
    std::vector<int> failed;
    std::function<void(int)> cb;
    {
      MutexLock lock(mu_);
      if (monitor_stop_) return;
      activated_.wait_for(lock, interval);
      if (monitor_stop_) return;
      const std::int64_t now = NowMs();
      for (auto& [id, w] : workers_) {
        if (!w.active || w.shut_down) continue;
        if (now - w.last_heartbeat_ms > budget) {
          w.shut_down = true;  // declared dead; report once
          failed.push_back(id);
        }
      }
      cb = on_failure_;
      if (!failed.empty() && cb) ++cb_inflight_;
    }
    for (int id : failed) {
      LOG_INFO << "deployment: worker " << id << " missed " << opts_.heartbeat_misses
               << " heartbeats, declaring failed";
      obs::Tracer::Global().Emit('i', "deploy", "worker_failed", obs::kDriverPid,
                                 {obs::U64("node", static_cast<std::uint64_t>(id))});
      transport_.RemovePeer(id);
      if (cb) cb(id);
    }
    if (!failed.empty() && cb) {
      MutexLock lock(mu_);
      --cb_inflight_;
      activated_.notify_all();
    }
  }
}

std::uint64_t DeploymentCoordinator::HeartbeatCount() const {
  MutexLock lock(mu_);
  return heartbeats_;
}

}  // namespace eclipse::mr
