#include "mr/worker_host.h"

#include <chrono>
#include <thread>

#include "common/log.h"
#include "net/retry.h"
#include "obs/trace.h"

namespace eclipse::mr {

namespace deploy = net::deploy;

namespace {

net::TcpTransport::Options TransportOptions(const WorkerHostOptions& opts) {
  net::TcpTransport::Options t = opts.transport;
  t.listen_host = opts.listen_host;
  return t;
}

}  // namespace

WorkerHost::WorkerHost(WorkerHostOptions opts)
    : opts_(std::move(opts)), transport_(TransportOptions(opts_)) {}

WorkerHost::~WorkerHost() {
  {
    MutexLock lock(mu_);
    hb_stop_ = true;
    shutdown_ = true;
  }
  cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
  // transport_ teardown stops every endpoint and joins its connection
  // threads (FrameServer::RemoveEndpoint returns only when no handler is
  // running), so dfs_node_/cache_node_ outlive all use.
}

bool WorkerHost::Start() {
  transport_.AddPeer(deploy::kCoordinatorNode, opts_.coordinator_host,
                     opts_.coordinator_port);

  deploy::Hello hello;
  hello.desired_node = opts_.desired_node;
  hello.advertise_host = opts_.advertise_host;
  deploy::Welcome welcome;
  {
    // Retry connect-refused until the deadline: operators may start workers
    // before the coordinator, and the whole fleet shouldn't care about order.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(opts_.hello_timeout_ms);
    Result<net::Message> resp =
        Status::Error(ErrorCode::kUnavailable, "never attempted");
    for (;;) {
      net::ScopedDeadline sd(net::Deadline::After(std::chrono::milliseconds(opts_.hello_timeout_ms)));
      resp = transport_.Call(opts_.desired_node, deploy::kCoordinatorNode,
                             deploy::EncodeHello(hello));
      if (resp.ok() || stop_requested_.load() ||
          std::chrono::steady_clock::now() + std::chrono::milliseconds(200) >= deadline) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    if (!resp.ok()) {
      error_ = "coordinator unreachable: " + resp.status().message();
      return false;
    }
    if (resp.value().type == deploy::msg::kReject) {
      deploy::Reject reject;
      deploy::DecodeReject(resp.value(), &reject);
      error_ = "coordinator rejected handshake: " + reject.reason;
      return false;
    }
    if (resp.value().type != deploy::msg::kWelcome ||
        !deploy::DecodeWelcome(resp.value(), &welcome)) {
      error_ = "malformed welcome from coordinator";
      return false;
    }
  }
  node_ = welcome.node;

  dfs_node_ = std::make_unique<dfs::DfsNode>(node_, dispatcher_);
  cache_node_ = std::make_unique<cache::CacheNode>(node_, dispatcher_,
                                                   welcome.cache_capacity);
  dispatcher_.Route(deploy::msg::kFirst, deploy::msg::kLast,
                    [this](int from, const net::Message& m) {
                      return HandleControl(from, m);
                    });

  // Slow-disk fault hook: sleeps whatever kSetDiskDelay last pushed. Wired
  // unconditionally (one relaxed load per block op when idle) so a drill can
  // inject at any time.
  dfs_node_->blocks().SetOpHook([this] {
    const std::int64_t us = disk_delay_us_.load(std::memory_order_relaxed);
    if (us <= 0) return;
    obs::Tracer::Global().Emit('i', "fault", "fault_slow_disk", node_,
                               {obs::U64("delay_us", static_cast<std::uint64_t>(us))});
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  });

  data_port_ = transport_.RegisterAt(node_, dispatcher_.AsHandler(), opts_.data_port);
  if (data_port_ < 0) {
    error_ = "failed to bind data listener on " + opts_.listen_host + ":" +
             std::to_string(opts_.data_port);
    return false;
  }

  {
    net::ScopedDeadline sd(net::Deadline::After(std::chrono::milliseconds(opts_.hello_timeout_ms)));
    auto resp = transport_.Call(
        node_, deploy::kCoordinatorNode,
        deploy::EncodeActivate({node_, opts_.advertise_host, data_port_}));
    if (!resp.ok() || net::IsError(resp.value())) {
      error_ = "activation failed";
      return false;
    }
  }

  heartbeat_ = std::thread([this] { HeartbeatLoop(); });
  LOG_INFO << "worker " << node_ << " active on " << opts_.advertise_host << ":"
           << data_port_;
  return true;
}

net::Message WorkerHost::HandleControl(int from, const net::Message& m) {
  (void)from;
  switch (m.type) {
    case deploy::msg::kSetDiskDelay: {
      deploy::DiskDelay d;
      if (!deploy::DecodeDiskDelay(m, &d)) {
        return net::ErrorMessage(ErrorCode::kInvalidArgument, "bad disk delay");
      }
      disk_delay_us_.store(d.delay_us, std::memory_order_relaxed);
      return deploy::EncodeOk();
    }

    case deploy::msg::kShutdown: {
      LOG_INFO << "worker " << node_ << " received shutdown";
      {
        MutexLock lock(mu_);
        shutdown_ = true;
      }
      cv_.notify_all();
      // The kOk response is written before teardown: this connection's
      // thread writes it as soon as the handler returns, and the endpoint
      // stops only when the transport is destroyed after Serve() returns,
      // which joins that thread.
      return deploy::EncodeOk();
    }

    default:
      return net::ErrorMessage(ErrorCode::kInvalidArgument, "unknown control message");
  }
}

void WorkerHost::HeartbeatLoop() {
  const auto interval = std::chrono::milliseconds(opts_.heartbeat_interval_ms);
  int consecutive_failures = 0;
  for (;;) {
    {
      MutexLock lock(mu_);
      cv_.wait_for(lock, interval);
      if (hb_stop_ || shutdown_) return;
    }
    if (stop_requested_.load()) return;
    net::ScopedDeadline sd(net::Deadline::After(interval));
    auto resp = transport_.Call(node_, deploy::kCoordinatorNode,
                                deploy::EncodeHeartbeat({node_}));
    if (resp.ok() && !net::IsError(resp.value())) {
      heartbeats_sent_.fetch_add(1);
      consecutive_failures = 0;
      continue;
    }
    if (consecutive_failures == 0) {
      LOG_WARN << "worker " << node_ << " heartbeat failed: "
               << (resp.ok() ? net::DecodeError(resp.value()).ToString()
                             : resp.status().ToString());
    }
    // A dead coordinator orphans this process; exit instead of spinning
    // forever (an operator restarting the coordinator restarts workers too).
    if (++consecutive_failures >= 10) {
      LOG_ERROR << "worker " << node_ << " lost the coordinator ("
                << consecutive_failures << " failed heartbeats), exiting";
      coordinator_lost_.store(true);
      {
        MutexLock lock(mu_);
        shutdown_ = true;
      }
      cv_.notify_all();
      return;
    }
  }
}

int WorkerHost::Serve() {
  {
    MutexLock lock(mu_);
    while (!shutdown_ && !stop_requested_.load()) {
      cv_.wait_for(lock, std::chrono::milliseconds(200));
    }
    hb_stop_ = true;
  }
  cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
  return coordinator_lost_.load() ? 1 : 0;
}

void WorkerHost::Stop() {
  stop_requested_.store(true);
  cv_.notify_all();
}

}  // namespace eclipse::mr
