// eclipse-coordinator — the control plane of a multi-process EclipseMR
// cluster.
//
// Opens the bootstrap endpoint, waits for eclipse-worker processes to
// register, forms a Cluster over them (compute — map/reduce closures —
// runs here; worker processes host only the data plane), runs the
// requested workload, and optionally serves Prometheus metrics over HTTP.
// See docs/deployment.md for the full operational walkthrough.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "apps/deploy_cli.h"
#include "apps/wordcount.h"
#include "common/rng.h"
#include "mr/cluster.h"
#include "mr/deployment.h"
#include "workload/generators.h"

using namespace eclipse;

namespace {

std::atomic<bool> g_stop{false};
void OnSignal(int) { g_stop.store(true); }

/// Minimal single-threaded HTTP 1.0 responder: every request gets the
/// current Prometheus exposition. Good enough for curl and a scraper; not a
/// general web server.
class MetricsHttpServer {
 public:
  bool Start(const std::string& host, int port, std::function<std::string()> render) {
    render_ = std::move(render);
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd_, 16) != 0) {
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    thread_ = std::thread([this] { Loop(); });
    return true;
  }

  ~MetricsHttpServer() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    if (fd_ >= 0) ::close(fd_);
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, 200) <= 0) continue;
      int client = ::accept(fd_, nullptr, nullptr);
      if (client < 0) continue;
      char buf[1024];
      (void)::read(client, buf, sizeof(buf));  // drain the request line
      std::string body = render_();
      std::string head = "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n"
                         "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
      // A scraper that hangs up early must not SIGPIPE the coordinator.
      (void)::send(client, head.data(), head.size(), MSG_NOSIGNAL);
      (void)::send(client, body.data(), body.size(), MSG_NOSIGNAL);
      ::close(client);
    }
  }

  int fd_ = -1;
  std::function<std::string()> render_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  // A worker or client that dies mid-exchange surfaces as a failed write,
  // never as a signal that takes the coordinator down with it.
  std::signal(SIGPIPE, SIG_IGN);
  const apps::FlagSet& flags = apps::CoordinatorFlagSet();
  apps::ParsedFlags parsed = apps::Parse(flags, argc, argv);
  if (!parsed.ok) {
    std::fprintf(stderr, "%s: %s\n", flags.binary, parsed.error.c_str());
    return 2;
  }
  if (parsed.help) {
    std::fputs(apps::Help(flags).c_str(), stdout);
    return 0;
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  const int num_workers = static_cast<int>(parsed.Int("--workers", 4));
  const int wait_ms = static_cast<int>(parsed.Int("--wait-ms", 30'000));
  const std::string listen_host = parsed.Str("--listen-host", "127.0.0.1");

  mr::DeploymentOptions dopts;
  dopts.bind_host = listen_host;
  dopts.bootstrap_port = static_cast<int>(parsed.Int("--port", 9090));
  dopts.heartbeat_interval_ms = static_cast<int>(parsed.Int("--heartbeat-ms", 500));
  dopts.heartbeat_misses = static_cast<int>(parsed.Int("--heartbeat-misses", 6));
  dopts.cache_capacity = static_cast<Bytes>(parsed.Int("--cache-mb", 64)) << 20;
  dopts.transport.listen_host = listen_host;

  auto coordinator = std::make_shared<mr::DeploymentCoordinator>(dopts);
  if (coordinator->bootstrap_port() < 0) {
    std::fprintf(stderr, "%s: failed to bind bootstrap port %d on %s\n", flags.binary,
                 dopts.bootstrap_port, listen_host.c_str());
    return 2;
  }
  std::printf("eclipse-coordinator: bootstrap on %s:%d, waiting for %d workers...\n",
              listen_host.c_str(), coordinator->bootstrap_port(), num_workers);
  std::fflush(stdout);
  if (!coordinator->WaitForWorkers(num_workers, wait_ms)) {
    std::fprintf(stderr, "%s: only %zu/%d workers registered within %d ms\n", flags.binary,
                 coordinator->ActiveWorkers().size(), num_workers, wait_ms);
    return 3;
  }

  int exit_code = 0;
  {
    mr::ClusterOptions copts;
    copts.deployment = coordinator;
    copts.cache_capacity = dopts.cache_capacity;
    copts.block_size = static_cast<Bytes>(parsed.Int("--block-kb", 64)) << 10;
    copts.replication = static_cast<std::size_t>(parsed.Int("--replication", 3));
    copts.vnodes = static_cast<int>(parsed.Int("--vnodes", 1));
    copts.scheduler = parsed.Str("--scheduler", "laf") == "delay" ? mr::SchedulerKind::kDelay
                                                                  : mr::SchedulerKind::kLaf;
    mr::Cluster cluster(copts);
    std::printf("eclipse-coordinator: cluster formed over %zu worker processes\n",
                cluster.WorkerIds().size());
    std::fflush(stdout);

    MetricsHttpServer metrics;
    const int metrics_port = static_cast<int>(parsed.Int("--metrics-port", 0));
    if (metrics_port > 0) {
      if (!metrics.Start(listen_host, metrics_port,
                         [&cluster] { return cluster.MetricsPrometheus(); })) {
        std::fprintf(stderr, "%s: failed to bind metrics port %d\n", flags.binary,
                     metrics_port);
        return 2;
      }
      std::printf("eclipse-coordinator: metrics on http://%s:%d/metrics\n",
                  listen_host.c_str(), metrics_port);
    }

    const std::string job = parsed.Str("--job", "wordcount");
    if (job == "wordcount") {
      Rng rng(static_cast<std::uint64_t>(parsed.Int("--seed", 42)));
      workload::TextOptions topts;
      topts.target_bytes = static_cast<Bytes>(parsed.Int("--input-kb", 200)) << 10;
      const std::string corpus = workload::GenerateText(rng, topts);
      if (Status s = cluster.dfs().Upload("corpus", corpus); !s.ok()) {
        std::fprintf(stderr, "%s: upload failed: %s\n", flags.binary, s.ToString().c_str());
        return 4;
      }

      const int submitters = static_cast<int>(parsed.Int("--submitters", 1));
      const int jobs_per = static_cast<int>(parsed.Int("--jobs-per-submitter", 1));
      std::vector<mr::JobResult> results(
          static_cast<std::size_t>(submitters) * static_cast<std::size_t>(jobs_per));
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::thread> threads;
      for (int s = 0; s < submitters; ++s) {
        threads.emplace_back([&, s] {
          for (int j = 0; j < jobs_per; ++j) {
            std::string name = "wc-" + std::to_string(s) + "-" + std::to_string(j);
            results[static_cast<std::size_t>(s) * jobs_per + j] =
                cluster.Submit(apps::WordCountJob(name, "corpus")).Wait();
          }
        });
      }
      for (auto& t : threads) t.join();
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

      for (const auto& r : results) {
        if (!r.status.ok()) {
          std::fprintf(stderr, "%s: job failed: %s\n", flags.binary,
                       r.status.ToString().c_str());
          exit_code = 4;
        } else if (r.output != results[0].output) {
          std::fprintf(stderr, "%s: MISMATCH: concurrent jobs disagree on output\n",
                       flags.binary);
          exit_code = 4;
        }
      }
      if (exit_code == 0) {
        std::printf("eclipse-coordinator: %d jobs ok, %.2f jobs/s\n",
                    submitters * jobs_per, (submitters * jobs_per) / secs);
        std::printf("output pairs: %zu fingerprint: %016llx\n", results[0].output.size(),
                    static_cast<unsigned long long>(apps::OutputFingerprint(results[0].output)));
      }
    } else if (job != "none") {
      std::fprintf(stderr, "%s: unknown --job '%s' (wordcount|none)\n", flags.binary,
                   job.c_str());
      exit_code = 2;
    }

    if (exit_code == 0 && parsed.Has("--serve")) {
      std::printf("eclipse-coordinator: serving (ctrl-C to exit)\n");
      std::fflush(stdout);
      while (!g_stop.load()) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }  // Cluster down: job state drained before workers are told to exit.

  if (!parsed.Has("--keep-workers")) coordinator->ShutdownAll();
  std::printf("eclipse-coordinator: done\n");
  return exit_code;
}
