// chaos_wordcount — the fault-tolerance quick-start (chaos drill):
// run word count twice on identical corpora, once on a healthy cluster and
// once under a seeded FaultPlan — ≥5% dropped requests everywhere, a slow
// disk on one server, duplicated deliveries — plus a genuine mid-job server
// crash, with retries, deadlines, and speculative execution turned on.
//
// The drill passes only if the chaos run's output is bit-identical to the
// healthy run's: every injected failure was absorbed by a retry, a replica
// fall-through, a producer re-run, or a backup attempt, never by changing
// the answer. The trace capture of the chaos run is validated in-process and
// written out for tools/trace_report.py, and must contain fault-injection
// events (proof the drill actually injected, not silently no-op'd).
//
// With --procs the chaos run targets a real multi-process deployment: the
// binary fork+execs itself into 8 eclipse-worker-equivalent processes
// (apps/proc_fleet.h), bootstraps them through a DeploymentCoordinator, and
// runs the identical drill — same seed, same faults, same mid-job kill (the
// crash becomes a kShutdown to a live worker process) — while the healthy
// reference stays in-process. Passing therefore proves emulation and
// deployment agree bit-for-bit even under fire, and the final reap proves
// every worker process exited 0 from the shutdown broadcast.
//
// Usage: chaos_wordcount [trace_out.json] [seed] [--procs]
// Exit code is non-zero if either job fails, outputs differ, the trace does
// not validate, no fault events were captured, or (--procs) a worker process
// exited unclean — so CI can run this binary as the chaos smoke test in both
// modes. See docs/fault-tolerance.md and docs/deployment.md.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/proc_fleet.h"
#include "apps/wordcount.h"
#include "fault/fault_plan.h"
#include "mr/cluster.h"
#include "mr/deployment.h"
#include "obs/summary.h"
#include "obs/trace.h"
#include "workload/generators.h"

using namespace eclipse;
using namespace std::chrono_literals;

namespace {

std::string MakeCorpus() {
  Rng rng(42);
  workload::TextOptions topts;
  topts.target_bytes = 200_KiB;
  return workload::GenerateText(rng, topts);
}

/// The chaos half of the drill, against whatever cluster the caller built
/// (emulated workers or a multi-process deployment). Returns the process
/// exit code.
int RunChaos(mr::Cluster& cluster, const std::string& corpus,
             const mr::JobResult& reference, std::uint64_t seed,
             const std::string& trace_path) {
  auto& tracer = obs::Tracer::Global();
  tracer.Start();

  if (Status s = cluster.dfs().Upload("corpus", corpus); !s.ok()) {
    std::fprintf(stderr, "chaos upload failed: %s\n", s.ToString().c_str());
    return 1;
  }

  fault::FaultPlan plan;
  plan.seed = seed;
  // Every edge drops 5% of requests and 2% of responses, and duplicates 1%
  // of deliveries (idempotency check rides along for free).
  plan.edges.push_back(fault::EdgeFault{.from = fault::kAnyNode,
                                        .to = fault::kAnyNode,
                                        .drop_request = 0.05,
                                        .drop_response = 0.02,
                                        .duplicate = 0.01});
  // Server 2's disk answers, slowly — the gray failure speculation targets.
  plan.slow_disk_nodes = {2};
  plan.slow_disk_latency = 2ms;
  fault::ScopedFaultPlan scoped(*cluster.options().fault_controller, plan);
  // Multi-process workers only see slow-disk settings the coordinator pushes
  // (kSetDiskDelay); in-process mode this is a no-op — the BlockStore hook
  // reads the controller directly.
  cluster.SyncDiskDelays();

  mr::JobSpec job = apps::WordCountJob("wc-chaos", "corpus");
  job.task_deadline = 2000ms;
  job.speculative_execution = true;
  job.straggler_percentile = 0.75;
  job.straggler_multiplier = 3.0;
  job.speculation_min_completed = 3;

  // The mid-job crash: server 5 dies while the job runs; recovery re-reads
  // replicas and re-runs the producers of any spills that died with it. In
  // --procs mode this shuts down a live worker process mid-flight.
  std::thread killer([&cluster] {
    std::this_thread::sleep_for(20ms);
    cluster.KillServer(5);
  });
  mr::JobResult chaos = cluster.Run(job);
  killer.join();
  tracer.Stop();

  if (!chaos.status.ok()) {
    std::fprintf(stderr, "chaos job failed: %s\n", chaos.status.ToString().c_str());
    return 1;
  }
  if (chaos.output != reference.output) {
    std::fprintf(stderr, "MISMATCH: chaos output (%zu pairs) != reference (%zu pairs)\n",
                 chaos.output.size(), reference.output.size());
    return 1;
  }

  // The drill must actually have injected something.
  std::size_t fault_events = 0;
  for (const auto& ev : tracer.Snapshot()) {
    if (ev.cat && std::string_view(ev.cat) == "fault") ++fault_events;
  }
  if (fault_events == 0) {
    std::fprintf(stderr, "no fault events captured — the plan never fired\n");
    return 1;
  }

  std::string json = tracer.ExportChromeTrace();
  if (Status valid = obs::ValidateChromeTrace(json); !valid.ok()) {
    std::fprintf(stderr, "trace failed validation: %s\n", valid.ToString().c_str());
    return 1;
  }
  if (Status wrote = tracer.WriteChromeTrace(trace_path); !wrote.ok()) {
    std::fprintf(stderr, "trace write failed: %s\n", wrote.ToString().c_str());
    return 1;
  }

  std::printf("chaos drill passed: %zu output pairs identical to the healthy run\n",
              chaos.output.size());
  std::printf("  seed %llu, %zu fault events, wrote %s\n",
              static_cast<unsigned long long>(seed), fault_events, trace_path.c_str());
  std::printf("  map retries: %llu  maps speculated: %llu  reduces speculated: %llu  "
              "speculative wins: %llu\n",
              static_cast<unsigned long long>(chaos.stats.map_retries),
              static_cast<unsigned long long>(chaos.stats.maps_speculated),
              static_cast<unsigned long long>(chaos.stats.reduces_speculated),
              static_cast<unsigned long long>(chaos.stats.speculative_wins));
  std::printf("\n%s\n", obs::RenderJobSummaries(obs::Summarize(tracer.Snapshot())).c_str());
  std::printf("--- prometheus exposition ---\n%s", cluster.MetricsPrometheus().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  apps::MaybeRunFleetWorker(argc, argv);  // re-exec'd children never return

  std::string trace_path = "chaos_trace.json";
  std::uint64_t seed = 1234;
  bool procs = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--procs") == 0) {
      procs = true;
    } else if (positional == 0) {
      trace_path = argv[i];
      ++positional;
    } else if (positional == 1) {
      seed = std::strtoull(argv[i], nullptr, 10);
      ++positional;
    } else {
      std::fprintf(stderr, "usage: %s [trace_out.json] [seed] [--procs]\n", argv[0]);
      return 1;
    }
  }
  const std::string corpus = MakeCorpus();

  // --procs: spawn the worker fleet before the (slow) reference phase; the
  // children retry their kHello against the coordinator we bind now, so the
  // start order does not matter.
  apps::ProcFleet fleet;
  std::shared_ptr<mr::DeploymentCoordinator> coordinator;
  if (procs) {
    mr::DeploymentOptions dopts;  // bootstrap port 0: the kernel picks a free one
    dopts.cache_capacity = 32ull << 20;  // match the emulated drill's 32 MiB
    coordinator = std::make_shared<mr::DeploymentCoordinator>(dopts);
    const int port = coordinator->bootstrap_port();
    if (port < 0) {
      std::fprintf(stderr, "failed to bind a bootstrap port\n");
      return 1;
    }
    if (!fleet.Spawn(argv[0], 8, port)) return 1;
    std::printf("spawned 8 worker processes against 127.0.0.1:%d\n", port);
  }

  // ---- Reference: the same job on a healthy in-process cluster. -----------
  mr::JobResult reference;
  {
    mr::ClusterOptions options;
    options.num_servers = 8;
    options.block_size = 4_KiB;
    options.cache_capacity = 32_MiB;
    mr::Cluster cluster(options);
    if (Status s = cluster.dfs().Upload("corpus", corpus); !s.ok()) {
      std::fprintf(stderr, "reference upload failed: %s\n", s.ToString().c_str());
      return 1;
    }
    reference = cluster.Run(apps::WordCountJob("wc-ref", "corpus"));
    if (!reference.status.ok()) {
      std::fprintf(stderr, "reference job failed: %s\n",
                   reference.status.ToString().c_str());
      return 1;
    }
  }

  // ---- Chaos run: same corpus, same job, hostile environment. -------------
  int rc;
  {
    mr::ClusterOptions options;
    options.block_size = 4_KiB;
    options.cache_capacity = 32_MiB;
    options.fault_controller = std::make_shared<fault::FaultController>();
    // Flaky-network posture (docs/fault-tolerance.md): more attempts and a
    // bigger budget than the conservative defaults, since ~7% of requests
    // will need at least one retry.
    options.rpc_retry.max_attempts = 6;
    options.rpc_retry.initial_backoff = 200us;
    options.rpc_retry.max_backoff = 5ms;
    options.rpc_retry.budget = 500ms;
    if (procs) {
      if (!coordinator->WaitForWorkers(8, 30'000)) {
        std::fprintf(stderr, "only %zu/8 worker processes registered\n",
                     coordinator->ActiveWorkers().size());
        return 1;
      }
      options.deployment = coordinator;
    } else {
      options.num_servers = 8;
    }
    mr::Cluster cluster(options);
    rc = RunChaos(cluster, corpus, reference, seed, trace_path);
  }  // Cluster down before the workers are told to exit.

  if (procs) {
    coordinator->ShutdownAll();
    if (!fleet.ExpectCleanExit()) {
      std::fprintf(stderr, "worker processes did not all shut down cleanly\n");
      if (rc == 0) rc = 1;
    } else if (rc == 0) {
      std::printf("all worker processes exited 0 after the shutdown broadcast\n");
    }
  }
  return rc;
}
