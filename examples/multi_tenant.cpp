// multi_tenant — the concurrent multi-job acceptance drill: four tenants
// submit three jobs each (word count, grep, sort) against a shared cluster
// through the asynchronous Submit front end, all twelve in flight at once.
//
// The drill asserts the multi-job invariants end to end:
//
//   1. isolation: every concurrent job's output is bit-identical to the same
//      job run solo (serialized "key\tvalue\n" comparison) — note every
//      tenant uses the SAME job names ("analytics", "scan", "order"), so
//      this also exercises the job_id-namespaced spill scopes,
//   2. attribution: the trace capture holds one job span per submission and
//      per-job task ownership resolves through the explicit `job` span
//      argument (intervals overlap, containment alone would misattribute),
//   3. accounting: the Prometheus exposition carries per-job (job="N") and
//      per-user (user="uN") labelled series.
//
// With --procs the whole drill runs against a real multi-process deployment:
// the binary fork+execs itself into 8 worker processes (apps/proc_fleet.h),
// bootstraps them through a DeploymentCoordinator, and runs the identical
// twelve-job race over TCP — solo baselines and all. Every invariant above
// must hold unchanged, and every worker process must exit 0 from the final
// shutdown broadcast.
//
// Usage: multi_tenant [trace_out.json] [--procs]
// Exit code is non-zero on any violation, so CI runs this binary — plain,
// under TSan, and in --procs mode — as the multi-tenancy smoke test.
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/grep.h"
#include "apps/proc_fleet.h"
#include "apps/sort.h"
#include "apps/wordcount.h"
#include "mr/cluster.h"
#include "mr/deployment.h"
#include "obs/summary.h"
#include "obs/trace.h"
#include "workload/generators.h"

using namespace eclipse;

namespace {

std::string Serialize(const std::vector<mr::KV>& kvs) {
  std::string out;
  for (const auto& kv : kvs) {
    out += kv.key;
    out += '\t';
    out += kv.value;
    out += '\n';
  }
  return out;
}

constexpr int kUsers = 4;

/// The tenant's job list. Names deliberately repeat across tenants.
std::vector<mr::JobSpec> SpecsFor(int u) {
  const std::string user = 'u' + std::to_string(u);
  const std::string input = "corpus/" + user;
  std::vector<mr::JobSpec> specs;
  specs.push_back(apps::WordCountJob("analytics", input));
  specs.push_back(apps::GrepJob("scan", input, "w1"));
  specs.push_back(apps::SortJob("order", input));
  for (auto& s : specs) s.user = user;
  return specs;
}

/// The whole drill against whatever cluster the caller built (emulated
/// workers or a multi-process deployment). Returns the process exit code.
int RunDrill(mr::Cluster& cluster, const std::string& trace_path) {
  // One corpus per tenant, distinct seeds: correct answers differ per user,
  // so cross-job contamination cannot cancel out in the comparison.
  for (int u = 0; u < kUsers; ++u) {
    Rng rng(100 + u);
    workload::TextOptions topts;
    topts.target_bytes = 48_KiB;
    Status up = cluster.dfs().Upload("corpus/u" + std::to_string(u),
                                     workload::GenerateText(rng, topts));
    if (!up.ok()) {
      std::fprintf(stderr, "upload failed: %s\n", up.ToString().c_str());
      return 1;
    }
  }

  // Phase 1: solo baselines — each job alone on the cluster, untraced.
  std::vector<std::string> solo;
  for (int u = 0; u < kUsers; ++u) {
    for (auto& spec : SpecsFor(u)) {
      mr::JobResult r = cluster.Run(spec);
      if (!r.status.ok()) {
        std::fprintf(stderr, "solo %s/u%d failed: %s\n", spec.name.c_str(), u,
                     r.status.ToString().c_str());
        return 1;
      }
      solo.push_back(Serialize(r.output));
    }
  }

  // Phase 2: the same twelve jobs, submitted back to back and raced.
  auto& tracer = obs::Tracer::Global();
  tracer.Start();
  std::vector<mr::JobHandle> handles;
  for (int u = 0; u < kUsers; ++u) {
    for (auto& spec : SpecsFor(u)) handles.push_back(cluster.Submit(std::move(spec)));
  }
  std::vector<mr::JobResult> results;
  results.reserve(handles.size());
  for (auto& h : handles) results.push_back(h.Wait());
  tracer.Stop();

  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].status.ok()) {
      std::fprintf(stderr, "concurrent job %zu failed: %s\n", i,
                   results[i].status.ToString().c_str());
      return 1;
    }
    if (Serialize(results[i].output) != solo[i]) {
      std::fprintf(stderr, "job %zu (id %llu): concurrent output differs from solo run\n", i,
                   static_cast<unsigned long long>(results[i].job_id));
      return 1;
    }
  }

  // Trace artifact: validate structurally, then check per-job attribution.
  std::string json = tracer.ExportChromeTrace();
  if (Status valid = obs::ValidateChromeTrace(json); !valid.ok()) {
    std::fprintf(stderr, "trace failed validation: %s\n", valid.ToString().c_str());
    return 1;
  }
  if (Status wrote = tracer.WriteChromeTrace(trace_path); !wrote.ok()) {
    std::fprintf(stderr, "trace write failed: %s\n", wrote.ToString().c_str());
    return 1;
  }
  std::vector<obs::JobSummary> jobs = obs::Summarize(tracer.Snapshot());
  if (jobs.size() != handles.size()) {
    std::fprintf(stderr, "expected %zu job spans in the capture, found %zu\n", handles.size(),
                 jobs.size());
    return 1;
  }
  std::map<std::uint64_t, const obs::JobSummary*> by_id;
  for (const auto& j : jobs) by_id[j.job_id] = &j;
  for (const auto& h : handles) {
    auto it = by_id.find(h.job_id());
    if (it == by_id.end()) {
      std::fprintf(stderr, "no job span for submitted job id %llu\n",
                   static_cast<unsigned long long>(h.job_id()));
      return 1;
    }
    if (it->second->maps_total == 0 || it->second->reduces_total == 0) {
      std::fprintf(stderr, "job %llu attributed %llu maps / %llu reduces (want both > 0)\n",
                   static_cast<unsigned long long>(h.job_id()),
                   static_cast<unsigned long long>(it->second->maps_total),
                   static_cast<unsigned long long>(it->second->reduces_total));
      return 1;
    }
  }

  // Metrics: every job id and every tenant must appear as a label.
  std::string prom = cluster.MetricsPrometheus();
  for (const auto& h : handles) {
    std::string label = "job=\"" + std::to_string(h.job_id()) + "\"";
    if (prom.find(label) == std::string::npos) {
      std::fprintf(stderr, "prometheus exposition missing %s\n", label.c_str());
      return 1;
    }
  }
  for (int u = 0; u < kUsers; ++u) {
    std::string label = "user=\"u" + std::to_string(u) + "\"";
    if (prom.find(label) == std::string::npos) {
      std::fprintf(stderr, "prometheus exposition missing %s\n", label.c_str());
      return 1;
    }
  }

  std::printf("12 concurrent jobs (4 tenants x 3) bit-identical to solo runs\n");
  std::printf("wrote %s (%zu events)\n\n", trace_path.c_str(), tracer.Snapshot().size());
  std::printf("%s\n", obs::RenderJobSummaries(jobs).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  apps::MaybeRunFleetWorker(argc, argv);  // re-exec'd children never return

  std::string trace_path = "multi_tenant_trace.json";
  bool procs = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--procs") == 0) {
      procs = true;
    } else if (positional == 0) {
      trace_path = argv[i];
      ++positional;
    } else {
      std::fprintf(stderr, "usage: %s [trace_out.json] [--procs]\n", argv[0]);
      return 1;
    }
  }

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
    if (!coordinator->WaitForWorkers(8, 30'000)) {
      std::fprintf(stderr, "only %zu/8 worker processes registered\n",
                   coordinator->ActiveWorkers().size());
      return 1;
    }
    std::printf("drill runs over 8 worker processes on 127.0.0.1:%d\n", port);
  }

  int rc;
  {
    mr::ClusterOptions options;
    options.block_size = 4_KiB;
    options.cache_capacity = 32_MiB;
    options.max_concurrent_jobs = 6;
    options.user_weights = {{"u0", 1.0}, {"u1", 1.0}, {"u2", 2.0}, {"u3", 4.0}};
    if (procs) {
      options.deployment = coordinator;
    } else {
      options.num_servers = 8;
    }
    mr::Cluster cluster(options);
    rc = RunDrill(cluster, trace_path);
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
