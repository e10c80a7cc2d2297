// slo_drill — the prediction-driven scheduling acceptance drill: tight-SLO
// interactive jobs share the cluster with a bulk sort, admission control is
// driven by the cluster RuntimePredictor, and the same predictor anchors
// straggler detection (deviation mode) in the discrete-event simulator.
//
// The drill asserts the SLO/admission invariants end to end:
//
//   1. learning: three solo runs warm the predictor for a job name; the
//      per-(job, phase, size-bucket) estimate becomes available to Predict,
//   2. admission: deadline jobs racing a bulk sort are admitted with a
//      non-zero ETA, finish inside their deadline, miss no SLO, and complete
//      near their admission ETA (mean relative error under a fixed bound),
//   3. rejection: an impossible deadline under kRejectOnMiss completes
//      immediately with kResourceExhausted and reports the predicted ETA;
//      the same deadline under kQueueOnMiss still runs (and its SLO miss is
//      counted in mr.slo_miss),
//   4. observability: the trace capture carries job_admit / job_reject /
//      slo_miss instants and the Prometheus exposition the
//      mr.jobs_rejected{user} counter,
//   5. simulation: in EclipseDes, deviation-mode speculation launches no
//      more backups than the static percentile rule on a healthy cluster,
//      and on a cluster with slow nodes it wins backups and beats the
//      no-speculation wall time.
//
// Usage: slo_drill [trace_out.json]
// Exit code is non-zero on any violation, so CI runs this binary — plain and
// under TSan — as the SLO/admission smoke test.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "apps/sort.h"
#include "apps/wordcount.h"
#include "mr/cluster.h"
#include "obs/trace.h"
#include "sim/constants.h"
#include "sim/eclipse_des.h"
#include "workload/generators.h"

using namespace eclipse;

namespace {

using Clock = std::chrono::steady_clock;

constexpr char kLatencyJob[] = "latency";
constexpr char kBulkJob[] = "bulk-sort";

// Bound on the admission ETA's mean relative error over the deadline jobs of
// phase 2, |completed - ETA| / ETA, each measured from the job's submit. The
// largest value seen in 64 runs per Release, ASan and TSan build, half of
// them four drills at once on 4 vCPUs, was 3.44; the bound is over twice it.
constexpr double kMaxAdmissionEtaError = 8.0;

int Fail(const char* what) {
  std::fprintf(stderr, "slo_drill: %s\n", what);
  return 1;
}

/// Cluster half: admission control against the real engine.
int RunClusterDrill(const std::string& trace_path) {
  mr::ClusterOptions options;
  options.num_servers = 8;
  options.block_size = 4_KiB;
  options.cache_capacity = 32_MiB;
  options.max_concurrent_jobs = 4;
  mr::Cluster cluster(options);

  Rng rng(7);
  workload::TextOptions small_opts;
  small_opts.target_bytes = 16_KiB;
  workload::TextOptions bulk_opts;
  bulk_opts.target_bytes = 96_KiB;
  if (!cluster.dfs().Upload("corpus/small", workload::GenerateText(rng, small_opts)).ok() ||
      !cluster.dfs().Upload("corpus/bulk", workload::GenerateText(rng, bulk_opts)).ok()) {
    return Fail("corpus upload failed");
  }

  // Phase 1 — learning: solo runs feed the predictor (Cluster::Run bypasses
  // admission but every completed job records its wall time).
  for (int i = 0; i < 3; ++i) {
    mr::JobResult r = cluster.Run(apps::WordCountJob(kLatencyJob, "corpus/small"));
    if (!r.status.ok()) return Fail("training run failed");
  }
  auto meta = cluster.dfs().GetMetadata("corpus/small");
  if (!meta.ok()) return Fail("no metadata for corpus/small");
  auto predicted = cluster.predictor().Predict(kLatencyJob, sched::PredictPhase::kJob,
                                              meta.value().size);
  if (!predicted || predicted->bound_us == 0) {
    return Fail("predictor still cold after three training runs");
  }
  std::printf("predictor warm: %s ~ %llu us (bound %llu us, %llu samples)\n", kLatencyJob,
              static_cast<unsigned long long>(predicted->mean_us),
              static_cast<unsigned long long>(predicted->bound_us),
              static_cast<unsigned long long>(predicted->samples));

  // Phase 2 — the mixed race, traced: one bulk sort (no deadline) plus three
  // deadline/SLO word counts sharing the cluster. Each job is waited for on
  // its own thread, so its completion time is taken when it completes.
  auto& tracer = obs::Tracer::Global();
  tracer.Start();
  const auto deadline = std::chrono::milliseconds(20'000);
  std::vector<mr::JobHandle> handles;
  std::vector<Clock::time_point> submitted;
  submitted.push_back(Clock::now());
  handles.push_back(cluster.Submit(apps::SortJob(kBulkJob, "corpus/bulk")));
  for (int i = 0; i < 3; ++i) {
    mr::JobSpec spec = apps::WordCountJob(kLatencyJob, "corpus/small");
    spec.deadline = deadline;
    spec.slo = deadline;
    submitted.push_back(Clock::now());
    handles.push_back(cluster.Submit(std::move(spec)));
  }
  std::vector<mr::JobResult> results(handles.size());
  std::vector<double> completed_us(handles.size(), 0.0);
  {
    std::vector<std::thread> waiters;
    for (std::size_t i = 0; i < handles.size(); ++i) {
      waiters.emplace_back([&, i] {
        results[i] = handles[i].Wait();
        completed_us[i] =
            std::chrono::duration<double, std::micro>(Clock::now() - submitted[i]).count();
      });
    }
    for (auto& w : waiters) w.join();
  }
  double eta_error_sum = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].status.ok()) return Fail("mixed-race job failed");
    if (i == 0) continue;  // the bulk sort carries no deadline
    if (results[i].eta_us == 0) return Fail("admitted deadline job reports no ETA");
    if (results[i].slo_missed) return Fail("deadline job missed its SLO");
    if (results[i].stats.wall_seconds * 1e6 >
        static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(deadline)
                                .count())) {
      return Fail("deadline job finished past its deadline");
    }
    const double eta_us = static_cast<double>(results[i].eta_us);
    eta_error_sum += std::abs(completed_us[i] - eta_us) / eta_us;
  }
  const double eta_error = eta_error_sum / static_cast<double>(results.size() - 1);
  std::printf("mixed race: 3 deadline jobs met a %lld ms deadline alongside %s; "
              "admission ETA error %.3f (bound %.1f)\n",
              static_cast<long long>(deadline.count()), kBulkJob, eta_error,
              kMaxAdmissionEtaError);
  if (eta_error > kMaxAdmissionEtaError) {
    return Fail("admission ETA error past its bound");
  }

  // Phase 3 — rejection: a deadline no prediction can meet.
  mr::JobSpec impossible = apps::WordCountJob(kLatencyJob, "corpus/small");
  impossible.deadline = std::chrono::milliseconds(1);
  impossible.admission = mr::AdmissionPolicy::kRejectOnMiss;
  mr::JobHandle rejected = cluster.Submit(std::move(impossible));
  mr::JobResult rr = rejected.Wait();
  if (rr.status.ok() || rr.status.code() != ErrorCode::kResourceExhausted) {
    return Fail("impossible deadline was not rejected with kResourceExhausted");
  }
  if (rr.eta_us == 0 || rejected.eta_us() == 0) {
    return Fail("rejected job reports no ETA");
  }
  std::printf("rejection: 1 ms deadline refused with ETA %llu us\n",
              static_cast<unsigned long long>(rr.eta_us));

  // The same deadline under kQueueOnMiss still runs — and its SLO miss is
  // counted rather than enforced. The small word count can finish inside
  // 1 ms on an idle host, so each of its map tasks first sleeps 2 ms.
  mr::JobSpec queued = apps::WordCountJob(kLatencyJob, "corpus/small");
  queued.mapper = [inner = queued.mapper] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return inner();
  };
  queued.deadline = std::chrono::milliseconds(1);
  queued.slo = std::chrono::milliseconds(1);
  queued.admission = mr::AdmissionPolicy::kQueueOnMiss;
  mr::JobResult qr = cluster.Submit(std::move(queued)).Wait();
  if (!qr.status.ok()) return Fail("kQueueOnMiss job did not run");
  if (qr.eta_us == 0) return Fail("kQueueOnMiss job reports no ETA");
  if (!qr.slo_missed) return Fail("1 ms SLO was somehow met");
  tracer.Stop();

  // Phase 4 — observability: instants in the trace, counters in Prometheus.
  std::string json = tracer.ExportChromeTrace();
  if (Status valid = obs::ValidateChromeTrace(json); !valid.ok()) {
    return Fail("trace failed validation");
  }
  if (!tracer.WriteChromeTrace(trace_path).ok()) return Fail("trace write failed");
  for (const char* name : {"job_admit", "job_reject", "slo_miss"}) {
    if (json.find(std::string("\"") + name + "\"") == std::string::npos) {
      std::fprintf(stderr, "slo_drill: trace carries no %s instant\n", name);
      return 1;
    }
  }
  std::string prom = cluster.MetricsPrometheus();
  if (prom.find("mr_jobs_rejected") == std::string::npos &&
      prom.find("mr.jobs_rejected") == std::string::npos) {
    return Fail("prometheus exposition missing mr.jobs_rejected");
  }
  std::printf("trace: job_admit/job_reject/slo_miss present; wrote %s\n", trace_path.c_str());
  return 0;
}

/// Simulator half: deviation-mode speculation in EclipseDes. The map-phase
/// wall time is iteration_seconds[0] (loser backup attempts drain the event
/// queue past the job's real completion, so job_seconds overstates it).
int RunDesDrill() {
  sim::SimConfig base;
  base.num_nodes = 10;
  base.nodes_per_rack = 5;
  base.speculative_execution = true;
  base.straggler_deviation = 1.5;

  sim::SimJobSpec job;
  job.app = sim::KMeansProfile();  // CPU-bound: slow nodes really straggle
  job.dataset = "des-corpus";
  job.num_blocks = 20;

  // Healthy cluster: the deviation rule must launch no more backups than
  // the static percentile rule it replaces. Both simulators see the same
  // deterministic event sequence; the predictor warms over the first runs.
  auto backups_after_warmup = [&](bool predictor_on) {
    sim::SimConfig cfg = base;
    cfg.predictor_speculation = predictor_on;
    sim::EclipseDes des(cfg);
    std::uint64_t last = 0;
    for (int i = 0; i < 3; ++i) last = des.RunJob(job).speculative_tasks;
    return last;
  };
  const std::uint64_t static_backups = backups_after_warmup(false);
  const std::uint64_t predictor_backups = backups_after_warmup(true);
  if (predictor_backups > static_backups) {
    std::fprintf(stderr, "slo_drill: healthy DES run: deviation mode launched %llu backups vs "
                         "%llu static\n",
                 static_cast<unsigned long long>(predictor_backups),
                 static_cast<unsigned long long>(static_backups));
    return 1;
  }
  std::printf("DES healthy: %llu predictor backups <= %llu static backups\n",
              static_cast<unsigned long long>(predictor_backups),
              static_cast<unsigned long long>(static_backups));

  // Learn the healthy baseline, then degrade two nodes 6x. Deviation mode
  // anchors at the *healthy* learned mean, so it flags the slow tasks well
  // before the within-run percentile rule (whose completed-task sample is
  // itself polluted by the degradation) and must beat both it and the
  // no-speculation run.
  sim::EclipseDes healthy(base);
  healthy.RunJob(job);
  auto learned =
      healthy.predictor().Predict(job.app.name, sched::PredictPhase::kMap, base.block_size);
  if (!learned) return Fail("DES predictor cold after a healthy run");

  sim::SimConfig slow = base;
  slow.slow_nodes = 2;
  slow.slow_factor = 6.0;

  sim::SimConfig off = slow;
  off.speculative_execution = false;
  const double unaided_secs = sim::EclipseDes(off).RunJob(job).iteration_seconds[0];

  sim::SimConfig stat = slow;
  stat.predictor_speculation = false;
  const double static_secs = sim::EclipseDes(stat).RunJob(job).iteration_seconds[0];

  sim::EclipseDes des(slow);
  for (int i = 0; i < 8; ++i) {
    des.predictor().Record(job.app.name, sched::PredictPhase::kMap, slow.block_size,
                           learned->mean_us);
  }
  sim::SimJobResult aided = des.RunJob(job);
  if (aided.speculative_wins == 0) return Fail("slow-node DES run won no backups");
  const double aided_secs = aided.iteration_seconds[0];
  if (aided_secs >= unaided_secs || aided_secs > static_secs) {
    std::fprintf(stderr,
                 "slo_drill: deviation mode did not help: %.2f s vs %.2f s static vs %.2f s "
                 "unaided\n",
                 aided_secs, static_secs, unaided_secs);
    return 1;
  }
  std::printf("DES slow nodes: %.2f s deviation mode (%llu wins) vs %.2f s static percentile "
              "vs %.2f s unaided\n",
              aided_secs, static_cast<unsigned long long>(aided.speculative_wins), static_secs,
              unaided_secs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path = argc > 1 ? argv[1] : "slo_drill_trace.json";
  if (int rc = RunClusterDrill(trace_path); rc != 0) return rc;
  if (int rc = RunDesDrill(); rc != 0) return rc;
  std::printf("slo_drill: all invariants hold\n");
  return 0;
}
