// Macro data-path benchmark — the performance trajectory of the
// map→shuffle→reduce hot path (ROADMAP north star: "as fast as the hardware
// allows").
//
// Measures, end to end on the emulated cluster plus in isolation:
//
//   cache_get_hit_*   — LruCache::Get on a cached 1 MiB block (the §II-C
//                       memory-locality read every warm map task performs)
//   shuffle_add_*     — ShuffleWriter::Add routing+buffering cost per
//                       intermediate record, at 8 and 64 hash-key ranges
//   wordcount_*/sort_* — whole jobs on an 8-server cluster, cold (disk) and
//                       warm (iCache), with an output checksum so before/after
//                       runs prove bit-identical results
//
// Output is a flat JSON object ("--out=<path>", default BENCH_macro_run.json)
// committed pairwise (before/after) into BENCH_macro.json — see
// docs/performance.md for how the trajectory accrues per PR. "--small" shrinks
// every dimension for the CI smoke job.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/proc_fleet.h"
#include "apps/sort.h"
#include "apps/wordcount.h"
#include "cache/lru_cache.h"
#include "common/rng.h"
#include "dfs/dfs_client.h"
#include "dfs/dfs_node.h"
#include "dht/ring.h"
#include "mr/cluster.h"
#include "mr/deployment.h"
#include "mr/shuffle.h"
#include "net/transport.h"
#include "workload/generators.h"

using namespace eclipse;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// FNV-1a 64 over the job output ("key\tvalue\n" per pair): before/after
/// benchmark runs must agree on every checksum or the overhaul changed
/// results, not just speed.
std::uint64_t ChecksumOutput(const std::vector<mr::KV>& output) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  for (const auto& kv : output) {
    mix(kv.key);
    h ^= '\t';
    h *= 1099511628211ull;
    mix(kv.value);
    h ^= '\n';
    h *= 1099511628211ull;
  }
  return h;
}

struct Report {
  std::vector<std::pair<std::string, std::string>> fields;

  void Num(const std::string& name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    fields.emplace_back(name, buf);
  }
  void U64(const std::string& name, std::uint64_t v) {
    fields.emplace_back(name, std::to_string(v));
  }
  void Hex(const std::string& name, std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "\"%016llx\"", static_cast<unsigned long long>(v));
    fields.emplace_back(name, buf);
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n");
    for (std::size_t i = 0; i < fields.size(); ++i) {
      std::fprintf(f, "  \"%s\": %s%s\n", fields[i].first.c_str(), fields[i].second.c_str(),
                   i + 1 < fields.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    return true;
  }
};

/// Cache-hit read path: one 1 MiB block served from the LRU over and over.
/// Before the zero-copy change every hit deep-copied the block; after it,
/// the cost must be flat in block size (a refcount bump + list splice).
void BenchCacheGet(Report& report, bool small) {
  const Bytes block = 1_MiB;
  const int iters = small ? 500 : 5000;
  cache::LruCache c(64_MiB);
  c.Put("blk", 1, std::string(block, 'd'), cache::EntryKind::kInput);

  std::uint64_t sink = 0;
  auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    auto v = c.Get("blk", cache::EntryKind::kInput);
    if (v) sink += (*v).size();
  }
  double secs = SecondsSince(t0);
  if (sink != static_cast<std::uint64_t>(iters) * block) {
    std::fprintf(stderr, "cache_get_hit consumed %llu bytes, expected %llu\n",
                 static_cast<unsigned long long>(sink),
                 static_cast<unsigned long long>(static_cast<std::uint64_t>(iters) * block));
    std::exit(1);
  }
  report.Num("cache_get_hit_ns_per_op", secs / iters * 1e9);
  report.Num("cache_get_hit_gib_per_s",
             static_cast<double>(sink) / (1024.0 * 1024.0 * 1024.0) / secs);
  std::printf("cache_get_hit       %10.1f ns/op  %8.2f GiB/s\n", secs / iters * 1e9,
              static_cast<double>(sink) / (1024.0 * 1024.0 * 1024.0) / secs);
}

/// ShuffleWriter::Add per-record cost at a given range-table size. The spill
/// threshold is set above the total buffered volume so the timed loop
/// isolates routing + buffering (the Flush network push runs untimed).
void BenchShuffleAdd(Report& report, int servers, bool small) {
  net::InProcessTransport transport;
  dht::Ring ring;
  std::vector<std::unique_ptr<net::Dispatcher>> dispatchers;
  std::vector<std::unique_ptr<dfs::DfsNode>> nodes;
  for (int i = 0; i < servers; ++i) {
    ring.AddServer(i);
    dispatchers.push_back(std::make_unique<net::Dispatcher>());
    nodes.push_back(std::make_unique<dfs::DfsNode>(i, *dispatchers.back()));
    transport.Register(i, dispatchers.back()->AsHandler());
  }
  dfs::DfsClient client(1000, transport, [&ring] { return std::make_shared<const dht::Ring>(ring); });
  RangeTable ranges = ring.MakeRangeTable();

  const int records = small ? 20000 : 400000;
  std::vector<mr::KV> input;
  input.reserve(static_cast<std::size_t>(records));
  for (int i = 0; i < records; ++i) {
    input.push_back(mr::KV{"key-" + std::to_string(i % 4096), 'v' + std::to_string(i)});
  }

  mr::ShuffleWriter w("im/bench/b0", ranges, client, 1_GiB, std::chrono::milliseconds(0));
  auto t0 = Clock::now();
  for (const auto& kv : input) {
    Status s = w.Add(kv.key, kv.value);
    if (!s.ok()) {
      std::fprintf(stderr, "shuffle add failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  double secs = SecondsSince(t0);
  Status s = w.Flush();
  if (!s.ok()) {
    std::fprintf(stderr, "shuffle flush failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  std::string name = "shuffle_add_" + std::to_string(servers) + "r_ns_per_record";
  report.Num(name, secs / records * 1e9);
  std::printf("shuffle_add (%3dr)  %10.1f ns/record\n", servers, secs / records * 1e9);
}

/// One whole job, cold then warm: the warm run reads every input block from
/// the iCache, so the pair brackets the cache's contribution to the data
/// path (paper Fig. 5/6 premise).
std::uint64_t BenchJob(Report& report, const std::string& label, const mr::JobSpec& spec_cold,
                       const mr::JobSpec& spec_warm, mr::Cluster& cluster) {
  auto cold = cluster.Run(spec_cold);
  if (!cold.status.ok()) {
    std::fprintf(stderr, "%s cold failed: %s\n", label.c_str(),
                 cold.status.ToString().c_str());
    std::exit(1);
  }
  auto warm = cluster.Run(spec_warm);
  if (!warm.status.ok()) {
    std::fprintf(stderr, "%s warm failed: %s\n", label.c_str(),
                 warm.status.ToString().c_str());
    std::exit(1);
  }
  std::uint64_t cold_sum = ChecksumOutput(cold.output);
  std::uint64_t warm_sum = ChecksumOutput(warm.output);
  if (cold_sum != warm_sum) {
    std::fprintf(stderr, "%s: warm output differs from cold output\n", label.c_str());
    std::exit(1);
  }
  report.Num(label + "_cold_ms", cold.stats.wall_seconds * 1e3);
  report.Num(label + "_warm_ms", warm.stats.wall_seconds * 1e3);
  report.U64(label + "_warm_icache_hits", warm.stats.icache_hits);
  report.Hex(label + "_output_fnv1a", cold_sum);
  std::printf("%-18s  cold %8.1f ms   warm %8.1f ms   (%llu pairs, fnv %016llx)\n",
              label.c_str(), cold.stats.wall_seconds * 1e3, warm.stats.wall_seconds * 1e3,
              static_cast<unsigned long long>(cold.output.size()),
              static_cast<unsigned long long>(cold_sum));
  return cold_sum;
}

/// Multi-job throughput: four concurrent submitter threads each stream
/// word-count jobs through Submit/Wait, keeping four jobs in flight over
/// the shared workers. jobs/sec brackets the multi-tenant overhead (slot
/// arbitration, epoch capture, queue hand-off) on top of the single-job
/// path; every output is checksummed against a solo run, so concurrency
/// provably does not change results.
double BenchMultiJob(Report& report, mr::Cluster& cluster, bool small) {
  const int submitters = 4;
  const int jobs_each = small ? 2 : 6;
  auto solo = cluster.Run(apps::WordCountJob("mj-solo", "corpus"));
  if (!solo.status.ok()) {
    std::fprintf(stderr, "multi_job solo failed: %s\n", solo.status.ToString().c_str());
    std::exit(1);
  }
  const std::uint64_t expect = ChecksumOutput(solo.output);

  std::atomic<bool> bad{false};
  auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < submitters; ++t) {
    threads.emplace_back([&cluster, &bad, jobs_each, expect, t] {
      for (int i = 0; i < jobs_each; ++i) {
        mr::JobSpec job = apps::WordCountJob("mj", "corpus");
        job.user = 'u' + std::to_string(t);
        mr::JobResult r = cluster.Submit(std::move(job)).Wait();
        if (!r.status.ok() || ChecksumOutput(r.output) != expect) bad.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  double secs = SecondsSince(t0);
  if (bad.load()) {
    std::fprintf(stderr, "multi_job: a concurrent job failed or diverged from solo output\n");
    std::exit(1);
  }
  double jobs_per_s = submitters * jobs_each / secs;
  report.Num("multi_job_jobs_per_s_4sub", jobs_per_s);
  std::printf("multi_job (4 sub)   %10.2f jobs/s  (%d jobs in %.1f ms)\n", jobs_per_s,
              submitters * jobs_each, secs * 1e3);
  return jobs_per_s;
}

/// Multi-process saturation: the same word-count stream, but the data plane
/// is 4 real worker processes (the binary fork+execs itself via
/// apps/proc_fleet.h) behind a DeploymentCoordinator, with 4 concurrent
/// submitters keeping the TCP path saturated. Reported alongside the
/// in-process multi-job number so the trajectory tracks the socket tax:
///
///   saturation_ms_per_job_4p4s  gated by tools/bench_gate.py — a data-path
///                               regression on the wire (serde, conn pool,
///                               dispatcher) moves this without moving the
///                               cache microbench used for normalization
///   saturation_overhead_x       in-process jobs/s over multi-process jobs/s
///
/// Every output (solo and concurrent) is checksummed against the in-process
/// cluster's wordcount checksum: emulation and deployment must agree
/// bit-for-bit, or the benchmark exits non-zero.
void BenchSaturation(Report& report, const char* argv0, const std::string& corpus,
                     std::uint64_t expect, double inproc_jobs_per_s, bool small) {
  const int workers = 4;
  const int submitters = 4;
  const int jobs_each = small ? 2 : 6;

  apps::ProcFleet fleet;
  mr::DeploymentOptions dopts;  // bootstrap port 0: the kernel picks a free one
  dopts.cache_capacity = 64ull << 20;
  auto coordinator = std::make_shared<mr::DeploymentCoordinator>(dopts);
  const int port = coordinator->bootstrap_port();
  if (port < 0) {
    std::fprintf(stderr, "saturation: cannot bind a bootstrap port\n");
    std::exit(1);
  }
  if (!fleet.Spawn(argv0, workers, port)) std::exit(1);
  if (!coordinator->WaitForWorkers(workers, 30'000)) {
    std::fprintf(stderr, "saturation: only %zu/%d workers registered\n",
                 coordinator->ActiveWorkers().size(), workers);
    std::exit(1);
  }

  double jobs_per_s = 0.0;
  {
    mr::ClusterOptions options;
    options.deployment = coordinator;
    options.block_size = 4_KiB;
    options.cache_capacity = 64_MiB;
    mr::Cluster cluster(options);
    if (Status s = cluster.dfs().Upload("corpus", corpus); !s.ok()) {
      std::fprintf(stderr, "saturation upload failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    auto solo = cluster.Run(apps::WordCountJob("sat-solo", "corpus"));
    if (!solo.status.ok() || ChecksumOutput(solo.output) != expect) {
      std::fprintf(stderr,
                   "saturation: multi-process output diverges from the in-process run\n");
      std::exit(1);
    }

    std::atomic<bool> bad{false};
    auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < submitters; ++t) {
      threads.emplace_back([&cluster, &bad, jobs_each, expect, t] {
        for (int i = 0; i < jobs_each; ++i) {
          mr::JobSpec job = apps::WordCountJob("sat", "corpus");
          job.user = 'u' + std::to_string(t);
          mr::JobResult r = cluster.Submit(std::move(job)).Wait();
          if (!r.status.ok() || ChecksumOutput(r.output) != expect) bad.store(true);
        }
      });
    }
    for (auto& th : threads) th.join();
    double secs = SecondsSince(t0);
    if (bad.load()) {
      std::fprintf(stderr,
                   "saturation: a concurrent job failed or diverged from the in-process run\n");
      std::exit(1);
    }
    jobs_per_s = submitters * jobs_each / secs;
  }  // Cluster down before the workers are told to exit.

  coordinator->ShutdownAll();
  if (!fleet.ExpectCleanExit()) {
    std::fprintf(stderr, "saturation: worker processes did not all shut down cleanly\n");
    std::exit(1);
  }

  report.Num("saturation_jobs_per_s_4p4s", jobs_per_s);
  report.Num("saturation_ms_per_job_4p4s", 1e3 / jobs_per_s);
  report.Num("saturation_overhead_x", inproc_jobs_per_s / jobs_per_s);
  std::printf("saturation (4p,4s)  %10.2f jobs/s  (%.2fx over in-process)\n", jobs_per_s,
              inproc_jobs_per_s / jobs_per_s);
}

/// SLO admission fidelity: how well the RuntimePredictor's admission ETA
/// tracks reality on a healthy cluster. Three solo runs warm the predictor
/// for the "slo" job name, then a batch of deadline/SLO word counts runs
/// through Submit with targets derived from the learned prediction (20x the
/// predicted bound — generous, so a healthy run meets them and the metrics
/// measure scheduling regressions, not machine noise):
///
///   slo_miss_rate        fraction of SLO jobs that missed (healthy: 0.0)
///   admission_eta_error  mean relative |actual completion - admission ETA|
///                        / ETA — how honest the queue's queue-with-ETA
///                        answer is
///
/// Both gate in tools/bench_gate.py (lower is better, compared unscaled —
/// they are ratios, machine speed cancels out). A rejection sanity check
/// (impossible deadline -> kResourceExhausted with a non-zero ETA) exits
/// non-zero on violation, like the checksum gates.
void BenchSloAdmission(Report& report, mr::Cluster& cluster, bool small) {
  const int jobs = small ? 3 : 8;
  for (int i = 0; i < 3; ++i) {
    auto r = cluster.Run(apps::WordCountJob("slo", "corpus"));
    if (!r.status.ok()) {
      std::fprintf(stderr, "slo training run failed: %s\n", r.status.ToString().c_str());
      std::exit(1);
    }
  }
  const std::uint64_t predicted_us = cluster.PredictJobUs(apps::WordCountJob("slo", "corpus"));
  if (predicted_us == 0) {
    std::fprintf(stderr, "slo: predictor still cold after three training runs\n");
    std::exit(1);
  }
  const auto target = std::chrono::milliseconds(
      std::max<std::uint64_t>(predicted_us * 20 / 1000, 1000));

  std::vector<mr::JobHandle> handles;
  std::vector<Clock::time_point> submitted;
  handles.reserve(jobs);
  submitted.reserve(jobs);
  for (int i = 0; i < jobs; ++i) {
    mr::JobSpec job = apps::WordCountJob("slo", "corpus");
    job.user = "slo";
    job.deadline = target;
    job.slo = target;
    submitted.push_back(Clock::now());
    handles.push_back(cluster.Submit(std::move(job)));
  }
  std::atomic<int> missed{0};
  std::atomic<bool> bad{false};
  std::vector<double> eta_error(jobs, 0.0);
  std::vector<std::thread> waiters;
  for (int i = 0; i < jobs; ++i) {
    waiters.emplace_back([&, i] {
      mr::JobResult r = handles[i].Wait();
      const double actual_us = SecondsSince(submitted[i]) * 1e6;
      if (!r.status.ok() || r.eta_us == 0) {
        bad.store(true);
        return;
      }
      if (r.slo_missed) missed.fetch_add(1);
      eta_error[i] = std::abs(actual_us - static_cast<double>(r.eta_us)) /
                     static_cast<double>(r.eta_us);
    });
  }
  for (auto& w : waiters) w.join();
  if (bad.load()) {
    std::fprintf(stderr, "slo: a deadline job failed or reported no ETA\n");
    std::exit(1);
  }

  // Rejection sanity: an impossible deadline must be refused with an ETA.
  mr::JobSpec impossible = apps::WordCountJob("slo", "corpus");
  impossible.deadline = std::chrono::milliseconds(1);
  impossible.admission = mr::AdmissionPolicy::kRejectOnMiss;
  mr::JobResult rejected = cluster.Submit(std::move(impossible)).Wait();
  if (rejected.status.ok() || rejected.status.code() != ErrorCode::kResourceExhausted ||
      rejected.eta_us == 0) {
    std::fprintf(stderr, "slo: impossible deadline was not rejected with an ETA\n");
    std::exit(1);
  }

  double err_sum = 0.0;
  for (double e : eta_error) err_sum += e;
  const double miss_rate = static_cast<double>(missed.load()) / jobs;
  const double eta_err = err_sum / jobs;
  report.Num("slo_miss_rate", miss_rate);
  report.Num("admission_eta_error", eta_err);
  std::printf("slo admission       %10.3f miss rate   %.3f mean ETA error  (%d jobs, "
              "target %lld ms)\n",
              miss_rate, eta_err, jobs, static_cast<long long>(target.count()));
}

}  // namespace

int main(int argc, char** argv) {
  apps::MaybeRunFleetWorker(argc, argv);  // re-exec'd saturation workers never return

  std::string out_path = "BENCH_macro_run.json";
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else {
      std::fprintf(stderr, "usage: %s [--out=path.json] [--small]\n", argv[0]);
      return 1;
    }
  }

  Report report;
  report.U64("schema", 1);
  report.U64("small", small ? 1 : 0);

  BenchCacheGet(report, small);
  BenchShuffleAdd(report, 8, small);
  BenchShuffleAdd(report, 64, small);

  mr::ClusterOptions options;
  options.num_servers = 8;
  options.block_size = 4_KiB;
  options.cache_capacity = 64_MiB;
  mr::Cluster cluster(options);

  Rng rng(42);
  workload::TextOptions topts;
  topts.target_bytes = small ? 64_KiB : 512_KiB;
  const std::string corpus = workload::GenerateText(rng, topts);
  Status up = cluster.dfs().Upload("corpus", corpus);
  if (!up.ok()) {
    std::fprintf(stderr, "upload failed: %s\n", up.ToString().c_str());
    return 1;
  }
  std::uint64_t wc_sum = BenchJob(report, "wordcount", apps::WordCountJob("wc-cold", "corpus"),
                                  apps::WordCountJob("wc-warm", "corpus"), cluster);
  BenchJob(report, "sort", apps::SortJob("sort-cold", "corpus"),
           apps::SortJob("sort-warm", "corpus"), cluster);
  double inproc_jobs_per_s = BenchMultiJob(report, cluster, small);
  BenchSloAdmission(report, cluster, small);
  BenchSaturation(report, argv[0], corpus, wc_sum, inproc_jobs_per_s, small);

  if (!report.Write(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
