// Observability acceptance tests: trace capture validity, the Fig. 6-style
// per-job summary, schema parity between the real engine and the DES
// simulator, and the zero-allocation guarantee of the disabled path.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/wordcount.h"
#include "mr/cluster.h"
#include "obs/summary.h"
#include "sim/constants.h"
#include "sim/eclipse_des.h"
#include "workload/generators.h"

// Global allocation counter: every path through the replaced operator new
// bumps it, so a window with zero delta proves a code region allocates
// nothing (the contract of trace emission while tracing is disabled).
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// All replacements stay out of line: inlined into library code, GCC 12 at
// -O3 pairs the malloc/free inside them with the other side's operator and
// reports -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
// The nothrow variants must be replaced too (stable_sort's temporary buffer
// allocates through them): otherwise the default nothrow new pairs with our
// replaced delete and ASan reports an alloc-dealloc mismatch.
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
[[gnu::noinline]] void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace eclipse {
namespace {

TEST(TracerTest, DisabledEmissionAllocatesNothing) {
  auto& tracer = obs::Tracer::Global();
  tracer.Stop();
  tracer.Clear();
  ASSERT_FALSE(tracer.enabled());

  std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    obs::TraceSpan span("mr", "map_task", 3,
                        {obs::U64("block", static_cast<std::uint64_t>(i))});
    span.AddArg(obs::Str("locality", "memory"));
    tracer.Emit('i', "sched", "sched_assign", obs::kDriverPid, {obs::U64("server", 2)});
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
      << "disabled-path emission must not touch the allocator";
}

TEST(TracerTest, CapturesNestedSpansAndInstants) {
  auto& tracer = obs::Tracer::Global();
  tracer.Start();
  {
    obs::TraceSpan job("mr", "job", obs::kDriverPid, {obs::U64("job", 1)});
    tracer.Emit('i', "sched", "sched_assign", obs::kDriverPid, {obs::U64("server", 3)});
    obs::TraceSpan task("mr", "map_task", 3, {obs::U64("block", 7)});
    task.AddArg(obs::Str("locality", "local_disk"));
    task.AddArg(obs::U64("bytes", 4096));
  }
  tracer.Stop();

  auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 5u);  // 2 B + 2 E + 1 i
  EXPECT_EQ(events.front().phase, 'B');
  EXPECT_STREQ(events.front().name, "job");
  // End-args attached via AddArg ride on the 'E' event.
  bool saw_locality = false;
  for (const auto& e : events) {
    if (e.phase != 'E' || std::string(e.name) != "map_task") continue;
    for (std::uint8_t a = 0; a < e.nargs; ++a) {
      if (std::string(e.args[a].key) == "locality") {
        EXPECT_STREQ(e.args[a].sval, "local_disk");
        saw_locality = true;
      }
    }
  }
  EXPECT_TRUE(saw_locality);

  std::string json = tracer.ExportChromeTrace();
  auto valid = obs::ValidateChromeTrace(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"locality\":\"local_disk\""), std::string::npos);
  tracer.Clear();
}

TEST(TracerTest, StartResetsPreviousCapture) {
  auto& tracer = obs::Tracer::Global();
  tracer.Start();
  tracer.Emit('i', "mr", "stale", 1, {});
  tracer.Start();  // new session: the event above is invalidated
  tracer.Emit('i', "mr", "fresh", 1, {});
  tracer.Stop();
  auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "fresh");
  tracer.Clear();
}

TEST(ValidateChromeTraceTest, AcceptsMinimalAndRejectsMalformed) {
  EXPECT_TRUE(obs::ValidateChromeTrace(R"({"traceEvents":[]})").ok());
  EXPECT_TRUE(obs::ValidateChromeTrace(
                  R"({"traceEvents":[{"ph":"X","ts":1,"dur":2,"pid":1,"tid":0,)"
                  R"("name":"map_task","cat":"mr"}]})")
                  .ok());

  // Truncated JSON.
  EXPECT_FALSE(obs::ValidateChromeTrace("{").ok());
  // Missing required fields.
  EXPECT_FALSE(obs::ValidateChromeTrace(R"({"traceEvents":[{"ph":"i"}]})").ok());
  // Unmatched 'B'.
  EXPECT_FALSE(obs::ValidateChromeTrace(
                   R"({"traceEvents":[{"ph":"B","ts":1,"pid":1,"tid":1,)"
                   R"("name":"a","cat":"c"}]})")
                   .ok());
  // 'E' name does not match the open 'B'.
  EXPECT_FALSE(obs::ValidateChromeTrace(
                   R"({"traceEvents":[)"
                   R"({"ph":"B","ts":1,"pid":1,"tid":1,"name":"a","cat":"c"},)"
                   R"({"ph":"E","ts":2,"pid":1,"tid":1,"name":"b","cat":"c"}]})")
                   .ok());
  // Decreasing timestamps.
  EXPECT_FALSE(obs::ValidateChromeTrace(
                   R"({"traceEvents":[)"
                   R"({"ph":"i","ts":5,"pid":1,"tid":1,"name":"a","cat":"c"},)"
                   R"({"ph":"i","ts":4,"pid":1,"tid":1,"name":"b","cat":"c"}]})")
                   .ok());
  // 'X' without dur.
  EXPECT_FALSE(obs::ValidateChromeTrace(
                   R"({"traceEvents":[{"ph":"X","ts":1,"pid":1,"tid":0,)"
                   R"("name":"a","cat":"c"}]})")
                   .ok());
}

// The issue's acceptance scenario: a traced wordcount on 8 emulated servers
// must produce (a) a Chrome-trace JSON that validates and (b) a per-job
// summary whose map-task counts split by locality class.
TEST(TraceCaptureTest, WordcountTimelineValidatesAndSummarizes) {
  auto& tracer = obs::Tracer::Global();
  tracer.Start();
  {
    mr::ClusterOptions opts;
    opts.num_servers = 8;
    opts.block_size = 256;
    mr::Cluster cluster(opts);
    Rng rng(11);
    workload::TextOptions topts;
    topts.target_bytes = 8000;
    std::string text = workload::GenerateText(rng, topts);
    ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());
    mr::JobSpec spec = apps::WordCountJob("wc-traced", "corpus");
    spec.output_file = "wc-traced.out";
    auto result = cluster.Run(spec);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();

    // Export before the cluster (and its worker thread pools) is destroyed:
    // a thread's trace buffers are reclaimed when the thread exits.
    tracer.Stop();
    std::string json = tracer.ExportChromeTrace();
    auto valid = obs::ValidateChromeTrace(json);
    EXPECT_TRUE(valid.ok()) << valid.ToString();
    EXPECT_EQ(tracer.overwritten_chunks(), 0u);

    // Every span on the job's own track names its job (job, map_phase,
    // reduce_phase, sort, output_upload): spans are attributed by that arg,
    // not by timestamp.
    std::set<std::string> job_track_spans;
    for (const obs::TraceEvent& ev : tracer.Snapshot()) {
      if (ev.phase != 'B' || ev.pid != obs::kDriverPid) continue;
      job_track_spans.insert(ev.name);
      bool has_job = false;
      for (std::size_t a = 0; a < ev.nargs; ++a) {
        has_job |= std::string_view(ev.args[a].key) == "job" && ev.args[a].uval == result.job_id;
      }
      EXPECT_TRUE(has_job) << ev.name << " span lacks the job arg";
    }
    EXPECT_EQ(job_track_spans, (std::set<std::string>{"job", "map_phase", "reduce_phase",
                                                      "sort", "output_upload"}));

    auto jobs = obs::Summarize(tracer.Snapshot());
    ASSERT_EQ(jobs.size(), 1u);
    const auto& j = jobs[0];
    EXPECT_EQ(j.maps_total, result.stats.map_tasks);
    EXPECT_EQ(j.reduces_total, result.stats.reduce_tasks);
    EXPECT_GT(j.maps_total, 0u);
    // The locality classes partition the map tasks (Fig. 6 invariant), and
    // the trace-derived split agrees with the engine's own JobStats.
    EXPECT_EQ(j.maps_memory + j.maps_local_disk + j.maps_remote_disk + j.maps_skipped,
              j.maps_total);
    EXPECT_EQ(j.maps_memory, result.stats.maps_memory);
    EXPECT_EQ(j.maps_local_disk, result.stats.maps_local_disk);
    EXPECT_EQ(j.maps_remote_disk, result.stats.maps_remote_disk);
    EXPECT_EQ(j.maps_skipped, result.stats.maps_skipped);
    EXPECT_GE(j.map_waves, 1u);
    EXPECT_EQ(j.sched_assigns, j.maps_total);
    EXPECT_EQ(j.map_task_us.size(), j.maps_total);

    std::string report = obs::RenderJobSummaries(jobs);
    EXPECT_NE(report.find("map locality"), std::string::npos);
    EXPECT_NE(report.find("memory"), std::string::npos);
    EXPECT_NE(report.find("p99"), std::string::npos);
  }
  tracer.Clear();
}

TEST(TraceCaptureTest, SecondRunOverSameInputHitsMemory) {
  auto& tracer = obs::Tracer::Global();
  mr::ClusterOptions opts;
  opts.num_servers = 4;
  opts.block_size = 256;
  mr::Cluster cluster(opts);
  Rng rng(3);
  workload::TextOptions topts;
  topts.target_bytes = 4000;
  ASSERT_TRUE(cluster.dfs().Upload("t", workload::GenerateText(rng, topts)).ok());
  ASSERT_TRUE(cluster.Run(apps::WordCountJob("warm", "t")).status.ok());

  tracer.Start();
  ASSERT_TRUE(cluster.Run(apps::WordCountJob("hot", "t")).status.ok());
  tracer.Stop();
  auto jobs = obs::Summarize(tracer.Snapshot());
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_GT(jobs[0].maps_memory, 0u) << "warmed iCache should serve map inputs";
  EXPECT_GT(jobs[0].bytes_from_memory, 0u);
  tracer.Clear();
}

// A finished job's spill cleanup is one complete event on the driver pid:
// every spill deleted, one DeleteObjects call per range, and a capture that
// still validates.
TEST(TraceCaptureTest, SpillCleanupIsOneCompleteEvent) {
  auto& tracer = obs::Tracer::Global();
  mr::ClusterOptions opts;
  opts.num_servers = 4;
  opts.block_size = 256;
  mr::Cluster cluster(opts);
  Rng rng(9);
  workload::TextOptions topts;
  topts.target_bytes = 4000;
  ASSERT_TRUE(cluster.dfs().Upload("t", workload::GenerateText(rng, topts)).ok());

  tracer.Start();
  mr::JobSpec spec = apps::WordCountJob("wc", "t");
  spec.spill_threshold = 128;
  const mr::JobResult result = cluster.Run(spec);
  tracer.Stop();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  std::vector<const obs::TraceEvent*> cleanups;
  const std::vector<obs::TraceEvent> events = tracer.Snapshot();
  for (const obs::TraceEvent& ev : events) {
    if (std::string_view(ev.name) == "spill_cleanup") cleanups.push_back(&ev);
  }
  ASSERT_EQ(cleanups.size(), 1u);
  const obs::TraceEvent& ev = *cleanups[0];
  EXPECT_EQ(ev.phase, 'X');
  EXPECT_EQ(ev.pid, obs::kDriverPid);
  std::map<std::string, std::uint64_t> args;
  for (std::size_t a = 0; a < ev.nargs; ++a) args[ev.args[a].key] = ev.args[a].uval;
  EXPECT_EQ(args["job"], result.job_id);
  EXPECT_EQ(args["spills_deleted"], result.stats.spills);
  EXPECT_EQ(args["calls"], result.stats.reduce_tasks);
  EXPECT_TRUE(obs::ValidateChromeTrace(tracer.ExportChromeTrace()).ok());
  tracer.Clear();
}

// A span held open on another thread across Stop() exports closed at the
// capture's last timestamp. Its 'E', emitted into the next session, which
// never saw the 'B', is dropped from that session's export. Both validate.
TEST(TraceCaptureTest, SpanOpenAcrossStopExportsValid) {
  auto& tracer = obs::Tracer::Global();
  auto count = [](const std::string& json, const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t p = json.find(needle); p != std::string::npos;
         p = json.find(needle, p + 1)) {
      ++n;
    }
    return n;
  };
  std::atomic<int> stage{0};  // 1: span open, 2: release it, 3: span closed, 4: exit
  tracer.Start();
  std::thread holder([&stage] {
    {
      obs::TraceSpan span("mr", "reduce_task", 2);
      stage.store(1);
      while (stage.load() < 2) std::this_thread::yield();
    }
    stage.store(3);
    // Thread exit frees its events: stay alive until both exports are done.
    while (stage.load() < 4) std::this_thread::yield();
  });
  while (stage.load() < 1) std::this_thread::yield();
  tracer.Emit('i', "sched", "sched_assign", obs::kDriverPid, {});
  tracer.Stop();

  std::string json = tracer.ExportChromeTrace();
  auto valid = obs::ValidateChromeTrace(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_EQ(count(json, "\"name\":\"reduce_task\""), 2u);  // its 'B' and the closing 'E'

  tracer.Start();
  stage.store(2);
  while (stage.load() < 3) std::this_thread::yield();
  tracer.Stop();
  // The session holds the span's 'E' alone. (No ASSERT before the join: an
  // early return would destroy the joinable holder thread.)
  const std::vector<obs::TraceEvent> events = tracer.Snapshot();
  EXPECT_EQ(events.size(), 1u);
  EXPECT_TRUE(!events.empty() && events[0].phase == 'E');
  json = tracer.ExportChromeTrace();
  valid = obs::ValidateChromeTrace(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_EQ(count(json, "reduce_task"), 0u);

  stage.store(4);
  holder.join();
  tracer.Clear();
}

// The simulator emits the same schema ('X' complete events, sim-time
// stamps), so the identical Summarize/Validate path reads a sim capture.
TEST(TraceCaptureTest, SimulatorEmitsSameSchema) {
  auto& tracer = obs::Tracer::Global();
  tracer.Start();
  sim::SimConfig config;
  config.num_nodes = 4;
  config.nodes_per_rack = 2;
  config.map_slots = 2;
  config.reduce_slots = 2;
  config.block_size = 16_MiB;
  config.cache_per_node = 256_MiB;
  sim::EclipseDes des(config);
  sim::SimJobSpec job;
  job.app = sim::GrepProfile();
  job.num_blocks = 12;
  auto r = des.RunJob(job);
  tracer.Stop();

  auto valid = obs::ValidateChromeTrace(tracer.ExportChromeTrace());
  EXPECT_TRUE(valid.ok()) << valid.ToString();

  auto jobs = obs::Summarize(tracer.Snapshot());
  ASSERT_EQ(jobs.size(), 1u);
  const auto& j = jobs[0];
  EXPECT_EQ(j.maps_total, r.map_tasks);
  EXPECT_EQ(j.reduces_total, r.reduce_tasks);
  EXPECT_EQ(j.maps_memory + j.maps_local_disk + j.maps_remote_disk + j.maps_skipped,
            j.maps_total);
  EXPECT_EQ(j.maps_memory, r.cache_hits);
  EXPECT_GE(j.map_waves, 1u);
  EXPECT_EQ(j.wall_us, static_cast<std::uint64_t>(r.job_seconds * 1e6));
  // Cold first scan: every input comes from a disk, not memory.
  EXPECT_EQ(j.maps_memory, 0u);
  EXPECT_EQ(j.maps_local_disk + j.maps_remote_disk, j.maps_total);
  tracer.Clear();
}

TEST(TracerTest, ConcurrentEmissionIsLossless) {
  auto& tracer = obs::Tracer::Global();
  tracer.Start();
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::atomic<bool> go{false};
  std::atomic<int> done{0};
  std::atomic<bool> may_exit{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &go, &done, &may_exit] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kIters; ++i) {
        obs::TraceSpan span("mr", "map_task", t,
                            {obs::U64("block", static_cast<std::uint64_t>(i))});
        span.AddArg(obs::Str("locality", "memory"));
        obs::Tracer::Global().Emit('i', "sched", "sched_assign", t, {});
      }
      done.fetch_add(1);
      // A thread's buffers are reclaimed at thread exit: hold every thread
      // alive until the main thread has snapshotted the capture.
      while (!may_exit.load()) std::this_thread::yield();
    });
  }
  go.store(true);
  // Reader racing the writers: snapshots mid-capture must be well-formed
  // (this is the TSan-exercised path).
  while (done.load() < kThreads) (void)tracer.Snapshot();
  tracer.Stop();

  auto events = tracer.Snapshot();
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kThreads) * kIters * 3);
  EXPECT_EQ(tracer.overwritten_chunks(), 0u);
  auto valid = obs::ValidateChromeTrace(tracer.ExportChromeTrace());
  EXPECT_TRUE(valid.ok()) << valid.ToString();

  may_exit.store(true);
  for (auto& th : threads) th.join();
  tracer.Clear();
}

TEST(SummaryTest, AttributesEventsToEnclosingJob) {
  using obs::TraceEvent;
  auto ev = [](char ph, const char* name, std::uint64_t ts, std::uint64_t dur,
               std::initializer_list<obs::TraceArg> args) {
    TraceEvent e;
    e.phase = ph;
    e.cat = "mr";
    e.name = name;
    e.pid = 1;
    e.tid = 0;
    e.ts_us = ts;
    e.dur_us = dur;
    for (const auto& a : args) e.args[e.nargs++] = a;
    return e;
  };
  std::vector<TraceEvent> events = {
      ev('X', "job", 0, 100, {obs::U64("job", 7)}),
      ev('X', "map_task", 10, 20,
         {obs::Str("locality", "remote_disk"), obs::U64("bytes", 512)}),
      ev('X', "reduce_task", 50, 30, {obs::U64("bytes", 256)}),
      ev('X', "job", 200, 50, {obs::U64("job", 8)}),
      ev('X', "map_task", 210, 5, {obs::Str("locality", "memory"), obs::U64("bytes", 64)}),
  };
  auto jobs = obs::Summarize(events);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].job_id, 7u);
  EXPECT_EQ(jobs[0].maps_remote_disk, 1u);
  EXPECT_EQ(jobs[0].bytes_from_remote_disk, 512u);
  EXPECT_EQ(jobs[0].reduces_total, 1u);
  EXPECT_EQ(jobs[1].job_id, 8u);
  EXPECT_EQ(jobs[1].maps_memory, 1u);
  EXPECT_EQ(jobs[1].bytes_from_memory, 64u);
  EXPECT_EQ(jobs[1].reduces_total, 0u);
}

TEST(SummaryTest, ReduceStartDelayFromLatestReducePhase) {
  using obs::TraceEvent;
  auto ev = [](const char* name, std::uint64_t ts, std::uint64_t dur, std::uint64_t job) {
    TraceEvent e;
    e.phase = 'X';
    e.cat = "mr";
    e.name = name;
    e.pid = 1;
    e.tid = 0;
    e.ts_us = ts;
    e.dur_us = dur;
    e.args[e.nargs++] = obs::U64("job", job);
    return e;
  };
  std::vector<TraceEvent> events = {
      ev("job", 0, 1000, 7),
      ev("reduce_task", 50, 10, 7),  // before any reduce_phase: no delay
      // Same begin as its phase, and listed first, as B/E pairs complete.
      ev("reduce_task", 100, 20, 7),
      ev("reduce_phase", 100, 400, 7),
      ev("reduce_task", 130, 20, 7),
      ev("reduce_task", 400, 20, 7),
      ev("reduce_phase", 600, 100, 7),  // a rebuilt plan's second pass
      ev("reduce_task", 650, 20, 7),
      ev("job", 2000, 100, 8),
      ev("reduce_task", 2010, 5, 8),  // no reduce_phase, as in DES captures
  };
  auto jobs = obs::Summarize(events);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].reduces_total, 5u);
  EXPECT_EQ(jobs[0].reduce_start_delay_us, (std::vector<std::uint64_t>{0, 30, 300, 50}));
  EXPECT_TRUE(jobs[1].reduce_start_delay_us.empty());

  const std::string report = obs::RenderJobSummaries(jobs);
  EXPECT_NE(report.find("  reduce start delay us: p50 50 | p90 300 | max 300 (n=4)\n"),
            std::string::npos)
      << report;
  const std::size_t job8 = report.find("job 8:");
  ASSERT_NE(job8, std::string::npos);
  EXPECT_EQ(report.find("reduce start delay", job8), std::string::npos) << report;
}

}  // namespace
}  // namespace eclipse
