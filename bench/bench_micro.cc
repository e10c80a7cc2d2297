// Component micro-benchmarks (google-benchmark): the primitive costs behind
// the paper's "the LAF scheduling algorithm is very lightweight" claim, the
// DHT routing-table lookup overhead discussion (§II-A/E), and a job's data
// path per block and per record (cache hit, shuffle add, spill codec).
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "cache/lru_cache.h"
#include "common/rng.h"
#include "common/sha1.h"
#include "dht/finger_table.h"
#include "dht/ring.h"
#include "sched/cdf_partition.h"
#include "sched/key_histogram.h"
#include "dfs/dfs_client.h"
#include "dfs/dfs_node.h"
#include "dfs/metadata.h"
#include "mr/record_reader.h"
#include "mr/shuffle.h"
#include "net/tcp_transport.h"
#include "obs/trace.h"
#include "sched/laf_scheduler.h"

using namespace eclipse;

static void BM_Sha1Hash64B(benchmark::State& state) {
  std::string msg(64, 'x');
  for (auto _ : state) benchmark::DoNotOptimize(Sha1::Hash(msg));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Sha1Hash64B);

static void BM_Sha1Hash1MiB(benchmark::State& state) {
  std::string msg(1 << 20, 'x');
  for (auto _ : state) benchmark::DoNotOptimize(Sha1::Hash(msg));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * (1 << 20));
}
BENCHMARK(BM_Sha1Hash1MiB);

static void BM_RingOwner(benchmark::State& state) {
  dht::Ring ring;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) ring.AddServer(i);
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(ring.Owner(rng.Next()));
}
BENCHMARK(BM_RingOwner)->Arg(8)->Arg(40)->Arg(1000);

static void BM_RangeTableOwner(benchmark::State& state) {
  dht::Ring ring;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) ring.AddServer(i);
  RangeTable t = ring.MakeRangeTable();
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(t.Owner(rng.Next()));
}
BENCHMARK(BM_RangeTableOwner)->Arg(8)->Arg(40)->Arg(1000);

static void BM_FingerNextHop(benchmark::State& state) {
  dht::Ring ring;
  for (int i = 0; i < 1000; ++i) ring.AddServer(i);
  dht::FingerTable table(ring, 0, static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(table.NextHop(rng.Next()));
}
BENCHMARK(BM_FingerNextHop)->Arg(10)->Arg(1000);

static void BM_HistogramAdd(benchmark::State& state) {
  sched::KeyHistogram h(1024, static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  for (auto _ : state) h.Add(rng.Next());
}
BENCHMARK(BM_HistogramAdd)->Arg(1)->Arg(3)->Arg(9);

static void BM_CdfRepartition(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> pdf(1024);
  for (auto& v : pdf) v = rng.NextDouble();
  std::vector<int> servers;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) servers.push_back(i);
  for (auto _ : state) {
    auto cdf = sched::ConstructCdf(pdf);
    benchmark::DoNotOptimize(sched::PartitionCdf(cdf, servers));
  }
}
BENCHMARK(BM_CdfRepartition)->Arg(8)->Arg(40);

static void BM_LafAssign(benchmark::State& state) {
  dht::Ring ring;
  for (int i = 0; i < 40; ++i) ring.AddServer(i);
  sched::LafOptions opts;
  opts.window = static_cast<std::size_t>(state.range(0));
  sched::LafScheduler laf(ring.Servers(), ring.MakeRangeTable(), opts);
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(laf.Assign(rng.Next()));
}
BENCHMARK(BM_LafAssign)->Arg(128)->Arg(1024);

static void BM_RecordExtraction(benchmark::State& state) {
  // Record-reader throughput over an in-memory block (no boundary fetches).
  std::string block;
  for (int i = 0; i < 2000; ++i) block += "line-" + std::to_string(i) + "-payload\n";
  dfs::FileMetadata meta;
  meta.name = "f";
  meta.size = block.size();
  meta.block_size = block.size();
  meta.num_blocks = 1;
  auto fetch_block = [](std::uint64_t) -> Result<std::string> {
    return Status::Error(ErrorCode::kInternal, "unused");
  };
  auto fetch_range = [](std::uint64_t, Bytes, Bytes) -> Result<std::string> {
    return Status::Error(ErrorCode::kInternal, "unused");
  };
  for (auto _ : state) {
    auto records = mr::ExtractRecords(meta, 0, '\n', block, fetch_block, fetch_range);
    benchmark::DoNotOptimize(records);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block.size()));
}
BENCHMARK(BM_RecordExtraction);

// The spill codec as the engine runs it: a map task encodes into a reused
// writer, a reduce task decodes views into reused scratch.
static void BM_SpillEncodeDecode(benchmark::State& state) {
  std::vector<mr::KV> pairs;
  for (int i = 0; i < 1000; ++i) {
    pairs.push_back(mr::KV{"key-" + std::to_string(i % 50), "value-" + std::to_string(i)});
  }
  std::vector<mr::KVView> views;
  for (const auto& kv : pairs) views.push_back({kv.key, kv.value});
  BinaryWriter w;
  std::vector<mr::KVView> back;
  for (auto _ : state) {
    mr::EncodeSpillTo(views, w);
    back.clear();
    if (!mr::DecodeSpillViews(w.str(), &back).ok()) {
      state.SkipWithError("DecodeSpillViews failed");
      break;
    }
    benchmark::DoNotOptimize(back.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SpillEncodeDecode);

// ShuffleWriter::Add per record (route to a range, copy into its buffer) at
// 8 and 64 hash-key ranges. The spill threshold lies above a batch, so no
// spill runs; each iteration adds one batch to a fresh writer, and
// items_per_second is records per second.
static void BM_ShuffleAdd(benchmark::State& state) {
  const int servers = static_cast<int>(state.range(0));
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
  dfs::DfsClient client(1000, transport,
                        [&ring] { return std::make_shared<const dht::Ring>(ring); });
  const RangeTable ranges = ring.MakeRangeTable();
  std::vector<mr::KV> input;
  for (int i = 0; i < 65536; ++i) {
    input.push_back(mr::KV{"key-" + std::to_string(i % 4096), 'v' + std::to_string(i)});
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto w = std::make_unique<mr::ShuffleWriter>("im/bench/b0", ranges, client, 1_GiB,
                                                 std::chrono::milliseconds(0));
    state.ResumeTiming();
    for (const auto& kv : input) {
      if (!w->Add(kv.key, kv.value).ok()) {
        state.SkipWithError("ShuffleWriter::Add failed");
        break;
      }
    }
    state.PauseTiming();
    w.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_ShuffleAdd)->Arg(8)->Arg(64);

static void BM_InProcessCall(benchmark::State& state) {
  net::InProcessTransport transport;
  transport.Register(1, [](net::NodeId, const net::Message& m) { return m; });
  net::Message msg{42, std::string(static_cast<std::size_t>(state.range(0)), 'p')};
  for (auto _ : state) {
    auto resp = transport.Call(0, 1, msg);
    benchmark::DoNotOptimize(resp);
  }
}
BENCHMARK(BM_InProcessCall)->Arg(64)->Arg(65536);

static void BM_TcpLoopbackCall(benchmark::State& state) {
  net::TcpTransport transport;
  transport.Register(1, [](net::NodeId, const net::Message& m) { return m; });
  net::Message msg{42, std::string(static_cast<std::size_t>(state.range(0)), 'p')};
  for (auto _ : state) {
    auto resp = transport.Call(0, 1, msg);
    benchmark::DoNotOptimize(resp);
  }
}
BENCHMARK(BM_TcpLoopbackCall)->Arg(64)->Arg(65536);

// A warm map task's memory-locality read (§II-C): LruCache::Get of a
// resident 1 MiB block. A hit hands out a shared handle to the block, so
// its cost must not grow with the block size.
static void BM_CacheGetHit1MiB(benchmark::State& state) {
  cache::LruCache c(64_MiB);
  c.Put("blk", 1, std::string(1_MiB, 'd'), cache::EntryKind::kInput);
  for (auto _ : state) {
    cache::CacheValue v = c.Get("blk", cache::EntryKind::kInput);
    if (!v) {
      state.SkipWithError("LruCache::Get missed a resident block");
      break;
    }
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_CacheGetHit1MiB);

static void BM_LruPutGet(benchmark::State& state) {
  cache::LruCache c(64_MiB);
  Rng rng(1);
  std::string data(4096, 'd');
  int i = 0;
  for (auto _ : state) {
    std::string id = "blk" + std::to_string(i++ % 10000);
    c.Put(id, rng.Next(), data, cache::EntryKind::kInput);
    benchmark::DoNotOptimize(c.Get(id, cache::EntryKind::kInput));
  }
}
BENCHMARK(BM_LruPutGet);

// Trace-emission cost (ISSUE acceptance: enabled span < 100 ns/event). The
// flight recorder is bounded, so a long benchmark loop simply recycles chunks;
// overwrite accounting is relaxed and does not perturb the measured path.
static void BM_TraceEmitEvent(benchmark::State& state) {
  auto& tracer = obs::Tracer::Global();
  tracer.Start();
  for (auto _ : state) {
    tracer.Emit('i', "bench", "tick", 1, {obs::U64("n", 1)});
  }
  tracer.Stop();
  tracer.Clear();
}
BENCHMARK(BM_TraceEmitEvent);

static void BM_TraceSpan(benchmark::State& state) {
  auto& tracer = obs::Tracer::Global();
  tracer.Start();
  for (auto _ : state) {
    obs::TraceSpan span("bench", "work", 1, {obs::U64("n", 1)});
    benchmark::DoNotOptimize(&span);
  }
  tracer.Stop();
  tracer.Clear();
}
BENCHMARK(BM_TraceSpan);

static void BM_TraceSpanDisabled(benchmark::State& state) {
  auto& tracer = obs::Tracer::Global();
  tracer.Stop();
  for (auto _ : state) {
    obs::TraceSpan span("bench", "work", 1, {obs::U64("n", 1)});
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TraceSpanDisabled);

BENCHMARK_MAIN();
