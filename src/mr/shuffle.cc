#include "mr/shuffle.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/buffer_pool.h"
#include "common/serde.h"
#include "obs/trace.h"

namespace eclipse::mr {

void EncodeSpillTo(const std::vector<KVView>& pairs, BinaryWriter& w) {
  w.Clear();
  std::size_t bytes = 4;
  for (const auto& kv : pairs) bytes += 8 + kv.key.size() + kv.value.size();
  w.Reserve(bytes);
  w.PutU32(static_cast<std::uint32_t>(pairs.size()));
  for (const auto& kv : pairs) {
    w.PutString(kv.key);
    w.PutString(kv.value);
  }
}

std::vector<std::size_t> BatchEnds(const std::vector<Bytes>& sizes, Bytes cap) {
  std::vector<std::size_t> ends;
  Bytes batch = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (i > 0 && batch + sizes[i] > cap) {
      ends.push_back(i);
      batch = 0;
    }
    batch += sizes[i];
  }
  if (!sizes.empty()) ends.push_back(sizes.size());
  return ends;
}

Status DecodeSpillViews(const std::string& data, std::vector<KVView>* out) {
  BinaryReader r(data);
  std::uint32_t n = 0;
  if (!r.GetU32(&n)) return Status::Error(ErrorCode::kCorruption, "truncated spill");
  // Every entry needs at least two length prefixes: a corrupted count can
  // not force an allocation larger than the payload could possibly hold.
  if (static_cast<std::size_t>(n) > r.remaining() / 8 + 1) {
    return Status::Error(ErrorCode::kCorruption, "implausible spill entry count");
  }
  out->reserve(out->size() + n);
  for (std::uint32_t i = 0; i < n; ++i) {
    KVView kv;
    if (!r.GetStringView(&kv.key) || !r.GetStringView(&kv.value)) {
      return Status::Error(ErrorCode::kCorruption, "truncated spill entry");
    }
    out->push_back(kv);
  }
  return Status::Ok();
}

ECLIPSE_HOT_PATH
std::size_t RouteToRange(const std::vector<HashKey>& sorted_begins, HashKey hk) {
  // Ranges tile the ring: range i covers [begins[i], begins[i+1]) and the
  // last range wraps around to begins[0]. The covering range is therefore
  // the last boundary <= hk — and for hk below every boundary, the wrapping
  // last range.
  auto it = std::upper_bound(sorted_begins.begin(), sorted_begins.end(), hk);
  if (it == sorted_begins.begin()) return sorted_begins.size() - 1;
  return static_cast<std::size_t>(it - sorted_begins.begin()) - 1;
}

ECLIPSE_HOT_PATH
void ChainByKey(ReduceScratch& scratch) {
  constexpr std::size_t kInitialSlots = 64;  // a power of two
  const std::vector<KVView>& pairs = scratch.pairs;
  std::vector<ReduceScratch::Chain>& chains = scratch.chains;
  std::vector<std::uint32_t>& table = scratch.table;
  const auto n = static_cast<std::uint32_t>(pairs.size());
  scratch.next.resize(n);
  chains.clear();
  table.assign(kInitialSlots, 0);
  // The table doubles once more than half its slots hold chains, so the
  // chains never exceed half the slots plus one: push_back never reallocates.
  chains.reserve(table.size() / 2 + 1);
  std::size_t mask = table.size() - 1;
  for (std::uint32_t p = 0; p < n; ++p) {
    const std::string_view key = pairs[p].key;
    const auto hash = static_cast<std::uint32_t>(TableHash(key));
    scratch.next[p] = ReduceScratch::Chain::kEnd;
    std::size_t i = hash & mask;
    for (; table[i] != 0; i = (i + 1) & mask) {
      ReduceScratch::Chain& chain = chains[table[i] - 1];
      if (chain.hash == hash && pairs[chain.head].key == key) break;
    }
    if (table[i] != 0) {
      ReduceScratch::Chain& chain = chains[table[i] - 1];
      scratch.next[chain.tail] = p;
      chain.tail = p;
      ++chain.count;
      continue;
    }
    chains.push_back({hash, p, p, 1});
    table[i] = static_cast<std::uint32_t>(chains.size());
    if (2 * chains.size() <= table.size()) continue;
    // Double and rebuild from the chains: no key is compared, and the
    // retained capacity makes this allocation-free once warm.
    table.assign(2 * table.size(), 0);
    mask = table.size() - 1;
    chains.reserve(table.size() / 2 + 1);
    for (std::size_t c = 0; c < chains.size(); ++c) {
      std::size_t j = chains[c].hash & mask;
      while (table[j] != 0) j = (j + 1) & mask;
      table[j] = static_cast<std::uint32_t>(c + 1);
    }
  }
  // Keys are distinct, so no tie needs breaking; std::sort is in place.
  std::sort(chains.begin(), chains.end(),
            [&pairs](const ReduceScratch::Chain& a, const ReduceScratch::Chain& b) {
              return pairs[a.head].key < pairs[b.head].key;
            });
}

void SortRunByKey(std::vector<KV>& run) {
  auto by_key = [](const KV& a, const KV& b) { return a.key < b.key; };
  if (!std::is_sorted(run.begin(), run.end(), by_key)) {
    std::stable_sort(run.begin(), run.end(), by_key);
  }
}

void MergeRuns(std::vector<std::vector<KV>>& runs, std::vector<KV>* out) {
  // The next pair of every unfinished run, kept ordered by (key, run). A job
  // has a handful of ranges, so an ordered array costs fewer compares and
  // moves than a heap.
  struct Head {
    std::string_view key;
    std::size_t run;
    std::size_t pos;
  };
  auto before = [](const Head& a, const Head& b) {
    const int c = a.key.compare(b.key);
    return c < 0 || (c == 0 && a.run < b.run);
  };
  std::size_t total = 0;
  std::vector<Head> heads;
  heads.reserve(runs.size());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    total += runs[r].size();
    if (!runs[r].empty()) heads.push_back({runs[r][0].key, r, 0});
  }
  std::sort(heads.begin(), heads.end(), before);
  out->clear();
  out->reserve(total);
  while (!heads.empty()) {
    Head& head = heads[0];
    std::vector<KV>& run = runs[head.run];
    out->push_back(std::move(run[head.pos]));
    if (++head.pos == run.size()) {
      heads.erase(heads.begin());
      continue;
    }
    head.key = run[head.pos].key;
    // The head's key only grew: slide it right past every head now before it.
    std::size_t i = 1;
    while (i < heads.size() && before(heads[i], head)) ++i;
    std::rotate(heads.begin(), heads.begin() + 1, heads.begin() + i);
  }
}

std::string SpillId(const std::string& prefix, HashKey range_begin, std::uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "/r%016llx/s%" PRIu64,
                static_cast<unsigned long long>(range_begin), seq);
  return prefix + buf;
}

std::string EncodeManifest(const std::vector<SpillInfo>& spills) {
  std::size_t bytes = 4;
  for (const auto& s : spills) bytes += 4 + s.id.size() + 24;
  BinaryWriter w;
  w.Reserve(bytes);
  w.PutU32(static_cast<std::uint32_t>(spills.size()));
  for (const auto& s : spills) {
    w.PutString(s.id);
    w.PutU64(s.range_begin);
    w.PutU64(s.pairs);
    w.PutU64(s.bytes);
  }
  return w.Take();
}

Result<std::vector<SpillInfo>> DecodeManifest(const std::string& data) {
  BinaryReader r(data);
  std::uint32_t n = 0;
  if (!r.GetU32(&n)) return Status::Error(ErrorCode::kCorruption, "truncated manifest");
  // Each entry carries three u64s and a string length: bound the count.
  if (static_cast<std::size_t>(n) > r.remaining() / 28 + 1) {
    return Status::Error(ErrorCode::kCorruption, "implausible manifest entry count");
  }
  std::vector<SpillInfo> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    SpillInfo s;
    if (!r.GetString(&s.id) || !r.GetU64(&s.range_begin) || !r.GetU64(&s.pairs) ||
        !r.GetU64(&s.bytes)) {
      return Status::Error(ErrorCode::kCorruption, "truncated manifest entry");
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string ManifestId(const std::string& tag, const std::string& input, std::uint64_t block) {
  return "man/" + tag + "/" + input + "/b" + std::to_string(block);
}

ShuffleWriter::ShuffleWriter(std::string prefix, const RangeTable& fs_ranges,
                             dfs::DfsClient& dfs, Bytes spill_threshold,
                             std::chrono::milliseconds ttl, std::uint64_t job_id)
    : prefix_(std::move(prefix)),
      dfs_(dfs),
      threshold_(spill_threshold),
      ttl_(ttl),
      job_id_(job_id) {
  std::vector<KeyRange> ranges;
  for (const auto& [server, range] : fs_ranges.entries()) {
    if (range.IsEmpty()) continue;
    ranges.push_back(range);
  }
  // RangeTable keeps non-empty ranges in ring order, which is begin-sorted
  // already; sort defensively so the binary-search invariant never depends
  // on that.
  std::sort(ranges.begin(), ranges.end(),
            [](const KeyRange& a, const KeyRange& b) { return a.begin < b.begin; });
  begins_.reserve(ranges.size());
  for (const auto& r : ranges) begins_.push_back(r.begin);
  ranges_ = std::move(ranges);
  // vector<T>(n) needs only default-insertable elements; RangeBuffer is
  // neither copyable nor movable (it owns an Arena) and the vector never
  // grows after this.
  buffers_ = std::vector<RangeBuffer>(ranges_.size());
  encode_.Adopt(BufferPool::Global().Acquire());
}

ShuffleWriter::~ShuffleWriter() { BufferPool::Global().Release(encode_.Take()); }

ECLIPSE_HOT_PATH
Status ShuffleWriter::Add(std::string_view key, std::string_view value) {
  if (begins_.empty()) {
    return Status::Error(ErrorCode::kInternal, "no FS range covers intermediate key");
  }
  HashKey hk = KeyOf(key);
  std::size_t idx = RouteToRange(begins_, hk);
  if (!ranges_[idx].Contains(hk)) {
    // Only reachable if the table did not tile the ring (Assign forbids it).
    return Status::Error(ErrorCode::kInternal, "no FS range covers intermediate key");
  }
  RangeBuffer& buf = buffers_[idx];
  buf.bytes += key.size() + value.size();
  // Arena blocks and the view vector's capacity survive spills, so the
  // steady-state cost is two byte copies and a 32-byte append — the vector's
  // geometric growth is warmup, not a per-record tax.
  KVView kv{buf.arena.CopyString(key), buf.arena.CopyString(value)};
  buf.pairs.push_back(kv);  // eclipse-lint: allow(hotpath-pushback)
  if (buf.bytes >= threshold_) return SpillRange(idx);
  return Status::Ok();
}

Status ShuffleWriter::Flush() {
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    if (buffers_[i].pairs.empty()) continue;
    Status s = SpillRange(i);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status ShuffleWriter::SpillRange(std::size_t idx) {
  RangeBuffer& buf = buffers_[idx];
  const HashKey range_begin = begins_[idx];
  SpillInfo info;
  info.id = SpillId(prefix_, range_begin, buf.seq);
  info.range_begin = range_begin;
  info.pairs = buf.pairs.size();
  info.bytes = buf.bytes;

  // The proactive-shuffle push (§II-D), traced on the mapping server's
  // track: the transfer overlaps the rest of the map computation.
  obs::TraceSpan spill_span("mr", "spill", dfs_.self(),
                            {obs::U64("bytes", info.bytes), obs::U64("pairs", info.pairs),
                             obs::U64("job", job_id_)});

  // Placement key: the range's begin — by construction owned by the range's
  // server under the static FS partition, so the spill lands reducer-side.
  // The payload is encoded into the pooled writer buffer (no fresh
  // allocation once warm) and the staging arena rewinds afterwards, keeping
  // the threshold an actual bound on staged memory.
  EncodeSpillTo(buf.pairs, encode_);
  Status s = dfs_.PutObject(info.id, range_begin, encode_.str(), ttl_);
  if (!s.ok()) return s;

  spills_.push_back(info);
  ++buf.seq;
  buf.pairs.clear();
  buf.arena.Reset();
  buf.bytes = 0;
  return Status::Ok();
}

}  // namespace eclipse::mr
