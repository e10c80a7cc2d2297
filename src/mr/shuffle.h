// Proactive shuffling (paper §II-D).
//
// "EclipseMR lets each mapper pipeline the intermediate results to the DHT
// file system in a decentralized fashion while they are being generated.
// Based on the hash keys of the intermediate results, each map task stores
// the intermediate results in a memory buffer for each hash key range. When
// the size of this buffer reaches a certain threshold specified by the
// application, EclipseMR spills the buffered results to the DHT file
// system so that they can be accessed by reducers."
//
// The ShuffleWriter keeps one buffer per DHT-FS hash-key range; each spill
// becomes a persisted object placed at the range owner, and the spill id is
// reported back so the scheduler can place the reduce task where the
// intermediates already live. Records route to their range by binary search
// over the sorted range boundaries — O(log R) per record, the dominant
// per-record cost after hashing (see docs/performance.md).
//
// Allocation model (docs/performance.md "The hot path"): Add copies the
// record's bytes into the range's arena and appends one KVView — after the
// first few records warm the arena blocks and the view vector's capacity,
// the per-record path performs no heap allocation. A spill encodes the
// views into a pooled BinaryWriter buffer (common/buffer_pool.h) and then
// Resets the arena, so the threshold still bounds staged memory. The
// reduce side mirrors this: DecodeSpillViews parses views over the pinned
// spill payload and ForEachGroupViews groups them through reusable
// ReduceScratch buffers — each pair is hashed onto its key's chain, and
// only the distinct keys are sorted; no per-key node or string.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/hash_key.h"
#include "common/hot_path.h"
#include "common/serde.h"
#include "dfs/dfs_client.h"
#include "mr/types.h"

namespace eclipse::mr {

/// What a mapper tells the scheduler about one spilled buffer.
struct SpillInfo {
  std::string id;       // DHT-FS object id
  HashKey range_begin;  // identifies the target hash-key range
  std::uint64_t pairs;
  Bytes bytes;
};

/// Size of a spill's encoded payload: a u32 pair count, then a u32 length
/// before every key and every value.
inline Bytes EncodedSpillBytes(const SpillInfo& spill) {
  return 4 + 8 * spill.pairs + spill.bytes;
}

/// Cut a run of objects with these encoded sizes, in order, into batches of
/// at most `cap` bytes; returns each batch's end index. An object larger
/// than `cap` gets a batch of its own, and no batch is empty. A reduce
/// gathers each batch of its spills in one DHT-FS call.
std::vector<std::size_t> BatchEnds(const std::vector<Bytes>& sizes, Bytes cap);

/// Encode one spill's KV payload into `w` (cleared first). The writer keeps
/// its backing buffer, so a pooled writer encodes every spill of a task
/// through one warmed allocation.
void EncodeSpillTo(const std::vector<KVView>& pairs, BinaryWriter& w);

/// Zero-copy decode of one spill's KV payload: the views are appended to
/// `*out` (reserving ahead), so a reduce accumulates all its spills in one
/// flat vector. They alias `data`, which must stay alive — and unmoved —
/// while the views are used (the reduce path pins each spill payload
/// through its cache handle for exactly this reason). On error `*out` may
/// hold a partial tail; callers treat the whole decode as failed.
Status DecodeSpillViews(const std::string& data, std::vector<KVView>* out);

/// Index into `sorted_begins` (ascending range-begin boundaries of a set of
/// ranges tiling the ring) of the range covering `hk`: the last begin <= hk,
/// wrapping to the final range for keys below the first boundary. Pure —
/// exercised directly by tests against the linear-scan reference.
ECLIPSE_HOT_PATH
std::size_t RouteToRange(const std::vector<HashKey>& sorted_begins, HashKey hk);

/// Reusable reduce-task buffers. One instance lives per slot thread
/// (thread_local in job_runner.cc): Clear() drops contents but keeps every
/// vector's capacity, so steady-state reduce tasks allocate nothing while
/// grouping.
struct ReduceScratch {
  /// The pairs of one distinct key, linked through `next` in append order.
  struct Chain {
    static constexpr std::uint32_t kEnd = ~std::uint32_t{0};
    std::uint32_t hash;   // low half of the key's TableHash
    std::uint32_t head;   // first and last pair of the key
    std::uint32_t tail;
    std::uint32_t count;  // pairs on the chain
  };
  std::vector<KVView> pairs;             // all spills' records, as views
  std::vector<std::uint32_t> next;       // per pair: the key's next pair
  std::vector<Chain> chains;             // one per distinct key
  std::vector<std::uint32_t> table;      // chains index + 1 by hash; 0 = free
  std::vector<std::string_view> values;  // per-group value views
  void Clear() {
    pairs.clear();
    next.clear();
    chains.clear();
    table.clear();
    values.clear();
  }
};

/// Thread scratch.pairs onto one chain per distinct key, then sort the
/// chains by key: the grouping half of ForEachGroupViews. The hash table
/// (linear probing, power-of-two size, load <= 1/2) starts small on every
/// call and doubles with the distinct keys, rebuilt from `chains`; its
/// vectors keep their high-water capacity, so a warmed scratch allocates
/// nothing here.
ECLIPSE_HOT_PATH void ChainByKey(ReduceScratch& scratch);

/// Group scratch.pairs by key and call fn(key, values) once per distinct
/// key in ascending key order; value views keep their append (spill)
/// order. Returns false if fn returned false (early stop), true otherwise.
/// Templated on Fn so the call costs no std::function allocation.
template <typename Fn>
ECLIPSE_HOT_PATH bool ForEachGroupViews(ReduceScratch& scratch, Fn&& fn) {
  ChainByKey(scratch);
  for (const ReduceScratch::Chain& chain : scratch.chains) {
    scratch.values.clear();
    scratch.values.reserve(chain.count);
    for (std::uint32_t i = chain.head; i != ReduceScratch::Chain::kEnd; i = scratch.next[i]) {
      scratch.values.push_back(scratch.pairs[i].value);
    }
    if (!fn(scratch.pairs[chain.head].key, scratch.values)) return false;
  }
  return true;
}

/// Order one reduce task's output by key, keeping equal keys in emission
/// order. A reducer that emits in its visit order (every shipped one does)
/// costs one is_sorted pass; any other gets a stable_sort.
void SortRunByKey(std::vector<KV>& run);

/// Merge key-sorted runs into `out` (cleared, then reserved to the total).
/// Equal keys come from the lower run first, so `out` is exactly a stable
/// sort of the runs' concatenation. The pairs are moved out of `runs`.
void MergeRuns(std::vector<std::vector<KV>>& runs, std::vector<KV>* out);

class ShuffleWriter {
 public:
  /// `prefix` scopes spill ids ("im/<job-or-tag>/b<block>"); spills are
  /// placed by `fs_ranges` (the static DHT-FS partition) through `dfs`.
  /// Spill ids are deterministic (prefix + range + sequence) so a
  /// re-executed map task overwrites its own earlier spills idempotently.
  /// `job_id` only labels the spill trace spans (the id itself is scoped
  /// through `prefix`); 0 for writers outside any job.
  ShuffleWriter(std::string prefix, const RangeTable& fs_ranges, dfs::DfsClient& dfs,
                Bytes spill_threshold, std::chrono::milliseconds ttl,
                std::uint64_t job_id = 0);
  ~ShuffleWriter();

  ShuffleWriter(const ShuffleWriter&) = delete;
  ShuffleWriter& operator=(const ShuffleWriter&) = delete;

  /// Buffer one intermediate pair under the range covering KeyOf(key);
  /// spills that range's buffer if it crossed the threshold. The bytes are
  /// copied into the range's arena before return — callers may pass views
  /// into buffers they are about to reuse.
  ECLIPSE_HOT_PATH
  Status Add(std::string_view key, std::string_view value);

  /// Spill every non-empty buffer (end of the map task).
  Status Flush();

  /// All spills produced (valid after Flush).
  const std::vector<SpillInfo>& spills() const { return spills_; }

 private:
  struct RangeBuffer {
    Arena arena;                // staged bytes; Reset (blocks kept) per spill
    std::vector<KVView> pairs;  // views into arena; capacity kept per spill
    Bytes bytes = 0;
    std::uint64_t seq = 0;
  };

  Status SpillRange(std::size_t idx);

  std::string prefix_;
  dfs::DfsClient& dfs_;
  Bytes threshold_;
  std::chrono::milliseconds ttl_;
  std::uint64_t job_id_;
  // Parallel arrays over the non-empty ranges, sorted by range begin:
  // begins_ is the binary-search index, ranges_ the defensive containment
  // check, buffers_ the per-range accumulation state.
  std::vector<HashKey> begins_;
  std::vector<KeyRange> ranges_;
  std::vector<RangeBuffer> buffers_;
  std::vector<SpillInfo> spills_;
  BinaryWriter encode_;  // backing buffer borrowed from BufferPool::Global
};

/// Deterministic spill object id.
std::string SpillId(const std::string& prefix, HashKey range_begin, std::uint64_t seq);

/// Manifest object listing a map task's spills, enabling §II-C reuse
/// ("if a user application specifies it can reuse intermediate results and
/// they are available ... the map tasks skip computation").
std::string EncodeManifest(const std::vector<SpillInfo>& spills);
Result<std::vector<SpillInfo>> DecodeManifest(const std::string& data);

/// Manifest id for (tag, input file, block).
std::string ManifestId(const std::string& tag, const std::string& input, std::uint64_t block);

}  // namespace eclipse::mr
