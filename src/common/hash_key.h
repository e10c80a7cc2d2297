// The consistent-hashing keyspace shared by both EclipseMR ring layers.
//
// Every object — server position, file, file block, cached intermediate
// result — lives at a 64-bit point on one circular keyspace, derived from the
// top 8 bytes of its SHA-1 digest. The DHT file system (inner ring) and the
// distributed in-memory cache (outer ring) are two *independent partitions*
// of this same keyspace, which is what lets the LAF scheduler re-partition
// the cache layer without touching file placement.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/sha1.h"

namespace eclipse {

/// A point on the 2^64 circular keyspace.
using HashKey = std::uint64_t;

/// Hash an arbitrary name (file name, block id, cache tag) onto the ring.
HashKey KeyOf(std::string_view name);

/// Key of block `index` of file `file_name`. Blocks of one file spread
/// uniformly over the ring (paper §II-A: partitioned blocks are distributed
/// across servers by their hash keys, which resolves input-block skew).
HashKey BlockKey(std::string_view file_name, std::uint64_t index);

/// Hash of a byte string for in-memory hash tables (the word-count combiner,
/// reduce grouping); it places nothing on the ring. FNV-1a, with the high
/// half folded into the low one: a power-of-two table masks the low bits,
/// and FNV's multiply only carries a byte's influence upward.
inline std::uint64_t TableHash(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  return h ^ (h >> 32);
}

/// Half-open wrap-around interval [begin, end) on the circular keyspace.
///
/// A range where begin == end is interpreted as the FULL ring if marked
/// `full`, otherwise as empty (the paper's hot-spot example produces empty
/// ranges like [40,40) for servers that should receive no new tasks).
struct KeyRange {
  HashKey begin = 0;
  HashKey end = 0;
  bool full = false;  // distinguishes [x,x) empty from the whole ring

  static KeyRange Full() { return KeyRange{0, 0, true}; }
  static KeyRange Empty() { return KeyRange{0, 0, false}; }

  bool Contains(HashKey k) const {
    if (begin == end) return full;
    if (begin < end) return begin <= k && k < end;
    return k >= begin || k < end;  // wraps past 2^64-1
  }

  /// Number of keys covered (saturating: the full ring reports 2^64-1).
  std::uint64_t Width() const {
    if (begin == end) return full ? ~0ull : 0ull;
    return end - begin;  // modular arithmetic handles the wrap
  }

  bool IsEmpty() const { return begin == end && !full; }

  bool operator==(const KeyRange&) const = default;

  std::string ToString() const;
};

/// Clockwise distance from `from` to `to` on the ring.
inline std::uint64_t RingDistance(HashKey from, HashKey to) { return to - from; }

/// A partition of the keyspace into per-server ranges.
///
/// Both ring layers are instances of this table: the DHT-FS table is static
/// (rebuilt only on membership change, ranges induced by server positions)
/// while the cache-layer table is rewritten by the LAF scheduler from the
/// access-pattern CDF. Lookup is O(log n) binary search on range starts.
class RangeTable {
 public:
  RangeTable() = default;

  /// Build from (server id, range) pairs. Ranges must tile the ring:
  /// non-empty ranges are sorted by begin and must be contiguous. Empty
  /// ranges are allowed (servers currently assigned no keys).
  /// Returns false (leaving the table unchanged) if the ranges do not tile.
  bool Assign(std::vector<std::pair<int, KeyRange>> ranges);

  /// Build the canonical consistent-hashing partition from server ring
  /// positions: server at position p owns (pred_position, p], i.e. the range
  /// [pred+1, p+1) — a key is owned by its clockwise successor.
  static RangeTable FromPositions(const std::vector<std::pair<int, HashKey>>& positions);

  /// Server owning key `k`, or -1 if the table is empty.
  int Owner(HashKey k) const;

  /// Range currently assigned to `server`, Empty() if none.
  KeyRange RangeOf(int server) const;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// All (server, range) pairs, non-empty ranges in ring order followed by
  /// empty ones.
  const std::vector<std::pair<int, KeyRange>>& entries() const { return entries_; }

 private:
  // Non-empty entries sorted by range.begin, then empty-range entries.
  std::vector<std::pair<int, KeyRange>> entries_;
  std::size_t num_nonempty_ = 0;
};

}  // namespace eclipse
