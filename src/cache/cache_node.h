// Per-server distributed-cache endpoint and its peer-access client.
//
// Exposes a worker server's LruCache to its peers: remote fetch (a task
// scheduled off-range can still read another server's cached object, §III-F)
// and the misplaced-data migration pull used when the LAF scheduler shifts
// hash-key ranges (§II-E).
#pragma once

#include <memory>
#include <string_view>

#include "cache/lru_cache.h"
#include "net/dispatcher.h"

namespace eclipse::cache {

namespace msg {
inline constexpr std::uint32_t kFetch = 300;      // id + expected kind -> data or NotFound
inline constexpr std::uint32_t kCollect = 301;    // KeyRange -> extracted entries
inline constexpr std::uint32_t kPut = 302;        // insert (or placeholder) -> accepted flag
inline constexpr std::uint32_t kStats = 304;      // -> per-kind stats + used/capacity/count
inline constexpr std::uint32_t kResetStats = 305; // -> ok
inline constexpr std::uint32_t kOk = 399;
}  // namespace msg

class CacheNode {
 public:
  CacheNode(int self, net::Dispatcher& dispatcher, Bytes capacity);

  LruCache& local() { return cache_; }
  const LruCache& local() const { return cache_; }

  int self() const { return self_; }

 private:
  net::Message Handle(int from, const net::Message& m);

  const int self_;
  LruCache cache_;
};

/// Peer-side operations against remote CacheNodes.
class CacheClient {
 public:
  CacheClient(int self, net::Transport& transport) : self_(self), transport_(transport) {}

  /// Fetch a cached object from `server` without moving it. The payload
  /// crosses the transport once and is returned as a refcounted handle
  /// (wrapped, not re-copied, on arrival). `expected` attributes a miss on
  /// the serving node's stats to the partition the caller was probing.
  CacheValue FetchFrom(int server, const std::string& id,
                       EntryKind expected = EntryKind::kOutput);

  /// §II-E migration of misplaced cached data after a range shift: pull
  /// every entry of `src`'s cache whose key lies in `range` (removing them
  /// from `src`) and push each to `dst` (pipelined kPut batch). The entries
  /// stream through the caller once. Returns entries accepted by `dst`.
  /// EclipseMR disables migration by default, as the paper did for its
  /// experiments.
  std::size_t MigrateRemote(int src, const KeyRange& range, int dst);

  // -- Remote-data-plane operations (multi-process deployment). ------------
  // The in-process cluster never calls these: WorkerServer's cache facade
  // uses the local LruCache directly (preserving the zero-copy hit path)
  // and only routes here when the worker's data plane lives in another
  // process.

  /// Insert into `server`'s cache. Returns false if rejected or unreachable.
  bool PutTo(int server, const std::string& id, HashKey key,
             std::string_view data, EntryKind kind);

  /// Point-in-time remote cache introspection (stats aggregation and the
  /// Prometheus per-server gauges).
  struct RemoteInfo {
    bool ok = false;  // false: peer unreachable, fields zero
    CacheStats by_kind[kNumEntryKinds];
    Bytes used = 0;
    Bytes capacity = 0;
    std::uint64_t count = 0;
  };
  RemoteInfo InfoFrom(int server);

  void ResetStatsAt(int server);

 private:
  const int self_;
  net::Transport& transport_;
};

}  // namespace eclipse::cache
