// One emulated worker server: the unit the paper calls a "worker server" or
// "node" — local disk (DfsNode), in-memory cache slice (CacheNode), and a
// data-plane client for reading remote blocks and pushing intermediate
// results. Its task slots live in the cluster's SlotArbiter
// (sched/slot_arbiter.h): map_slots map threads and reduce_slots reduce
// threads that run the attempts queued for this worker.
//
// Control-plane task submission is direct (the Cluster owns the workers);
// every data-plane byte still crosses the Transport, so killing a worker
// makes both its slots and its data unreachable, exactly like a crashed
// machine.
#pragma once

#include <atomic>
#include <memory>

#include "cache/cache_node.h"
#include "dfs/dfs_client.h"
#include "dfs/dfs_node.h"
#include "net/dispatcher.h"

namespace eclipse::mr {

struct WorkerOptions {
  int map_slots = 2;
  int reduce_slots = 2;
  Bytes cache_capacity = 64_MiB;
  dfs::DfsClientOptions dfs_client;
  /// Multi-process deployment: the data plane (DfsNode, CacheNode,
  /// BlockStore) lives in a separate eclipse-worker process reachable
  /// through a transport peer route. No local nodes are built, nothing is
  /// registered on the transport, and cache operations become RPCs (see the
  /// cache facade below). Task execution still happens here — compute never
  /// ships across the wire (JobSpec holds C++ closures).
  bool remote = false;
};

class WorkerServer {
 public:
  WorkerServer(int id, net::Transport& transport, dfs::RingProvider ring_provider,
               const WorkerOptions& options);
  ~WorkerServer();

  WorkerServer(const WorkerServer&) = delete;
  WorkerServer& operator=(const WorkerServer&) = delete;

  int id() const { return id_; }

  /// Simulated crash: detach from the transport (peers get Unavailable) and
  /// fail any queued or future tasks. Irreversible.
  void Kill();
  bool dead() const { return dead_.load(); }

  /// Data plane hosted out-of-process (WorkerOptions::remote).
  bool remote() const { return options_.remote; }

  // Components (thread-safe objects). The node accessors are only valid in
  // local mode — remote workers host these in their own process.
  dfs::DfsNode& dfs_node() { return *dfs_node_; }
  cache::LruCache& cache() { return cache_node_->local(); }
  cache::CacheNode& cache_node() { return *cache_node_; }
  dfs::DfsClient& dfs() { return *dfs_client_; }
  cache::CacheClient& cache_client() { return *cache_client_; }

  // -- Cache facade ---------------------------------------------------------
  // JobRunner and Cluster reach this worker's cache slice through these
  // calls instead of touching the LruCache directly. Local mode delegates to
  // the in-process LruCache (preserving the zero-copy handle path on hits);
  // remote mode issues cache RPCs to the worker process.

  /// nullptr on miss (or unreachable remote / expired deadline).
  cache::CacheValue CacheGet(const std::string& id, cache::EntryKind expected);
  /// False if the entry was rejected (over capacity) or the peer unreachable.
  bool CachePut(const std::string& id, HashKey key, cache::CacheValue data,
                cache::EntryKind kind);
  /// §II-E migration pull: move `range` out of `neighbor`'s cache into this
  /// worker's. The entries stream through the caller (collect from the
  /// neighbor, pipelined puts to this worker's node), in both modes.
  std::size_t CacheMigrateFrom(int neighbor, const KeyRange& range);
  /// Point-in-time stats + occupancy (one RPC in remote mode). `ok` is false
  /// only when a remote peer is unreachable.
  cache::CacheClient::RemoteInfo CacheInfo();
  void CacheResetStats();

  /// The node's message dispatcher — additional components (e.g. a
  /// MembershipAgent) register their routes here.
  net::Dispatcher& dispatcher() { return dispatcher_; }

  int map_slots() const { return options_.map_slots; }
  int reduce_slots() const { return options_.reduce_slots; }

 private:
  const int id_;
  net::Transport& transport_;
  WorkerOptions options_;
  std::atomic<bool> dead_{false};

  net::Dispatcher dispatcher_;
  std::unique_ptr<dfs::DfsNode> dfs_node_;
  std::unique_ptr<cache::CacheNode> cache_node_;
  std::unique_ptr<dfs::DfsClient> dfs_client_;
  std::unique_ptr<cache::CacheClient> cache_client_;
};

}  // namespace eclipse::mr
