// A worker server's local block storage ("its local disks").
//
// Holds primary blocks, replica blocks, and persisted intermediate results
// (which may carry a TTL and are not replicated by default, §II-C). Thread-safe;
// accessed concurrently by the node's RPC handler and by local map/reduce
// tasks.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash_key.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/units.h"

namespace eclipse::dfs {

struct StoredBlock {
  HashKey key = 0;
  std::string data;
  // Zero: never expires. Otherwise steady-clock deadline (paper: "the stored
  // intermediate results are invalidated by time-to-live (TTL)").
  std::chrono::steady_clock::time_point expiry{};
};

class BlockStore {
 public:
  /// Insert or overwrite. ttl of zero means no expiry.
  void Put(const std::string& id, HashKey key, std::string data,
           std::chrono::milliseconds ttl = std::chrono::milliseconds::zero());

  /// Fetch a copy. kNotFound if absent, kExpired (and erases) if TTL passed.
  Result<std::string> Get(const std::string& id);

  bool Contains(const std::string& id) const;
  void Erase(const std::string& id);

  /// (id, hash key, size) of every live block — recovery finds the holders
  /// of each file block in these lists after a failure.
  struct BlockInfo {
    std::string id;
    HashKey key;
    Bytes size;
  };
  std::vector<BlockInfo> List() const;

  Bytes TotalBytes() const;
  std::size_t Count() const;

  /// Drop every expired entry; returns how many were dropped.
  std::size_t Sweep();

  /// Install (or clear, with nullptr) a hook invoked at the top of every
  /// Put/Get, outside the store's lock. The fault layer uses it to inject
  /// slow-disk latency (mr::Cluster wires it to FaultController::DiskDelay);
  /// a sleeping hook therefore delays the operation without blocking
  /// concurrent ones. Safe to call while operations are in flight.
  void SetOpHook(std::function<void()> hook);

 private:
  void RunOpHook() const;

  static bool Expired(const StoredBlock& b) {
    return b.expiry != std::chrono::steady_clock::time_point{} &&
           std::chrono::steady_clock::now() >= b.expiry;
  }

  mutable Mutex mu_{Rank::kBlockStore, "BlockStore::mu_"};
  std::unordered_map<std::string, StoredBlock> blocks_ GUARDED_BY(mu_);
  Bytes total_bytes_ GUARDED_BY(mu_) = 0;

  // Hook is shared_ptr-swapped under its own leaf lock so SetOpHook can
  // race with in-flight operations (the hook runs outside both locks).
  mutable Mutex hook_mu_{Rank::kBlockStoreHook, "BlockStore::hook_mu_"};
  std::shared_ptr<const std::function<void()>> op_hook_ GUARDED_BY(hook_mu_);
};

}  // namespace eclipse::dfs
