// The per-server DHT file system service.
//
// Hosts the server's share of the decentralized namespace (file metadata
// records whose hash keys fall in its range, plus replicas) and its local
// block storage. All operations arrive as messages through the node's
// Dispatcher; the DfsClient is the only intended caller.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "common/mutex.h"
#include "dfs/block_store.h"
#include "dfs/metadata.h"
#include "dht/ring.h"
#include "net/dispatcher.h"

namespace eclipse::dfs {

namespace msg {
inline constexpr std::uint32_t kPutMetadata = 200;
inline constexpr std::uint32_t kGetMetadata = 201;
inline constexpr std::uint32_t kDeleteMetadata = 202;
inline constexpr std::uint32_t kPutBlock = 203;
inline constexpr std::uint32_t kGetBlock = 204;
inline constexpr std::uint32_t kListBlocks = 206;
inline constexpr std::uint32_t kListMetadata = 207;
inline constexpr std::uint32_t kGetBlockRange = 208;
// Type 209 (a multi-hop routed read) is retired.
/// Batched object read: u32 n, then n ids. The response holds n entries in
/// request order, each a u32 ErrorCode and a string: the object's bytes on
/// kOk, else the error message.
inline constexpr std::uint32_t kGetObjects = 210;
/// Batched object delete, for blocks and objects alike: u32 n, then n ids.
/// The node erases each id from its BlockStore (an id it does not hold is
/// not an error) and answers kOk. Type 205 (a one-id delete) is retired.
inline constexpr std::uint32_t kDeleteObjects = 211;
inline constexpr std::uint32_t kOk = 299;
}  // namespace msg

/// Supplies the current view of the ring (normally bound to
/// Cluster::ring_snapshot; tests may pin a static ring).
///
/// The view is an immutable snapshot behind a shared_ptr: providers publish
/// a fresh snapshot on membership events, and every DFS operation costs one
/// refcount bump instead of a deep copy of the ring's position maps — the
/// copy was a measurable per-spill/per-block tax on the data path
/// (docs/performance.md). Providers must never return null; callers treat
/// null defensively as "no servers".
using RingSnapshot = std::shared_ptr<const dht::Ring>;
using RingProvider = std::function<RingSnapshot()>;

class DfsNode {
 public:
  DfsNode(int self, net::Dispatcher& dispatcher);

  /// Direct access for local tasks and for recovery (bypasses messaging;
  /// same thread-safe stores the handler uses).
  BlockStore& blocks() { return blocks_; }

  /// Local metadata operations (used by recovery).
  void PutMetadataLocal(const FileMetadata& m);
  Result<FileMetadata> GetMetadataLocal(const std::string& name) const;
  std::vector<FileMetadata> ListMetadataLocal() const;
  void DeleteMetadataLocal(const std::string& name);

  int self() const { return self_; }

 private:
  net::Message Handle(int from, const net::Message& m);
  net::Message HandleGetObjects(int from, const net::Message& m);

  const int self_;
  BlockStore blocks_;
  mutable Mutex meta_mu_{Rank::kDfsMeta, "DfsNode::meta_mu_"};
  std::unordered_map<std::string, FileMetadata> metadata_ GUARDED_BY(meta_mu_);
};

}  // namespace eclipse::dfs
