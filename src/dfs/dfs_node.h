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
inline constexpr std::uint32_t kRoutedGet = 209;
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

/// Supplies the node's current view of the ring (normally bound to
/// MembershipAgent::ring_view; tests may pin a static ring).
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

  /// Enable multi-hop request routing (§II-A: "if zero hop routing is not
  /// enabled, it routes the request to another server that owns the hash
  /// key as in the classic DHT routing algorithm"). `finger_entries` is the
  /// routing-table size m; each kRoutedGet that misses locally is forwarded
  /// to the finger-table next hop, up to a hop budget. Requires a transport
  /// to forward on; without this call, kRoutedGet answers from local state
  /// only.
  void EnableRouting(net::Transport& transport, RingProvider ring_provider,
                     std::size_t finger_entries);

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
  net::Message HandleRoutedGet(const net::Message& m);
  net::Message HandleGetObjects(int from, const net::Message& m);

  const int self_;
  BlockStore blocks_;
  mutable Mutex meta_mu_{Rank::kDfsMeta, "DfsNode::meta_mu_"};
  std::unordered_map<std::string, FileMetadata> metadata_ GUARDED_BY(meta_mu_);

  // Multi-hop routing state (optional). EnableRouting may race with inbound
  // kRoutedGet traffic, so handlers snapshot this under route_mu_.
  mutable Mutex route_mu_{Rank::kDfsRoute, "DfsNode::route_mu_"};
  net::Transport* transport_ GUARDED_BY(route_mu_) = nullptr;
  RingProvider ring_provider_ GUARDED_BY(route_mu_);
  std::size_t finger_entries_ GUARDED_BY(route_mu_) = 0;
};

/// Client-side routed lookup: ask `entry_node` for the object stored under
/// (id, key); the request hops through finger tables until it reaches the
/// key's owner. Returns the data, the owner id, and the number of hops.
struct RoutedGetResult {
  std::string data;
  int owner = -1;
  std::uint32_t hops = 0;
};
Result<RoutedGetResult> RoutedGet(net::Transport& transport, int caller, int entry_node,
                                  const std::string& id, HashKey key,
                                  std::uint32_t max_hops = 64);

}  // namespace eclipse::dfs
