#include "mr/worker.h"

#include "obs/trace.h"

namespace eclipse::mr {

WorkerServer::WorkerServer(int id, net::Transport& transport,
                           dfs::RingProvider ring_provider, const WorkerOptions& options)
    : id_(id), transport_(transport), options_(options) {
  if (!options.remote) {
    dfs_node_ = std::make_unique<dfs::DfsNode>(id, dispatcher_);
    cache_node_ = std::make_unique<cache::CacheNode>(id, dispatcher_, options.cache_capacity);
  }
  dfs_client_ =
      std::make_unique<dfs::DfsClient>(id, transport, ring_provider, options.dfs_client);
  cache_client_ = std::make_unique<cache::CacheClient>(id, transport);
  // Remote mode: the worker process owns node `id` on the wire; this side
  // only dials it through the peer route the DeploymentCoordinator installed.
  if (!options.remote) transport_.Register(id, dispatcher_.AsHandler());
}

WorkerServer::~WorkerServer() {
  dead_.store(true);
  // Remote mode: the peer route belongs to the DeploymentCoordinator, which
  // outlives this Cluster — dropping it here would strand the coordinator's
  // own shutdown broadcast. Only Kill() (crash semantics) severs it.
  if (!options_.remote) transport_.Register(id_, nullptr);
  // In-flight tasks observe dead() and return fast; the Cluster joins the
  // slot threads before any worker is destroyed, so no drain here.
}

void WorkerServer::Kill() {
  // Marks the end of this server's trace track: events after this instant
  // are stragglers from tasks that observed dead() mid-flight.
  obs::Tracer::Global().Emit('i', "cluster", "worker_kill", id_, {});
  dead_.store(true);
  // Local mode: detach the endpoint. Remote mode: TcpTransport resolves
  // Register(id, nullptr) to dropping the peer route, so the worker process
  // becomes unreachable from this side — the same Unavailable surface a
  // crashed machine presents.
  transport_.Register(id_, nullptr);
}

cache::CacheValue WorkerServer::CacheGet(const std::string& id,
                                         cache::EntryKind expected) {
  if (cache_node_) return cache_node_->local().Get(id, expected);
  return cache_client_->FetchFrom(id_, id, expected);
}

bool WorkerServer::CachePut(const std::string& id, HashKey key,
                            cache::CacheValue data, cache::EntryKind kind) {
  if (!data) return false;
  if (cache_node_) return cache_node_->local().Put(id, key, std::move(data), kind);
  return cache_client_->PutTo(id_, id, key, std::string_view(*data), kind);
}

std::size_t WorkerServer::CacheMigrateFrom(int neighbor, const KeyRange& range) {
  // An in-process node answers kCollect and kPut on the cluster transport
  // too, so both modes take the same path.
  return cache_client_->MigrateRemote(neighbor, range, id_);
}

cache::CacheClient::RemoteInfo WorkerServer::CacheInfo() {
  if (!cache_node_) return cache_client_->InfoFrom(id_);
  cache::CacheClient::RemoteInfo info;
  info.ok = true;
  cache::LruCache& c = cache_node_->local();
  for (std::size_t k = 0; k < cache::kNumEntryKinds; ++k) {
    info.by_kind[k] = c.stats(static_cast<cache::EntryKind>(k));
  }
  info.used = c.used();
  info.capacity = c.capacity();
  info.count = c.Count();
  return info;
}

void WorkerServer::CacheResetStats() {
  if (cache_node_) {
    cache_node_->local().ResetStats();
    return;
  }
  cache_client_->ResetStatsAt(id_);
}

}  // namespace eclipse::mr
