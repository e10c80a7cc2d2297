#include "dfs/dfs_node.h"

#include <optional>

#include "obs/trace.h"

namespace eclipse::dfs {
namespace {

net::Message Ok(std::string payload = {}) { return net::Message{msg::kOk, std::move(payload)}; }

/// The ids of a batched object request (kGetObjects, kDeleteObjects): u32 n,
/// then n ids. Nothing when the request is truncated.
std::optional<std::vector<std::string>> DecodeIds(const std::string& payload) {
  BinaryReader r(payload);
  std::uint32_t n;
  // Every id carries at least its 4-byte length prefix, so a count the
  // payload cannot hold is rejected before anything is allocated.
  if (!r.GetU32(&n) || n > r.remaining() / 4) return std::nullopt;
  std::vector<std::string> ids(n);
  for (std::string& id : ids) {
    if (!r.GetString(&id)) return std::nullopt;
  }
  return ids;
}

}  // namespace

DfsNode::DfsNode(int self, net::Dispatcher& dispatcher) : self_(self) {
  dispatcher.Route(msg::kPutMetadata, msg::kOk,
                   [this](int from, const net::Message& m) { return Handle(from, m); });
}

net::Message DfsNode::HandleGetObjects(int from, const net::Message& m) {
  const auto ids = DecodeIds(m.payload);
  if (!ids) return net::ErrorMessage(ErrorCode::kInvalidArgument, "bad GetObjects request");
  BinaryWriter w;
  w.PutU32(static_cast<std::uint32_t>(ids->size()));
  for (const std::string& id : *ids) {
    auto data = blocks_.Get(id);
    if (!data.ok()) {
      w.PutU32(static_cast<std::uint32_t>(data.status().code()));
      w.PutString(data.status().message());
      continue;
    }
    obs::Tracer::Global().Emit('i', "dfs", "block_serve", self_,
                               {obs::U64("bytes", data.value().size()),
                                obs::U64("to", static_cast<std::uint64_t>(from))});
    w.PutU32(static_cast<std::uint32_t>(ErrorCode::kOk));
    w.PutString(data.value());
  }
  return Ok(w.Take());
}

void DfsNode::PutMetadataLocal(const FileMetadata& m) {
  MutexLock lock(meta_mu_);
  metadata_[m.name] = m;
}

Result<FileMetadata> DfsNode::GetMetadataLocal(const std::string& name) const {
  MutexLock lock(meta_mu_);
  auto it = metadata_.find(name);
  if (it == metadata_.end()) {
    return Status::Error(ErrorCode::kNotFound, "no metadata for " + name);
  }
  return it->second;
}

std::vector<FileMetadata> DfsNode::ListMetadataLocal() const {
  MutexLock lock(meta_mu_);
  std::vector<FileMetadata> out;
  out.reserve(metadata_.size());
  for (const auto& [name, m] : metadata_) out.push_back(m);
  return out;
}

void DfsNode::DeleteMetadataLocal(const std::string& name) {
  MutexLock lock(meta_mu_);
  metadata_.erase(name);
}

net::Message DfsNode::Handle(int from, const net::Message& m) {
  (void)from;
  switch (m.type) {
    case msg::kPutMetadata: {
      BinaryReader r(m.payload);
      auto meta = FileMetadata::Deserialize(r);
      if (!meta.ok()) return net::ErrorMessage(meta.status().code(), meta.status().message());
      PutMetadataLocal(meta.value());
      return Ok();
    }

    case msg::kGetMetadata: {
      BinaryReader r(m.payload);
      std::string name, user;
      if (!r.GetString(&name) || !r.GetString(&user)) {
        return net::ErrorMessage(ErrorCode::kInvalidArgument, "bad GetMetadata request");
      }
      auto meta = GetMetadataLocal(name);
      if (!meta.ok()) return net::ErrorMessage(meta.status().code(), meta.status().message());
      // Access-permission check happens at the metadata owner (§II-A).
      if (!meta.value().public_read && meta.value().owner != user) {
        return net::ErrorMessage(ErrorCode::kPermission,
                                 "user " + user + " may not read " + name);
      }
      BinaryWriter w;
      meta.value().Serialize(w);
      return Ok(w.Take());
    }

    case msg::kDeleteMetadata: {
      BinaryReader r(m.payload);
      std::string name;
      if (!r.GetString(&name)) {
        return net::ErrorMessage(ErrorCode::kInvalidArgument, "bad DeleteMetadata request");
      }
      DeleteMetadataLocal(name);
      return Ok();
    }

    case msg::kPutBlock: {
      BinaryReader r(m.payload);
      std::string id, data;
      std::uint64_t key, ttl_ms;
      if (!r.GetString(&id) || !r.GetU64(&key) || !r.GetU64(&ttl_ms) || !r.GetString(&data)) {
        return net::ErrorMessage(ErrorCode::kInvalidArgument, "bad PutBlock request");
      }
      std::uint64_t bytes = data.size();
      blocks_.Put(id, key, std::move(data), std::chrono::milliseconds(ttl_ms));
      // Instants on the storing node's track: per-replica write traffic
      // (three per logical block under 3-way replication, §II-A).
      obs::Tracer::Global().Emit('i', "dfs", "block_put", self_,
                                 {obs::U64("bytes", bytes),
                                  obs::U64("from", static_cast<std::uint64_t>(from))});
      return Ok();
    }

    case msg::kGetBlock: {
      BinaryReader r(m.payload);
      std::string id;
      if (!r.GetString(&id)) {
        return net::ErrorMessage(ErrorCode::kInvalidArgument, "bad GetBlock request");
      }
      auto data = blocks_.Get(id);
      if (!data.ok()) return net::ErrorMessage(data.status().code(), data.status().message());
      obs::Tracer::Global().Emit('i', "dfs", "block_serve", self_,
                                 {obs::U64("bytes", data.value().size()),
                                  obs::U64("to", static_cast<std::uint64_t>(from))});
      return Ok(std::move(data.value()));
    }

    case msg::kGetBlockRange: {
      BinaryReader r(m.payload);
      std::string id;
      std::uint64_t offset, len;
      if (!r.GetString(&id) || !r.GetU64(&offset) || !r.GetU64(&len)) {
        return net::ErrorMessage(ErrorCode::kInvalidArgument, "bad GetBlockRange request");
      }
      auto data = blocks_.Get(id);
      if (!data.ok()) return net::ErrorMessage(data.status().code(), data.status().message());
      if (offset > data.value().size()) {
        return net::ErrorMessage(ErrorCode::kInvalidArgument, "range offset past end");
      }
      return Ok(data.value().substr(offset, len));
    }

    case msg::kGetObjects:
      return HandleGetObjects(from, m);

    case msg::kDeleteObjects: {
      // The whole request is decoded first: a truncated one erases nothing.
      const auto ids = DecodeIds(m.payload);
      if (!ids) return net::ErrorMessage(ErrorCode::kInvalidArgument, "bad DeleteObjects request");
      for (const std::string& id : *ids) blocks_.Erase(id);
      return Ok();
    }

    case msg::kListBlocks: {
      BinaryWriter w;
      auto infos = blocks_.List();
      w.PutU32(static_cast<std::uint32_t>(infos.size()));
      for (const auto& info : infos) {
        w.PutString(info.id);
        w.PutU64(info.key);
        w.PutU64(info.size);
      }
      return Ok(w.Take());
    }

    case msg::kListMetadata: {
      BinaryWriter w;
      auto metas = ListMetadataLocal();
      w.PutU32(static_cast<std::uint32_t>(metas.size()));
      for (const auto& meta : metas) meta.Serialize(w);
      return Ok(w.Take());
    }

    default:
      return net::ErrorMessage(ErrorCode::kInvalidArgument, "unknown dfs message");
  }
}

}  // namespace eclipse::dfs
