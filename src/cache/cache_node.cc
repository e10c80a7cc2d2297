#include "cache/cache_node.h"

#include "common/serde.h"
#include "net/retry.h"
#include "obs/trace.h"

namespace eclipse::cache {

CacheNode::CacheNode(int self, net::Dispatcher& dispatcher, Bytes capacity)
    : self_(self), cache_(capacity) {
  dispatcher.Route(msg::kFetch, msg::kOk,
                   [this](int from, const net::Message& m) { return Handle(from, m); });
}

net::Message CacheNode::Handle(int from, const net::Message& m) {
  (void)from;
  switch (m.type) {
    case msg::kFetch: {
      BinaryReader r(m.payload);
      std::string id;
      std::uint8_t expected;
      if (!r.GetString(&id) || !r.GetU8(&expected) ||
          expected >= static_cast<std::uint8_t>(kNumEntryKinds)) {
        return net::ErrorMessage(ErrorCode::kInvalidArgument, "bad cache fetch");
      }
      CacheValue data = cache_.Get(id, static_cast<EntryKind>(expected));
      // Instant on the serving node's track: which peers reach into this
      // server's LRU and whether the reach pays off (outer-ring traffic).
      obs::Tracer::Global().Emit('i', "cache", "peer_fetch", self_,
                                 {obs::Str("result", data ? "hit" : "miss"),
                                  obs::U64("from", static_cast<std::uint64_t>(from))});
      if (!data) return net::ErrorMessage(ErrorCode::kNotFound, "not cached: " + id);
      // The one unavoidable copy: the block leaves this address space here.
      return net::Message{msg::kOk, *data};
    }

    case msg::kCollect: {
      BinaryReader r(m.payload);
      std::uint64_t begin, end;
      std::uint8_t full;
      if (!r.GetU64(&begin) || !r.GetU64(&end) || !r.GetU8(&full)) {
        return net::ErrorMessage(ErrorCode::kInvalidArgument, "bad cache collect");
      }
      auto extracted = cache_.ExtractRange(KeyRange{begin, end, full != 0});
      BinaryWriter w;
      std::size_t wire_bytes = 4;
      for (const auto& [info, data] : extracted) {
        wire_bytes += info.id.size() + 4 + 8 + 1 + 8 + 4 + (data ? data->size() : 0);
      }
      w.Reserve(wire_bytes);
      w.PutU32(static_cast<std::uint32_t>(extracted.size()));
      for (const auto& [info, data] : extracted) {
        w.PutString(info.id);
        w.PutU64(info.key);
        w.PutU8(static_cast<std::uint8_t>(info.kind));
        // Size travels separately from the payload so placeholder entries
        // (null data, nonzero size) survive migration as placeholders.
        w.PutU64(info.size);
        w.PutString(data ? std::string_view(*data) : std::string_view{});
      }
      return net::Message{msg::kOk, w.Take()};
    }

    case msg::kPut: {
      BinaryReader r(m.payload);
      std::string id, data;
      std::uint64_t key, size;
      std::uint8_t kind;
      if (!r.GetString(&id) || !r.GetU64(&key) || !r.GetU8(&kind) ||
          !r.GetU64(&size) || !r.GetString(&data) ||
          kind >= static_cast<std::uint8_t>(kNumEntryKinds)) {
        return net::ErrorMessage(ErrorCode::kInvalidArgument, "bad cache put");
      }
      // Same convention as kCollect: empty payload + nonzero size means a
      // placeholder entry (admission marker), not a zero-byte object.
      bool ok = (data.empty() && size > 0)
                    ? cache_.PutPlaceholder(id, key, size, static_cast<EntryKind>(kind))
                    : cache_.Put(id, key, std::move(data), static_cast<EntryKind>(kind));
      BinaryWriter w;
      w.PutU8(ok ? 1 : 0);
      return net::Message{msg::kOk, w.Take()};
    }

    case msg::kStats: {
      // One round trip carries everything the coordinator's aggregation and
      // Prometheus export need: per-kind counters plus occupancy.
      BinaryWriter w;
      for (std::size_t k = 0; k < kNumEntryKinds; ++k) {
        CacheStats s = cache_.stats(static_cast<EntryKind>(k));
        w.PutU64(s.hits);
        w.PutU64(s.misses);
        w.PutU64(s.inserts);
        w.PutU64(s.evictions);
      }
      w.PutU64(cache_.used());
      w.PutU64(cache_.capacity());
      w.PutU64(cache_.Count());
      return net::Message{msg::kOk, w.Take()};
    }

    case msg::kResetStats:
      cache_.ResetStats();
      return net::Message{msg::kOk, {}};

    default:
      return net::ErrorMessage(ErrorCode::kInvalidArgument, "unknown cache message");
  }
}

namespace {

net::Message EncodePut(const std::string& id, HashKey key, std::string_view data,
                       Bytes size, EntryKind kind) {
  BinaryWriter w;
  w.Reserve(4 + id.size() + 8 + 1 + 8 + 4 + data.size());
  w.PutString(id);
  w.PutU64(key);
  w.PutU8(static_cast<std::uint8_t>(kind));
  w.PutU64(size);
  w.PutString(data);
  return net::Message{msg::kPut, w.Take()};
}

bool PutAccepted(const Result<net::Message>& resp) {
  if (!resp.ok() || net::IsError(resp.value())) return false;
  BinaryReader r(resp.value().payload);
  std::uint8_t ok = 0;
  return r.GetU8(&ok) && ok != 0;
}

}  // namespace

CacheValue CacheClient::FetchFrom(int server, const std::string& id, EntryKind expected) {
  // A peer-cache fetch is an optimization with a mandatory fallback (the
  // DHT FS read), so degrade instead of insisting: never retry an
  // unreachable peer, and skip the attempt entirely once the caller's
  // deadline has expired — the remaining time belongs to the replica reads.
  if (net::CurrentDeadline().expired()) return nullptr;
  obs::TraceSpan fetch_span("cache", "remote_fetch", self_,
                            {obs::U64("server", static_cast<std::uint64_t>(server))});
  BinaryWriter w;
  w.PutString(id);
  w.PutU8(static_cast<std::uint8_t>(expected));
  auto resp = transport_.Call(self_, server, net::Message{msg::kFetch, w.Take()});
  if (!resp.ok() || net::IsError(resp.value())) return nullptr;
  fetch_span.AddArg(obs::U64("bytes", resp.value().payload.size()));
  return std::make_shared<const std::string>(std::move(resp.value().payload));
}

std::size_t CacheClient::MigrateRemote(int src, const KeyRange& range, int dst) {
  BinaryWriter w;
  w.PutU64(range.begin);
  w.PutU64(range.end);
  w.PutU8(range.full ? 1 : 0);
  auto resp = transport_.Call(self_, src, net::Message{msg::kCollect, w.Take()});
  if (!resp.ok() || net::IsError(resp.value())) return 0;

  BinaryReader r(resp.value().payload);
  std::uint32_t n = 0;
  if (!r.GetU32(&n)) return 0;
  std::vector<net::Message> puts;
  puts.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string id, data;
    std::uint64_t key, size;
    std::uint8_t kind;
    if (!r.GetString(&id) || !r.GetU64(&key) || !r.GetU8(&kind) ||
        !r.GetU64(&size) || !r.GetString(&data)) {
      break;
    }
    if (kind >= kNumEntryKinds) continue;
    puts.push_back(EncodePut(id, key, data, size, static_cast<EntryKind>(kind)));
  }
  if (puts.empty()) return 0;
  auto results = transport_.CallBatch(self_, dst, puts);
  std::size_t moved = 0;
  for (const auto& res : results)
    if (PutAccepted(res)) ++moved;
  return moved;
}

bool CacheClient::PutTo(int server, const std::string& id, HashKey key,
                        std::string_view data, EntryKind kind) {
  return PutAccepted(
      transport_.Call(self_, server, EncodePut(id, key, data, data.size(), kind)));
}

CacheClient::RemoteInfo CacheClient::InfoFrom(int server) {
  RemoteInfo info;
  auto resp = transport_.Call(self_, server, net::Message{msg::kStats, {}});
  if (!resp.ok() || net::IsError(resp.value())) return info;
  BinaryReader r(resp.value().payload);
  for (std::size_t k = 0; k < kNumEntryKinds; ++k) {
    CacheStats& s = info.by_kind[k];
    if (!r.GetU64(&s.hits) || !r.GetU64(&s.misses) || !r.GetU64(&s.inserts) ||
        !r.GetU64(&s.evictions))
      return info;
  }
  if (!r.GetU64(&info.used) || !r.GetU64(&info.capacity) || !r.GetU64(&info.count))
    return info;
  info.ok = r.AtEnd();
  return info;
}

void CacheClient::ResetStatsAt(int server) {
  (void)transport_.Call(self_, server, net::Message{msg::kResetStats, {}});
}

}  // namespace eclipse::cache
