#include "dfs/recovery.h"

#include <algorithm>
#include <map>

#include "common/log.h"

namespace eclipse::dfs {

FsRecovery::FsRecovery(int self, net::Transport& transport, RingProvider ring_provider)
    : self_(self), transport_(transport), ring_(std::move(ring_provider)) {}

RecoveryReport FsRecovery::Repair(std::size_t replication, bool drop_extraneous) {
  RecoveryReport report;
  RingSnapshot ring_snap = ring_();
  static const dht::Ring kNoRing;
  const dht::Ring& ring = ring_snap ? *ring_snap : kNoRing;

  struct Item {
    HashKey key = 0;
    std::vector<int> holders;
  };
  std::map<std::string, Item> blocks;    // durable blocks only
  std::map<std::string, Item> metadata;  // keyed by file name

  auto call = [&](int to, const net::Message& m) -> Result<net::Message> {
    auto resp = transport_.Call(self_, to, m);
    if (!resp.ok()) return resp.status();
    if (net::IsError(resp.value())) return net::DecodeError(resp.value());
    return resp;
  };

  // Inventory pass.
  for (int server : ring.Servers()) {
    auto list = call(server, net::Message{msg::kListBlocks, {}});
    if (list.ok()) {
      BinaryReader r(list.value().payload);
      std::uint32_t n = 0;
      r.GetU32(&n);
      for (std::uint32_t i = 0; i < n; ++i) {
        std::string id;
        std::uint64_t key, size;
        std::uint8_t transient;
        if (!r.GetString(&id) || !r.GetU64(&key) || !r.GetU64(&size) || !r.GetU8(&transient)) {
          break;
        }
        if (transient) continue;
        auto& item = blocks[id];
        item.key = key;
        item.holders.push_back(server);
      }
    }
    auto metas = call(server, net::Message{msg::kListMetadata, {}});
    if (metas.ok()) {
      BinaryReader r(metas.value().payload);
      std::uint32_t n = 0;
      r.GetU32(&n);
      for (std::uint32_t i = 0; i < n; ++i) {
        auto meta = FileMetadata::Deserialize(r);
        if (!meta.ok()) break;
        auto& item = metadata[meta.value().name];
        item.key = meta.value().MetaKey();
        item.holders.push_back(server);
      }
    }
  }

  auto has = [](const std::vector<int>& v, int x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  };

  // Repair blocks: copy from any holder to each missing target replica.
  for (const auto& [id, item] : blocks) {
    auto targets = ring.Replicas(item.key, replication);
    bool complete = true;
    for (int target : targets) {
      if (has(item.holders, target)) continue;
      // Fetch from a surviving holder.
      std::string data;
      bool got = false;
      for (int holder : item.holders) {
        BinaryWriter w;
        w.PutString(id);
        auto resp = call(holder, net::Message{msg::kGetBlock, w.Take()});
        if (resp.ok()) {
          data = std::move(resp.value().payload);
          got = true;
          break;
        }
      }
      if (!got) {
        ++report.blocks_lost;
        complete = false;
        LOG_WARN << "block " << id << " unrecoverable: no surviving replica";
        break;
      }
      BinaryWriter w;
      w.PutString(id);
      w.PutU64(item.key);
      w.PutU64(0);
      w.PutString(data);
      if (call(target, net::Message{msg::kPutBlock, w.Take()}).ok()) {
        ++report.blocks_copied;
      } else {
        complete = false;
      }
    }
    if (drop_extraneous && complete) {
      // Every target holds a copy: retire copies on ex-replica servers.
      for (int holder : item.holders) {
        if (has(targets, holder)) continue;
        BinaryWriter w;
        w.PutU32(1);
        w.PutString(id);
        if (call(holder, net::Message{msg::kDeleteObjects, w.Take()}).ok()) {
          ++report.blocks_dropped;
        }
      }
    }
  }

  // Repair metadata the same way (records are tiny; re-fetch per target).
  for (const auto& [name, item] : metadata) {
    auto targets = ring.Replicas(item.key, replication);
    for (int target : targets) {
      if (has(item.holders, target)) continue;
      // Any holder can serve the record via a local list; easiest correct
      // path is to re-read it through GetMetadata semantics at a holder.
      BinaryWriter req;
      req.PutString(name);
      req.PutString("");  // recovery runs as the superuser-less system; the
                          // permission check only rejects non-owners, and a
                          // holder returns public records to anyone — so
                          // fetch via kListMetadata instead when private.
      FileMetadata found;
      bool got = false;
      for (int holder : item.holders) {
        auto resp = call(holder, net::Message{msg::kListMetadata, {}});
        if (!resp.ok()) continue;
        BinaryReader r(resp.value().payload);
        std::uint32_t n = 0;
        r.GetU32(&n);
        for (std::uint32_t i = 0; i < n && !got; ++i) {
          auto meta = FileMetadata::Deserialize(r);
          if (meta.ok() && meta.value().name == name) {
            found = meta.value();
            got = true;
          }
        }
        if (got) break;
      }
      if (!got) continue;
      BinaryWriter w;
      found.Serialize(w);
      if (call(target, net::Message{msg::kPutMetadata, w.Take()}).ok()) {
        ++report.metadata_copied;
      }
    }
  }

  return report;
}

}  // namespace eclipse::dfs
