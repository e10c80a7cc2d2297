#include "dfs/recovery.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/log.h"
#include "dfs/metadata.h"

namespace eclipse::dfs {

FsRecovery::FsRecovery(int self, net::Transport& transport, RingProvider ring_provider)
    : self_(self), transport_(transport), ring_(std::move(ring_provider)) {}

RecoveryReport FsRecovery::Repair(std::size_t replication, bool drop_extraneous) {
  RecoveryReport report;
  RingSnapshot ring_snap = ring_();
  static const dht::Ring kNoRing;
  const dht::Ring& ring = ring_snap ? *ring_snap : kNoRing;

  auto call = [&](int to, const net::Message& m) -> Result<net::Message> {
    auto resp = transport_.Call(self_, to, m);
    if (!resp.ok()) return resp.status();
    if (net::IsError(resp.value())) return net::DecodeError(resp.value());
    return resp;
  };
  auto has = [](const std::vector<int>& v, int x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  };

  // Inventory: one block list and one metadata list per live server. The
  // namespace is one decoded record per file name plus the servers holding
  // it; the block lists give the holders of every object id.
  struct File {
    FileMetadata meta;
    std::vector<int> holders;
  };
  std::map<std::string, File> files;
  std::unordered_map<std::string, std::vector<int>> holders_of;
  for (int server : ring.Servers()) {
    auto list = call(server, net::Message{msg::kListBlocks, {}});
    if (list.ok()) {
      BinaryReader r(list.value().payload);
      std::uint32_t n = 0;
      r.GetU32(&n);
      for (std::uint32_t i = 0; i < n; ++i) {
        std::string id;
        std::uint64_t key, size;
        if (!r.GetString(&id) || !r.GetU64(&key) || !r.GetU64(&size)) break;
        holders_of[std::move(id)].push_back(server);
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
        File& file = files[meta.value().name];
        if (file.holders.empty()) file.meta = std::move(meta.value());
        file.holders.push_back(server);
      }
    }
  }

  // Metadata: the record goes to each replica target that lacks it.
  for (const auto& [name, file] : files) {
    BinaryWriter w;
    file.meta.Serialize(w);
    const net::Message put{msg::kPutMetadata, w.Take()};
    for (int target : ring.Replicas(file.meta.MetaKey(), replication)) {
      if (!has(file.holders, target) && call(target, put).ok()) ++report.metadata_copied;
    }
  }

  // Blocks: each of a file's num_blocks blocks goes from a live holder to
  // each replica target that lacks it.
  static const std::vector<int> kNoHolders;
  auto fetch = [&](const std::string& id,
                   const std::vector<int>& holders) -> std::optional<std::string> {
    BinaryWriter w;
    w.PutString(id);
    const net::Message get{msg::kGetBlock, w.Take()};
    for (int holder : holders) {
      auto resp = call(holder, get);
      if (resp.ok()) return std::move(resp.value().payload);
    }
    return std::nullopt;
  };
  for (const auto& [name, file] : files) {
    for (std::uint64_t b = 0; b < file.meta.num_blocks; ++b) {
      const std::string id = BlockId(name, b);
      const HashKey key = file.meta.KeyOfBlock(b);
      auto it = holders_of.find(id);
      const std::vector<int>& holders = it == holders_of.end() ? kNoHolders : it->second;
      const std::vector<int> targets = ring.Replicas(key, replication);
      std::optional<std::string> data;  // fetched for the first missing target
      bool complete = true;
      for (int target : targets) {
        if (has(holders, target)) continue;
        if (!data) data = fetch(id, holders);
        if (!data) {
          ++report.blocks_lost;
          complete = false;
          LOG_WARN << "block " << id << " unrecoverable: no surviving replica";
          break;
        }
        BinaryWriter w;
        w.PutString(id);
        w.PutU64(key);
        w.PutU64(0);  // no TTL
        w.PutString(*data);
        if (call(target, net::Message{msg::kPutBlock, w.Take()}).ok()) {
          ++report.blocks_copied;
        } else {
          complete = false;
        }
      }
      if (!drop_extraneous || !complete) continue;
      // Every target holds a copy: retire copies on ex-replica servers.
      for (int holder : holders) {
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

  return report;
}

}  // namespace eclipse::dfs
