#include "dfs/block_store.h"

namespace eclipse::dfs {

void BlockStore::SetOpHook(std::function<void()> hook) {
  MutexLock lock(hook_mu_);
  op_hook_ = hook ? std::make_shared<const std::function<void()>>(std::move(hook)) : nullptr;
}

void BlockStore::RunOpHook() const {
  std::shared_ptr<const std::function<void()>> hook;
  {
    MutexLock lock(hook_mu_);
    hook = op_hook_;
  }
  if (hook) (*hook)();
}

void BlockStore::Put(const std::string& id, HashKey key, std::string data,
                     std::chrono::milliseconds ttl) {
  RunOpHook();
  MutexLock lock(mu_);
  auto it = blocks_.find(id);
  if (it != blocks_.end()) total_bytes_ -= it->second.data.size();
  StoredBlock b;
  b.key = key;
  b.data = std::move(data);
  if (ttl != std::chrono::milliseconds::zero()) {
    b.expiry = std::chrono::steady_clock::now() + ttl;
  }
  total_bytes_ += b.data.size();
  blocks_[id] = std::move(b);
}

Result<std::string> BlockStore::Get(const std::string& id) {
  RunOpHook();
  MutexLock lock(mu_);
  auto it = blocks_.find(id);
  if (it == blocks_.end()) {
    return Status::Error(ErrorCode::kNotFound, "no block " + id);
  }
  if (Expired(it->second)) {
    total_bytes_ -= it->second.data.size();
    blocks_.erase(it);
    return Status::Error(ErrorCode::kExpired, "block " + id + " TTL-invalidated");
  }
  return it->second.data;
}

bool BlockStore::Contains(const std::string& id) const {
  MutexLock lock(mu_);
  auto it = blocks_.find(id);
  return it != blocks_.end() && !Expired(it->second);
}

void BlockStore::Erase(const std::string& id) {
  MutexLock lock(mu_);
  auto it = blocks_.find(id);
  if (it == blocks_.end()) return;
  total_bytes_ -= it->second.data.size();
  blocks_.erase(it);
}

std::vector<BlockStore::BlockInfo> BlockStore::List() const {
  MutexLock lock(mu_);
  std::vector<BlockInfo> out;
  out.reserve(blocks_.size());
  for (const auto& [id, b] : blocks_) {
    if (Expired(b)) continue;
    out.push_back(BlockInfo{id, b.key, b.data.size()});
  }
  return out;
}

Bytes BlockStore::TotalBytes() const {
  MutexLock lock(mu_);
  return total_bytes_;
}

std::size_t BlockStore::Count() const {
  MutexLock lock(mu_);
  return blocks_.size();
}

std::size_t BlockStore::Sweep() {
  MutexLock lock(mu_);
  std::size_t dropped = 0;
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    if (Expired(it->second)) {
      total_bytes_ -= it->second.data.size();
      it = blocks_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

}  // namespace eclipse::dfs
