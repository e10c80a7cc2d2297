#include "dht/ring.h"

#include <algorithm>
#include <cassert>

namespace eclipse::dht {

void Ring::AddServer(int server, int vnodes) {
  if (vnodes < 1) vnodes = 1;
  for (int v = 0; v < vnodes; ++v) {
    std::string name = "server-" + std::to_string(server);
    if (vnodes > 1) name += '#' + std::to_string(v);
    HashKey pos = KeyOf(name);
    // In the astronomically unlikely event of a SHA-1-prefix collision,
    // probe forward deterministically.
    while (!AddServerAt(server, pos)) ++pos;
  }
}

bool Ring::AddServerAt(int server, HashKey position) {
  if (by_position_.count(position)) return false;
  by_position_[position] = server;
  by_server_[server].push_back(position);
  return true;
}

void Ring::RemoveServer(int server) {
  auto it = by_server_.find(server);
  if (it == by_server_.end()) return;
  for (HashKey pos : it->second) by_position_.erase(pos);
  by_server_.erase(it);
}

bool Ring::Contains(int server) const { return by_server_.count(server) > 0; }

std::optional<HashKey> Ring::PositionOf(int server) const {
  auto it = by_server_.find(server);
  if (it == by_server_.end() || it->second.empty()) return std::nullopt;
  return *std::min_element(it->second.begin(), it->second.end());
}

int Ring::Owner(HashKey key) const {
  if (by_position_.empty()) return -1;
  // Clockwise successor: first position >= key, wrapping to the smallest.
  auto it = by_position_.lower_bound(key);
  if (it == by_position_.end()) it = by_position_.begin();
  return it->second;
}

int Ring::SuccessorOf(int server) const {
  auto pos = PositionOf(server);
  if (!pos) return -1;
  auto it = by_position_.find(*pos);
  assert(it != by_position_.end());
  // Walk clockwise past our own vnodes to the next distinct server.
  for (std::size_t steps = 0; steps < by_position_.size(); ++steps) {
    ++it;
    if (it == by_position_.end()) it = by_position_.begin();
    if (it->second != server) return it->second;
  }
  return server;  // alone on the ring
}

int Ring::PredecessorOf(int server) const {
  auto pos = PositionOf(server);
  if (!pos) return -1;
  auto it = by_position_.find(*pos);
  assert(it != by_position_.end());
  for (std::size_t steps = 0; steps < by_position_.size(); ++steps) {
    if (it == by_position_.begin()) it = by_position_.end();
    --it;
    if (it->second != server) return it->second;
  }
  return server;
}

std::vector<int> Ring::Replicas(HashKey key, std::size_t n) const {
  std::vector<int> out;
  if (by_position_.empty() || n == 0) return out;

  auto push_unique = [&out](int s) {
    for (int have : out) {
      if (have == s) return false;
    }
    out.push_back(s);
    return true;
  };

  // Owning position.
  auto owner_it = by_position_.lower_bound(key);
  if (owner_it == by_position_.end()) owner_it = by_position_.begin();
  push_unique(owner_it->second);

  auto step_cw = [this](std::map<HashKey, int>::const_iterator it) {
    ++it;
    if (it == by_position_.end()) it = by_position_.begin();
    return it;
  };
  auto step_ccw = [this](std::map<HashKey, int>::const_iterator it) {
    if (it == by_position_.begin()) it = by_position_.end();
    --it;
    return it;
  };

  // Successor server of the owning position (skipping the owner's vnodes),
  // then the predecessor server, then further successors — the paper's
  // owner / successor / predecessor order.
  const std::size_t total = by_server_.size();
  auto it = owner_it;
  for (std::size_t steps = 0; steps < by_position_.size() && out.size() < n &&
                              out.size() < std::min(total, std::size_t{2});
       ++steps) {
    it = step_cw(it);
    push_unique(it->second);
  }
  it = owner_it;
  for (std::size_t steps = 0; steps < by_position_.size() && out.size() < n &&
                              out.size() < std::min(total, std::size_t{3});
       ++steps) {
    it = step_ccw(it);
    push_unique(it->second);
  }
  // Extend clockwise for larger n.
  it = owner_it;
  for (std::size_t steps = 0; steps < by_position_.size() && out.size() < n &&
                              out.size() < total;
       ++steps) {
    it = step_cw(it);
    push_unique(it->second);
  }
  if (out.size() > n) out.resize(n);
  return out;
}

RangeTable Ring::MakeRangeTable() const {
  return RangeTable::FromPositions(Positions());
}

std::vector<std::pair<int, HashKey>> Ring::Positions() const {
  std::vector<std::pair<int, HashKey>> out;
  out.reserve(by_position_.size());
  for (const auto& [pos, id] : by_position_) out.emplace_back(id, pos);
  return out;
}

std::vector<int> Ring::Servers() const {
  std::vector<std::pair<HashKey, int>> firsts;
  firsts.reserve(by_server_.size());
  for (const auto& [id, positions] : by_server_) {
    firsts.emplace_back(*std::min_element(positions.begin(), positions.end()), id);
  }
  std::sort(firsts.begin(), firsts.end());
  std::vector<int> out;
  out.reserve(firsts.size());
  for (const auto& [pos, id] : firsts) out.push_back(id);
  return out;
}

double Ring::OwnedFraction(int server) const {
  if (by_position_.empty() || !Contains(server)) return 0.0;
  if (by_server_.size() == 1) return 1.0;
  // Sum the widths of ranges (pred_position, position] over this server's
  // positions.
  long double owned = 0.0L;
  for (auto it = by_position_.begin(); it != by_position_.end(); ++it) {
    if (it->second != server) continue;
    auto pred = it == by_position_.begin() ? std::prev(by_position_.end()) : std::prev(it);
    owned += static_cast<long double>(RingDistance(pred->first, it->first));
  }
  return static_cast<double>(owned / 18446744073709551616.0L);
}

}  // namespace eclipse::dht
