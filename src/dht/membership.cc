#include "dht/membership.h"

#include "common/log.h"
#include "common/serde.h"

namespace eclipse::dht {
namespace {

net::Message Ack() { return net::Message{msg::kAck, {}}; }

net::Message IntMessage(std::uint32_t type, int value) {
  BinaryWriter w;
  w.PutU32(static_cast<std::uint32_t>(value));
  return net::Message{type, w.Take()};
}

int DecodeInt(const net::Message& m) {
  BinaryReader r(m.payload);
  std::uint32_t v = 0;
  r.GetU32(&v);
  return static_cast<int>(v);
}

}  // namespace

MembershipAgent::MembershipAgent(int self, net::Transport& transport,
                                 net::Dispatcher& dispatcher, MembershipConfig cfg)
    : self_(self), transport_(transport), cfg_(cfg) {
  dispatcher.Route(msg::kPing, msg::kAck,
                   [this](int from, const net::Message& m) { return Handle(from, m); });
}

MembershipAgent::~MembershipAgent() { Stop(); }

void MembershipAgent::SetRing(const Ring& ring) {
  MutexLock lock(mu_);
  ring_ = ring;
}

bool MembershipAgent::Join(int seed) {
  auto resp = transport_.Call(self_, seed, net::Message{msg::kGetRing, {}});
  if (!resp.ok() || net::IsError(resp.value())) return false;

  Ring joined;
  BinaryReader r(resp.value().payload);
  std::uint32_t n = 0;
  if (!r.GetU32(&n)) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t id;
    std::uint64_t pos;
    if (!r.GetU32(&id) || !r.GetU64(&pos)) return false;
    joined.AddServerAt(static_cast<int>(id), pos);
  }
  joined.AddServer(self_);
  {
    MutexLock lock(mu_);
    ring_ = joined;
  }
  for (int member : AliveMembersExceptSelf()) {
    transport_.Call(self_, member, IntMessage(msg::kJoin, self_));
  }
  return true;
}

void MembershipAgent::Start() {
  MutexLock lock(mu_);
  if (started_) return;
  started_ = true;
  stopping_.store(false);
  heartbeat_thread_ = std::thread([this] { HeartbeatLoop(); });
}

void MembershipAgent::Stop() {
  stopping_.store(true);
  std::thread to_join;
  {
    MutexLock lock(mu_);
    if (!started_) return;
    to_join = std::move(heartbeat_thread_);
    started_ = false;
  }
  // Join outside mu_: the heartbeat loop takes mu_ for ring reads.
  if (to_join.joinable()) to_join.join();
}

void MembershipAgent::OnFailure(FailureCallback cb) {
  MutexLock lock(cb_mu_);
  failure_cbs_.push_back(std::move(cb));
}

Ring MembershipAgent::ring_view() const {
  MutexLock lock(mu_);
  return ring_;
}

std::vector<int> MembershipAgent::AliveMembersExceptSelf() const {
  std::vector<int> out;
  MutexLock lock(mu_);
  for (int id : ring_.Servers()) {
    if (id != self_) out.push_back(id);
  }
  return out;
}

net::Message MembershipAgent::Handle(int from, const net::Message& m) {
  switch (m.type) {
    case msg::kPing:
      return Ack();

    case msg::kFailed: {
      HandleFailure(DecodeInt(m), /*broadcast=*/false);
      return Ack();
    }

    case msg::kGetRing: {
      BinaryWriter w;
      MutexLock lock(mu_);
      auto positions = ring_.Positions();
      w.PutU32(static_cast<std::uint32_t>(positions.size()));
      for (const auto& [id, pos] : positions) {
        w.PutU32(static_cast<std::uint32_t>(id));
        w.PutU64(pos);
      }
      return net::Message{msg::kAck, w.Take()};
    }

    case msg::kJoin: {
      int joiner = DecodeInt(m);
      MutexLock lock(mu_);
      if (!ring_.Contains(joiner)) ring_.AddServer(joiner);
      return Ack();
    }

    default:
      (void)from;
      return net::ErrorMessage(ErrorCode::kInvalidArgument, "unknown membership message");
  }
}

void MembershipAgent::HeartbeatLoop() {
  while (!stopping_.load()) {
    std::this_thread::sleep_for(cfg_.heartbeat_interval);
    if (stopping_.load()) return;

    int succ, pred;
    {
      MutexLock lock(mu_);
      succ = ring_.SuccessorOf(self_);
      pred = ring_.PredecessorOf(self_);
    }
    for (int neighbor : {succ, pred}) {
      if (neighbor < 0 || neighbor == self_) continue;
      auto resp = transport_.Call(self_, neighbor, net::Message{msg::kPing, {}});
      bool alive = resp.ok() && !net::IsError(resp.value());
      int misses = 0;
      {
        MutexLock lock(mu_);
        if (alive) {
          miss_count_[neighbor] = 0;
          continue;
        }
        misses = ++miss_count_[neighbor];
      }
      if (misses >= cfg_.miss_threshold) {
        LOG_INFO << "server " << self_ << " declares server " << neighbor << " failed";
        HandleFailure(neighbor, /*broadcast=*/true);
      }
    }
  }
}

void MembershipAgent::HandleFailure(int failed, bool broadcast) {
  {
    MutexLock lock(mu_);
    if (!ring_.Contains(failed)) return;  // already processed
    ring_.RemoveServer(failed);
    miss_count_.erase(failed);
  }
  if (broadcast) {
    for (int member : AliveMembersExceptSelf()) {
      transport_.Call(self_, member, IntMessage(msg::kFailed, failed));
    }
  }
  std::vector<FailureCallback> cbs;
  {
    MutexLock lock(cb_mu_);
    cbs = failure_cbs_;
  }
  for (auto& cb : cbs) cb(failed);
}

}  // namespace eclipse::dht
