// Decentralized membership: neighbor heartbeats, failure detection and
// propagation, and joins.
//
// Paper §II-A: "Each server exchanges heartbeat messages with direct
// neighbors to detect server failures, and the resource manager and job
// scheduler are notified when a server failure is detected."
//
// The paper's election of a new resource manager or scheduler (§II) is not
// reproduced: both roles live in the driver (emulation) or the coordinator
// process (deployment), never on a worker that can fail (DESIGN.md).
//
// Every emulated worker server owns one MembershipAgent. Agents exchange
// real messages through the node's Transport:
//   kPing        heartbeat to ring neighbors
//   kFailed      failure propagation broadcast by the detector
//   kGetRing     membership snapshot for joining nodes
//   kJoin        join announcement broadcast
// Types 102 and 103 (an election token and its winner) are retired.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "dht/ring.h"
#include "net/dispatcher.h"

namespace eclipse::dht {

namespace msg {
inline constexpr std::uint32_t kPing = 100;
inline constexpr std::uint32_t kFailed = 101;
inline constexpr std::uint32_t kGetRing = 104;
inline constexpr std::uint32_t kJoin = 105;
inline constexpr std::uint32_t kAck = 199;
}  // namespace msg

struct MembershipConfig {
  std::chrono::milliseconds heartbeat_interval{25};
  int miss_threshold = 3;  // consecutive failed pings before declaring death
};

class MembershipAgent {
 public:
  using FailureCallback = std::function<void(int failed_server)>;

  MembershipAgent(int self, net::Transport& transport, net::Dispatcher& dispatcher,
                  MembershipConfig cfg = {});
  ~MembershipAgent();

  MembershipAgent(const MembershipAgent&) = delete;
  MembershipAgent& operator=(const MembershipAgent&) = delete;

  /// Install the initial membership view (bootstrap; all nodes get the same).
  void SetRing(const Ring& ring);

  /// Join an existing cluster through `seed`: fetch its ring snapshot, add
  /// ourselves, and announce to every member. Returns false if the seed is
  /// unreachable.
  bool Join(int seed);

  /// Begin heartbeating ring neighbors.
  void Start();

  /// Stop the heartbeat thread (idempotent; also called by the destructor).
  void Stop();

  /// Callback fired (once per failed server, on the detecting node and on
  /// every node that learns of it) after the ring view is updated.
  void OnFailure(FailureCallback cb);

  /// Snapshot of this agent's current ring view.
  Ring ring_view() const;

  int self() const { return self_; }

 private:
  net::Message Handle(int from, const net::Message& m);
  void HeartbeatLoop();
  void HandleFailure(int failed, bool broadcast);
  std::vector<int> AliveMembersExceptSelf() const;

  const int self_;
  net::Transport& transport_;
  MembershipConfig cfg_;

  // Lock hierarchy: mu_ (ring state) and cb_mu_ (failure callbacks) are leaf
  // locks — no transport call or callback runs while either is held.
  mutable Mutex mu_{Rank::kMembership, "MembershipAgent::mu_"};
  Ring ring_ GUARDED_BY(mu_);
  std::unordered_map<int, int> miss_count_ GUARDED_BY(mu_);

  std::atomic<bool> stopping_{false};
  // Lifecycle state: Start/Stop may race (e.g. a stress test stopping an
  // agent while another thread starts it); both go through mu_. The thread
  // handle is moved out under the lock and joined outside it, so the
  // heartbeat loop (which takes mu_ briefly) can always make progress.
  std::thread heartbeat_thread_ GUARDED_BY(mu_);
  bool started_ GUARDED_BY(mu_) = false;

  Mutex cb_mu_{Rank::kMembershipCb, "MembershipAgent::cb_mu_"};
  std::vector<FailureCallback> failure_cbs_ GUARDED_BY(cb_mu_);
};

}  // namespace eclipse::dht
