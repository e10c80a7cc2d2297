// Wire protocol for multi-process deployment bootstrap (docs/deployment.md).
//
// Message-type range 500-599 (the deploy band; dht=100s, dfs=200s,
// cache=300s). Two conversations use it:
//
//  * Worker → coordinator, on the coordinator's bootstrap endpoint:
//      kHello      magic + protocol version + desired node id; answered by
//                  kWelcome (assigned id, cache capacity) or kReject (bad
//                  magic, version mismatch, duplicate id).
//      kActivate   the worker bound its data listener: node id + host:port.
//                  The coordinator installs the peer route and, once every
//                  expected worker is active, lets the cluster build.
//      kHeartbeat  liveness beacon; a worker missing enough consecutive
//                  beats is declared failed (same policy as the in-process
//                  membership agents).
//
//  * Coordinator → worker, on the worker's data endpoint (the dispatcher
//    routes 500-599 to the worker host's control handler):
//      kSetDiskDelay  slow-disk fault injection for the worker's BlockStore
//      kShutdown      drain and exit
//
// Types 510 and 511 (a pushed ring and peer directory, which no worker
// read) are retired.
//
// This header is serde + constants only — the coordinator-side state machine
// lives in mr/deployment.h, the worker-side one in mr/worker_host.h.
#pragma once

#include <cstdint>
#include <string>

#include "net/transport.h"

namespace eclipse::net::deploy {

/// First field of every kHello; a non-Eclipse client knocking on the
/// bootstrap port is rejected before any state is touched.
inline constexpr std::uint32_t kProtocolMagic = 0x45'43'4C'50;  // "ECLP"

/// Bumped on any wire-format change. A worker and coordinator from
/// different builds refuse to pair (kReject) instead of corrupting state.
inline constexpr std::uint32_t kProtocolVersion = 5;

/// Well-known node id of the coordinator's bootstrap endpoint — outside the
/// worker id space (workers are 0..N-1; the external DFS client is
/// 1'000'000). Workers dial it with AddPeer(kCoordinatorNode, host, port).
inline constexpr NodeId kCoordinatorNode = 2'000'000;

namespace msg {
inline constexpr std::uint32_t kHello = 500;
inline constexpr std::uint32_t kActivate = 501;
inline constexpr std::uint32_t kHeartbeat = 502;
inline constexpr std::uint32_t kSetDiskDelay = 512;
inline constexpr std::uint32_t kShutdown = 513;
inline constexpr std::uint32_t kWelcome = 580;
inline constexpr std::uint32_t kReject = 581;
inline constexpr std::uint32_t kOk = 599;
inline constexpr std::uint32_t kFirst = 500;
inline constexpr std::uint32_t kLast = 599;
}  // namespace msg

struct Hello {
  std::uint32_t magic = kProtocolMagic;
  std::uint32_t version = kProtocolVersion;
  /// Worker's requested node id, or -1 for "assign me one".
  std::int32_t desired_node = -1;
  /// Host other processes should dial this worker at.
  std::string advertise_host;
};

struct Welcome {
  std::int32_t node = -1;
  /// The worker's cache slice, dictated by the coordinator so emulation and
  /// deployment run the same configuration.
  std::uint64_t cache_capacity = 0;
};

struct Reject {
  std::string reason;
};

struct Activate {
  std::int32_t node = -1;
  std::string host;
  std::int32_t port = 0;
};

struct Heartbeat {
  std::int32_t node = -1;
};

struct DiskDelay {
  std::int64_t delay_us = 0;
};

Message EncodeHello(const Hello& h);
bool DecodeHello(const Message& m, Hello* out);

Message EncodeWelcome(const Welcome& w);
bool DecodeWelcome(const Message& m, Welcome* out);

Message EncodeReject(const Reject& r);
bool DecodeReject(const Message& m, Reject* out);

Message EncodeActivate(const Activate& a);
bool DecodeActivate(const Message& m, Activate* out);

Message EncodeHeartbeat(const Heartbeat& h);
bool DecodeHeartbeat(const Message& m, Heartbeat* out);

Message EncodeDiskDelay(const DiskDelay& d);
bool DecodeDiskDelay(const Message& m, DiskDelay* out);

inline Message EncodeShutdown() { return Message{msg::kShutdown, {}}; }
inline Message EncodeOk() { return Message{msg::kOk, {}}; }

}  // namespace eclipse::net::deploy
