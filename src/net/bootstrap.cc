#include "net/bootstrap.h"

#include "common/serde.h"

namespace eclipse::net::deploy {
namespace {

void PutPeers(BinaryWriter& w, const std::vector<PeerEntry>& peers) {
  w.PutU32(static_cast<std::uint32_t>(peers.size()));
  for (const PeerEntry& p : peers) {
    w.PutU32(static_cast<std::uint32_t>(p.node));
    w.PutString(p.host);
    w.PutU32(static_cast<std::uint32_t>(p.port));
  }
}

bool GetPeers(BinaryReader& r, std::vector<PeerEntry>* peers) {
  std::uint32_t n;
  if (!r.GetU32(&n)) return false;
  peers->resize(n);
  for (PeerEntry& p : *peers) {
    std::uint32_t node, port;
    if (!r.GetU32(&node) || !r.GetString(&p.host) || !r.GetU32(&port))
      return false;
    p.node = static_cast<std::int32_t>(node);
    p.port = static_cast<std::int32_t>(port);
  }
  return true;
}

void PutRing(BinaryWriter& w, const std::vector<RingPosition>& ring) {
  w.PutU32(static_cast<std::uint32_t>(ring.size()));
  for (const RingPosition& rp : ring) {
    w.PutU32(static_cast<std::uint32_t>(rp.server));
    w.PutU64(rp.position);
  }
}

bool GetRing(BinaryReader& r, std::vector<RingPosition>* ring) {
  std::uint32_t n;
  if (!r.GetU32(&n)) return false;
  ring->resize(n);
  for (RingPosition& rp : *ring) {
    std::uint32_t server;
    if (!r.GetU32(&server) || !r.GetU64(&rp.position)) return false;
    rp.server = static_cast<std::int32_t>(server);
  }
  return true;
}

}  // namespace

Message EncodeHello(const Hello& h) {
  BinaryWriter w;
  w.PutU32(h.magic);
  w.PutU32(h.version);
  w.PutU32(static_cast<std::uint32_t>(h.desired_node));
  w.PutString(h.advertise_host);
  return Message{msg::kHello, w.Take()};
}

bool DecodeHello(const Message& m, Hello* out) {
  if (m.type != msg::kHello) return false;
  BinaryReader r(m.payload);
  std::uint32_t node;
  if (!r.GetU32(&out->magic) || !r.GetU32(&out->version) || !r.GetU32(&node) ||
      !r.GetString(&out->advertise_host))
    return false;
  out->desired_node = static_cast<std::int32_t>(node);
  return r.AtEnd();
}

Message EncodeWelcome(const Welcome& welcome) {
  BinaryWriter w;
  w.PutU32(static_cast<std::uint32_t>(welcome.node));
  w.PutU64(welcome.cache_capacity);
  w.PutU32(welcome.replication);
  w.PutU32(welcome.vnodes);
  w.PutU64(welcome.scheduler_epoch);
  PutRing(w, welcome.ring);
  PutPeers(w, welcome.peers);
  return Message{msg::kWelcome, w.Take()};
}

bool DecodeWelcome(const Message& m, Welcome* out) {
  if (m.type != msg::kWelcome) return false;
  BinaryReader r(m.payload);
  std::uint32_t node;
  if (!r.GetU32(&node) || !r.GetU64(&out->cache_capacity) ||
      !r.GetU32(&out->replication) || !r.GetU32(&out->vnodes) ||
      !r.GetU64(&out->scheduler_epoch) ||
      !GetRing(r, &out->ring) || !GetPeers(r, &out->peers))
    return false;
  out->node = static_cast<std::int32_t>(node);
  return r.AtEnd();
}

Message EncodeReject(const Reject& reject) {
  BinaryWriter w;
  w.PutString(reject.reason);
  return Message{msg::kReject, w.Take()};
}

bool DecodeReject(const Message& m, Reject* out) {
  if (m.type != msg::kReject) return false;
  BinaryReader r(m.payload);
  return r.GetString(&out->reason) && r.AtEnd();
}

Message EncodeActivate(const Activate& a) {
  BinaryWriter w;
  w.PutU32(static_cast<std::uint32_t>(a.node));
  w.PutString(a.host);
  w.PutU32(static_cast<std::uint32_t>(a.port));
  return Message{msg::kActivate, w.Take()};
}

bool DecodeActivate(const Message& m, Activate* out) {
  if (m.type != msg::kActivate) return false;
  BinaryReader r(m.payload);
  std::uint32_t node, port;
  if (!r.GetU32(&node) || !r.GetString(&out->host) || !r.GetU32(&port))
    return false;
  out->node = static_cast<std::int32_t>(node);
  out->port = static_cast<std::int32_t>(port);
  return r.AtEnd();
}

Message EncodeHeartbeat(const Heartbeat& h) {
  BinaryWriter w;
  w.PutU32(static_cast<std::uint32_t>(h.node));
  w.PutU64(h.seq);
  return Message{msg::kHeartbeat, w.Take()};
}

bool DecodeHeartbeat(const Message& m, Heartbeat* out) {
  if (m.type != msg::kHeartbeat) return false;
  BinaryReader r(m.payload);
  std::uint32_t node;
  if (!r.GetU32(&node) || !r.GetU64(&out->seq)) return false;
  out->node = static_cast<std::int32_t>(node);
  return r.AtEnd();
}

Message EncodeRingUpdate(const RingUpdate& ru) {
  BinaryWriter w;
  w.PutU64(ru.scheduler_epoch);
  PutRing(w, ru.ring);
  return Message{msg::kRingUpdate, w.Take()};
}

bool DecodeRingUpdate(const Message& m, RingUpdate* out) {
  if (m.type != msg::kRingUpdate) return false;
  BinaryReader r(m.payload);
  return r.GetU64(&out->scheduler_epoch) && GetRing(r, &out->ring) && r.AtEnd();
}

Message EncodePeerUpdate(const PeerUpdate& pu) {
  BinaryWriter w;
  PutPeers(w, pu.peers);
  return Message{msg::kPeerUpdate, w.Take()};
}

bool DecodePeerUpdate(const Message& m, PeerUpdate* out) {
  if (m.type != msg::kPeerUpdate) return false;
  BinaryReader r(m.payload);
  return GetPeers(r, &out->peers) && r.AtEnd();
}

Message EncodeDiskDelay(const DiskDelay& d) {
  BinaryWriter w;
  w.PutI64(d.delay_us);
  return Message{msg::kSetDiskDelay, w.Take()};
}

bool DecodeDiskDelay(const Message& m, DiskDelay* out) {
  if (m.type != msg::kSetDiskDelay) return false;
  BinaryReader r(m.payload);
  return r.GetI64(&out->delay_us) && r.AtEnd();
}

}  // namespace eclipse::net::deploy
