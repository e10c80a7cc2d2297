#include "net/bootstrap.h"

#include "common/serde.h"

namespace eclipse::net::deploy {

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
  return Message{msg::kWelcome, w.Take()};
}

bool DecodeWelcome(const Message& m, Welcome* out) {
  if (m.type != msg::kWelcome) return false;
  BinaryReader r(m.payload);
  std::uint32_t node;
  if (!r.GetU32(&node) || !r.GetU64(&out->cache_capacity)) return false;
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
  return Message{msg::kHeartbeat, w.Take()};
}

bool DecodeHeartbeat(const Message& m, Heartbeat* out) {
  if (m.type != msg::kHeartbeat) return false;
  BinaryReader r(m.payload);
  std::uint32_t node;
  if (!r.GetU32(&node)) return false;
  out->node = static_cast<std::int32_t>(node);
  return r.AtEnd();
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
