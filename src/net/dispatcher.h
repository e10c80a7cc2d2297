// Per-node message dispatcher.
//
// A worker server hosts several components (membership, DHT file system,
// cache, MapReduce worker) behind a single Transport endpoint. Each
// component claims a contiguous message-type range and registers one
// handler; the dispatcher routes by type. Ranges in use:
//
//   100-199  dht   (membership: ping, failure broadcast, join)
//   200-299  dfs   (metadata, block read/write, replication)
//   300-399  cache (peer fetch, migration)
//   400-499  mr    (task assignment, intermediate push, job control)
#pragma once

#include <map>

#include "common/mutex.h"
#include "net/transport.h"

namespace eclipse::net {

class Dispatcher {
 public:
  /// Route message types in [first, last] to `handler`.
  void Route(std::uint32_t first, std::uint32_t last, Handler handler);

  /// The Transport-facing handler; bind with
  /// `transport.Register(node, dispatcher.AsHandler())`.
  Handler AsHandler();

 private:
  Message Dispatch(NodeId from, const Message& msg);

  Mutex mu_{Rank::kDispatcher, "Dispatcher::mu_"};
  // Keyed by range end; value holds range start + handler.
  struct Entry {
    std::uint32_t first;
    Handler handler;
  };
  std::map<std::uint32_t, Entry> routes_ GUARDED_BY(mu_);
};

/// Conventional "error" response: type 0 with a Status message payload.
Message ErrorMessage(ErrorCode code, const std::string& what);

/// True if `m` is an ErrorMessage.
bool IsError(const Message& m);

/// Decode an ErrorMessage back into a Status (Internal if malformed).
Status DecodeError(const Message& m);

}  // namespace eclipse::net
