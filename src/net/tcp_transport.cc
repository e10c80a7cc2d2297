#include "net/tcp_transport.h"

#include <sys/uio.h>

#include <algorithm>
#include <array>
#include <cstring>

#include "net/retry.h"

namespace eclipse::net {
namespace {

// Pipelined windows are bounded so an un-acknowledged burst always fits in
// the kernel's socket buffers: the client must be able to finish writing a
// window even if the server (which serves one frame at a time per
// connection) has not drained any of it yet, otherwise two
// one-frame-at-a-time peers could deadlock with both buffers full.
constexpr std::size_t kWindowBytes = 64 * 1024;
constexpr std::size_t kWindowRequests = 64;
// writev chunk bound, comfortably under any IOV_MAX.
constexpr std::size_t kMaxIovPerWrite = 512;

int TimeoutMs(const Deadline& deadline) {
  if (deadline.never()) return -1;
  long ms = deadline.remaining().count() / 1000 + 1;
  return static_cast<int>(std::min(ms, 3'600'000L));
}

void EncodeRequestHeader(unsigned char* hdr, const Message& request,
                         NodeId from) {
  std::uint32_t body_len =
      static_cast<std::uint32_t>(8 + request.payload.size());
  std::int32_t from32 = from;
  std::memcpy(hdr, &body_len, 4);
  std::memcpy(hdr + 4, &request.type, 4);
  std::memcpy(hdr + 8, &from32, 4);
}

Status Unavailable(std::string what) {
  return Status::Error(ErrorCode::kUnavailable, std::move(what));
}

Status DeadlineError(NodeId to) {
  return Status::Error(ErrorCode::kDeadlineExceeded,
                       "deadline expired awaiting node " + std::to_string(to));
}

// Read one response frame (u32 body_len | u32 type | payload). `*got`
// accumulates bytes that arrived, successful or not — the stale-reuse retry
// hinges on "did the peer ever answer at all".
Result<Message> ReadResponse(int fd, int timeout_ms, std::size_t* got) {
  unsigned char hdr[8];
  std::size_t n = 0;
  bool ok = ReadFullTimed(fd, hdr, sizeof hdr, timeout_ms, &n);
  *got += n;
  if (!ok) return Unavailable("short response");
  std::uint32_t resp_len;
  Message resp;
  std::memcpy(&resp_len, hdr, 4);
  std::memcpy(&resp.type, hdr + 4, 4);
  if (resp_len < 4 || resp_len - 4 > kMaxFramePayload)
    return Unavailable("corrupt response frame");
  resp.payload.resize(resp_len - 4);
  if (!resp.payload.empty()) {
    ok = ReadFullTimed(fd, resp.payload.data(), resp.payload.size(),
                       timeout_ms, &n);
    *got += n;
    if (!ok) return Unavailable("truncated response");
  }
  return resp;
}

}  // namespace

TcpTransport::TcpTransport() : TcpTransport(Options{}) {}

TcpTransport::TcpTransport(Options opts)
    : opts_(std::move(opts)),
      server_(opts_.listen_host),
      pool_(opts_.max_idle_conns_per_peer) {}

// Members tear down in reverse order: the pool closes client fds first,
// then the server stops every endpoint and joins its threads.
TcpTransport::~TcpTransport() = default;

void TcpTransport::Register(NodeId node, Handler handler) {
  RegisterAt(node, std::move(handler), 0);
}

int TcpTransport::RegisterAt(NodeId node, Handler handler, int port) {
  if (!handler) {
    server_.RemoveEndpoint(node);
    RemovePeer(node);
    return -1;
  }
  return server_.AddEndpoint(node, std::move(handler), port);
}

void TcpTransport::AddPeer(NodeId node, const std::string& host, int port) {
  MutexLock lock(mu_);
  peers_[node] = Addr{host, port};
}

void TcpTransport::RemovePeer(NodeId node) {
  MutexLock lock(mu_);
  peers_.erase(node);
}

int TcpTransport::PortOf(NodeId node) const {
  int port = server_.PortOf(node);
  if (port > 0) return port;
  MutexLock lock(mu_);
  auto it = peers_.find(node);
  return it == peers_.end() ? 0 : it->second.port;
}

void TcpTransport::BindTransportMetrics(MetricsRegistry& registry,
                                        const char* label) {
  server_.BindMetrics(registry, label);
  pool_.BindMetrics(registry, label);
}

bool TcpTransport::Resolve(NodeId to, Addr* out) const {
  int port = server_.PortOf(to);
  if (port > 0) {
    // A wildcard bind is not a connectable address; reach self via loopback.
    out->host = opts_.listen_host == "0.0.0.0" ? "127.0.0.1" : opts_.listen_host;
    out->port = port;
    return true;
  }
  MutexLock lock(mu_);
  auto it = peers_.find(to);
  if (it == peers_.end()) return false;
  *out = it->second;
  return true;
}

Result<Message> TcpTransport::Call(NodeId from, NodeId to,
                                   const Message& request) {
  Result<Message> response = CallImpl(from, to, request);
  AccountCall(request.payload.size(), response);
  return response;
}

Result<Message> TcpTransport::CallImpl(NodeId from, NodeId to,
                                       const Message& request) {
  const Deadline deadline = CurrentDeadline();
  if (deadline.expired()) {
    return Status::Error(ErrorCode::kDeadlineExceeded,
                         "deadline expired before call to node " +
                             std::to_string(to));
  }
  Addr addr;
  if (!Resolve(to, &addr)) {
    return Unavailable("node " + std::to_string(to) + " not listening");
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    int timeout_ms = TimeoutMs(deadline);
    // The stale retry connects afresh: once the peer has re-registered,
    // every connection stashed for it is as dead as the one that failed.
    ConnPool::Lease lease =
        attempt == 0 ? pool_.Acquire(addr.host, addr.port, timeout_ms)
                     : pool_.Connect(addr.host, addr.port, timeout_ms);
    if (lease.fd < 0) {
      if (lease.timed_out || deadline.expired()) return DeadlineError(to);
      return Unavailable("connect to node " + std::to_string(to) + " failed");
    }
    unsigned char hdr[12];
    EncodeRequestHeader(hdr, request, from);
    iovec iov[2];
    iov[0] = {hdr, sizeof hdr};
    iov[1] = {const_cast<char*>(request.payload.data()),
              request.payload.size()};
    std::size_t got = 0;
    Result<Message> resp =
        WritevFull(lease.fd, iov, request.payload.empty() ? 1 : 2, timeout_ms)
            ? ReadResponse(lease.fd, timeout_ms, &got)
            : Result<Message>(Unavailable("write failed"));
    if (resp.ok()) {
      pool_.Release(addr.host, addr.port, lease.fd);
      return resp;
    }
    pool_.Discard(lease.fd);
    if (deadline.expired()) return DeadlineError(to);
    // A pooled connection the peer severed while idle fails before any
    // response byte; retry exactly once on a fresh socket.
    if (lease.reused && got == 0 && attempt == 0) {
      pool_.CountStaleRetry();
      continue;
    }
    return resp;
  }
  return Unavailable("unreachable");  // loop always returns
}

std::vector<Result<Message>> TcpTransport::CallBatch(
    NodeId from, NodeId to, const std::vector<Message>& requests) {
  std::vector<Result<Message>> results;
  if (requests.empty()) return results;
  if (requests.size() == 1) {
    results.push_back(Call(from, to, requests[0]));
    return results;
  }

  const Deadline deadline = CurrentDeadline();
  Addr addr;
  Status upfront = Status::Ok();
  if (deadline.expired()) {
    upfront = Status::Error(ErrorCode::kDeadlineExceeded,
                            "deadline expired before batch to node " +
                                std::to_string(to));
  } else if (!Resolve(to, &addr)) {
    upfront = Unavailable("node " + std::to_string(to) + " not listening");
  }
  if (!upfront.ok()) {
    results.assign(requests.size(), Result<Message>(upfront));
    for (const Message& r : requests) AccountCall(r.payload.size(), results[0]);
    return results;
  }

  for (int attempt = 0; attempt < 2; ++attempt) {
    results.assign(requests.size(),
                   Result<Message>(Unavailable("batch not attempted")));
    int timeout_ms = TimeoutMs(deadline);
    ConnPool::Lease lease =
        attempt == 0 ? pool_.Acquire(addr.host, addr.port, timeout_ms)
                     : pool_.Connect(addr.host, addr.port, timeout_ms);
    if (lease.fd < 0) {
      Status s = (lease.timed_out || deadline.expired())
                     ? DeadlineError(to)
                     : Unavailable("connect to node " + std::to_string(to) +
                                   " failed");
      results.assign(requests.size(), Result<Message>(s));
      break;
    }
    bool any_bytes = false;
    bool ok = true;
    std::size_t i = 0;
    while (i < requests.size() && ok) {
      // Grow the window until the byte or count bound trips (always ≥ 1).
      std::size_t end = i, bytes = 0;
      while (end < requests.size() && end - i < kWindowRequests &&
             (end == i ||
              bytes + requests[end].payload.size() + 12 <= kWindowBytes)) {
        bytes += requests[end].payload.size() + 12;
        ++end;
      }
      ok = RunWindow(lease.fd, from, requests, i, end, timeout_ms, &results,
                     &any_bytes);
      i = end;
    }
    if (ok) {
      pool_.Release(addr.host, addr.port, lease.fd);
      break;
    }
    pool_.Discard(lease.fd);
    for (std::size_t j = i; j < requests.size(); ++j)
      results[j] = Unavailable("connection failed mid-batch");
    if (lease.reused && !any_bytes && attempt == 0 && !deadline.expired()) {
      pool_.CountStaleRetry();
      continue;
    }
    break;
  }

  for (std::size_t j = 0; j < requests.size(); ++j)
    AccountCall(requests[j].payload.size(), results[j]);
  return results;
}

bool TcpTransport::RunWindow(int fd, NodeId from,
                             const std::vector<Message>& requests,
                             std::size_t begin, std::size_t end,
                             int timeout_ms,
                             std::vector<Result<Message>>* results,
                             bool* any_bytes) {
  std::vector<std::array<unsigned char, 12>> headers(end - begin);
  std::vector<iovec> iov;
  iov.reserve(2 * (end - begin));
  for (std::size_t i = begin; i < end; ++i) {
    EncodeRequestHeader(headers[i - begin].data(), requests[i], from);
    iov.push_back({headers[i - begin].data(), 12});
    if (!requests[i].payload.empty()) {
      iov.push_back({const_cast<char*>(requests[i].payload.data()),
                     requests[i].payload.size()});
    }
  }
  std::size_t off = 0;
  bool sent = true;
  while (sent && off < iov.size()) {
    int cnt = static_cast<int>(std::min(kMaxIovPerWrite, iov.size() - off));
    sent = WritevFull(fd, iov.data() + off, cnt, timeout_ms);
    off += static_cast<std::size_t>(cnt);
  }
  if (!sent) {
    for (std::size_t i = begin; i < end; ++i)
      (*results)[i] = Unavailable("write failed");
    return false;
  }
  for (std::size_t i = begin; i < end; ++i) {
    std::size_t got = 0;
    Result<Message> resp = ReadResponse(fd, timeout_ms, &got);
    if (got > 0) *any_bytes = true;
    bool failed = !resp.ok();
    (*results)[i] = std::move(resp);
    if (failed) {
      for (std::size_t j = i + 1; j < end; ++j)
        (*results)[j] = Unavailable("connection failed mid-batch");
      return false;
    }
  }
  return true;
}

}  // namespace eclipse::net
