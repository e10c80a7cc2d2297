#include "net/frame_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <system_error>
#include <vector>

#include "common/log.h"

namespace eclipse::net {
namespace {

// A handler writing a response to a client that stopped reading should not
// pin its connection thread forever; past this the connection is presumed
// dead.
constexpr int kServerWriteTimeoutMs = 30'000;

// strerror returns a static buffer (concurrency-mt-unsafe); route through
// strerror_r, whose two signatures (GNU returns char*, POSIX returns int
// and fills the buffer) are disambiguated by overload.
inline const char* ErrnoStringImpl(char* gnu_result, const char*) {
  return gnu_result;
}
inline const char* ErrnoStringImpl(int, const char* buf) { return buf; }

bool WaitFd(int fd, short events, int timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = events;
  for (;;) {
    int r = ::poll(&p, 1, timeout_ms);
    if (r > 0) return true;   // ready (or HUP/ERR — let the read/write report it)
    if (r == 0) return false;  // timed out
    if (errno != EINTR) return false;
  }
}

// A blocking listener bound to host:port; -1 on failure. `*bound_port`
// receives the port the OS assigned when `port` is 0.
int Listen(const std::string& host, int port, int* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    LOG_ERROR << "socket() failed: " << ErrnoString(errno);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    LOG_ERROR << "bad listen host: " << host;
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 128) != 0) {
    LOG_ERROR << "bind/listen on " << host << ":" << port
              << " failed: " << ErrnoString(errno);
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

std::string ErrnoString(int err) {
  char buf[128] = "unknown error";
  return ErrnoStringImpl(strerror_r(err, buf, sizeof buf), buf);
}

bool WritevFull(int fd, struct iovec* iov, int iovcnt, int deadline_ms) {
  while (iovcnt > 0) {
    // sendmsg rather than writev: MSG_NOSIGNAL turns a peer that closed
    // mid-response into EPIPE here instead of a process-killing SIGPIPE,
    // and MSG_DONTWAIT keeps a blocking socket inside the poll bound.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!WaitFd(fd, POLLOUT, deadline_ms)) return false;
        continue;
      }
      return false;
    }
    auto n = static_cast<std::size_t>(w);
    while (iovcnt > 0 && n >= iov->iov_len) {
      n -= iov->iov_len;
      ++iov;
      --iovcnt;
    }
    if (iovcnt > 0 && n > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + n;
      iov->iov_len -= n;
    }
  }
  return true;
}

bool ReadFullTimed(int fd, void* buf, std::size_t n, int deadline_ms,
                   std::size_t* got) {
  std::size_t done = 0;
  bool ok = true;
  while (done < n) {
    ssize_t r = ::read(fd, static_cast<char*>(buf) + done, n - done);
    if (r > 0) {
      done += static_cast<std::size_t>(r);
    } else if (r == 0) {
      ok = false;  // peer closed mid-message
      break;
    } else if (errno == EINTR) {
      continue;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!WaitFd(fd, POLLIN, deadline_ms)) {
        ok = false;
        break;
      }
    } else {
      ok = false;
      break;
    }
  }
  if (got) *got = done;
  return ok;
}

FrameServer::FrameServer(std::string listen_host)
    : listen_host_(std::move(listen_host)) {}

FrameServer::~FrameServer() {
  std::vector<NodeId> nodes;
  {
    MutexLock lock(mu_);
    for (auto& [id, ep] : endpoints_) nodes.push_back(id);
  }
  for (NodeId id : nodes) RemoveEndpoint(id);
}

int FrameServer::AddEndpoint(NodeId node, Handler handler, int port) {
  if (!handler) {
    RemoveEndpoint(node);
    return -1;
  }
  int bound_port = 0;
  const int listen_fd = Listen(listen_host_, port, &bound_port);
  if (listen_fd < 0) return -1;
  auto ep = std::make_shared<Endpoint>(listen_fd, bound_port, std::move(handler));
  // Started before the endpoint is visible, so whoever removes it later
  // always finds a joinable acceptor.
  try {
    ep->acceptor = std::thread([this, raw = ep.get()] { AcceptLoop(*raw); });
  } catch (const std::system_error& e) {
    LOG_ERROR << "acceptor thread not started: " << e.what();
    ::close(listen_fd);
    return -1;
  }

  // A concurrent AddEndpoint for the same node may race us: the newcomer
  // wins the slot, the loser is stopped below.
  std::shared_ptr<Endpoint> displaced;
  {
    MutexLock lock(mu_);
    auto& slot = endpoints_[node];
    displaced = std::move(slot);
    slot = ep;
  }
  if (displaced) Stop(*displaced);
  return bound_port;
}

void FrameServer::RemoveEndpoint(NodeId node) {
  std::shared_ptr<Endpoint> ep;
  {
    MutexLock lock(mu_);
    auto it = endpoints_.find(node);
    if (it == endpoints_.end()) return;
    ep = std::move(it->second);
    endpoints_.erase(it);
  }
  Stop(*ep);
}

void FrameServer::Stop(Endpoint& ep) {
  {
    MutexLock lock(mu_);
    ep.stopping.store(true, std::memory_order_release);
    // Sever, don't close: each connection thread is the only closer of its
    // fd (see the header's fd rule). On Linux, shutdown() on the listener
    // also wakes the acceptor blocked in accept4.
    ::shutdown(ep.listen_fd, SHUT_RDWR);
    for (Conn& c : ep.conns)
      if (c.fd >= 0) ::shutdown(c.fd, SHUT_RDWR);
  }
  // Once the acceptor is joined, no connection is added to ep.conns.
  ep.acceptor.join();
  ::close(ep.listen_fd);
  std::list<Conn> conns;
  {
    MutexLock lock(mu_);
    conns.swap(ep.conns);  // list nodes keep their addresses
  }
  for (Conn& c : conns) c.thread.join();
}

int FrameServer::PortOf(NodeId node) const {
  MutexLock lock(mu_);
  auto it = endpoints_.find(node);
  return it == endpoints_.end() ? 0 : it->second->port;
}

void FrameServer::BindMetrics(MetricsRegistry& registry, const char* label) {
  MetricLabels labels{{"transport", label}};
  accepts_.store(&registry.GetCounter("net.accepted_connections", labels),
                 std::memory_order_release);
  frames_.store(&registry.GetCounter("net.frames_dispatched", labels),
                std::memory_order_release);
  threads_gauge_.store(&registry.GetGauge("net.handler_threads", labels),
                       std::memory_order_release);
  MutexLock lock(mu_);
  SetThreadsGaugeLocked();
}

void FrameServer::UnbindMetrics() {
  accepts_.store(nullptr, std::memory_order_release);
  frames_.store(nullptr, std::memory_order_release);
  threads_gauge_.store(nullptr, std::memory_order_release);
}

void FrameServer::SetThreadsGaugeLocked() {
  if (auto* g = threads_gauge_.load(std::memory_order_acquire))
    g->Set(conn_threads_);
}

void FrameServer::AcceptLoop(Endpoint& ep) {
  for (;;) {
    int fd = ::accept4(ep.listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (ep.stopping.load(std::memory_order_acquire)) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // Out of fds or buffers: back off rather than spin on the error.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    std::list<Conn> finished;
    bool served = false;
    {
      MutexLock lock(mu_);
      if (ep.stopping.load(std::memory_order_relaxed)) {
        ::close(fd);  // never registered: this thread still owns it
        return;
      }
      // Finished connections are joined below, outside the lock.
      for (auto it = ep.conns.begin(); it != ep.conns.end();) {
        auto next = std::next(it);
        if (it->done) finished.splice(finished.end(), ep.conns, it);
        it = next;
      }
      if (conn_threads_ < kMaxConnThreads) {
        Conn& conn = ep.conns.emplace_back();
        conn.fd = fd;
        // Counted before it starts: the thread may answer a request before
        // this one runs again.
        ++conn_threads_;
        SetThreadsGaugeLocked();
        if (auto* c = accepts_.load(std::memory_order_acquire)) c->Add();
        try {
          conn.thread =
              std::thread([this, &ep, &conn, fd] { ServeConn(ep, conn, fd); });
          served = true;
        } catch (const std::system_error& e) {
          LOG_WARN << "connection thread not started: " << e.what();
          ep.conns.pop_back();
          --conn_threads_;
          SetThreadsGaugeLocked();
        }
      }
    }
    // An unserved fd was never registered: this thread still owns it.
    if (!served) ::close(fd);
    for (Conn& c : finished) c.thread.join();
  }
}

void FrameServer::ServeConn(Endpoint& ep, Conn& conn, int fd) {
  try {
    ServeFrames(ep, fd);
  } catch (const std::exception& e) {
    // A frame too large to allocate, or a throwing handler: drop this
    // connection, not the process.
    LOG_WARN << "connection dropped: " << e.what();
  }
  {
    MutexLock lock(mu_);
    conn.fd = -1;  // deregistered: the stopper no longer shuts it down
    conn.done = true;
    --conn_threads_;
    SetThreadsGaugeLocked();
  }
  ::close(fd);
}

void FrameServer::ServeFrames(const Endpoint& ep, int fd) {
  for (;;) {
    // Request frame: u32 body_len | u32 type | i32 from | payload. A stop
    // wakes the read with EOF.
    unsigned char header[12];
    if (!ReadFullTimed(fd, header, sizeof header, -1)) return;
    std::uint32_t body_len;
    Message request;
    std::int32_t from;
    std::memcpy(&body_len, header, 4);
    std::memcpy(&request.type, header + 4, 4);
    std::memcpy(&from, header + 8, 4);
    if (body_len < 8 || body_len - 8 > kMaxFramePayload) return;  // corrupt
    // Payload bytes land directly in their final string — the decode path
    // allocates exactly once per request, never a staging buffer.
    request.payload.resize(body_len - 8);
    if (!request.payload.empty() &&
        !ReadFullTimed(fd, request.payload.data(), request.payload.size(), -1))
      return;
    // A frame read after the endpoint began stopping is dropped unserved.
    if (ep.stopping.load(std::memory_order_acquire)) return;
    if (auto* c = frames_.load(std::memory_order_acquire)) c->Add();
    Message response = ep.handler(from, request);

    // Response frame: u32 body_len | u32 type | payload — header on the
    // stack, payload scatter-gathered straight from the response string.
    std::uint32_t resp_len =
        static_cast<std::uint32_t>(4 + response.payload.size());
    unsigned char resp_header[8];
    std::memcpy(resp_header, &resp_len, 4);
    std::memcpy(resp_header + 4, &response.type, 4);
    iovec iov[2];
    iov[0] = {resp_header, sizeof resp_header};
    iov[1] = {response.payload.data(), response.payload.size()};
    if (!WritevFull(fd, iov, response.payload.empty() ? 1 : 2,
                    kServerWriteTimeoutMs))
      return;
  }
}

}  // namespace eclipse::net
