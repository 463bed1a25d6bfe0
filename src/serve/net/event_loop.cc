#include "serve/net/event_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/trace.h"

namespace ptucker {

namespace {

[[noreturn]] void ThrowErrno(const std::string& what) {
  throw std::runtime_error("serve-net: " + what + ": " +
                           std::strerror(errno));
}

void AddToEpoll(int epoll_fd, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ThrowErrno("epoll_ctl(ADD)");
  }
}

}  // namespace

int CreateListenSocket(int* port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) ThrowErrno("socket");
  const int one = 1;
  // SO_REUSEPORT is the loop-sharding mechanism: every loop thread binds
  // its own listener to the same port and the kernel spreads incoming
  // connections across them — no shared accept lock, no handoff.
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    ::close(fd);
    ThrowErrno("setsockopt(SO_REUSEADDR|SO_REUSEPORT)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(*port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    ThrowErrno("bind to port " + std::to_string(*port));
  }
  if (::listen(fd, backlog) != 0) {
    ::close(fd);
    ThrowErrno("listen");
  }
  if (*port == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      ::close(fd);
      ThrowErrno("getsockname");
    }
    *port = ntohs(bound.sin_port);
  }
  return fd;
}

EventLoop::EventLoop(int listen_fd, BatchCoalescer* coalescer,
                     std::uint64_t id_base, const Options& options,
                     const ServeNetMetrics* metrics)
    : listen_fd_(listen_fd),
      coalescer_(coalescer),
      options_(options),
      metrics_(metrics != nullptr ? *metrics : ServeNetMetrics::Global()),
      next_id_(id_base + 1) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    ::close(listen_fd_);
    ThrowErrno("epoll_create1");
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    ::close(listen_fd_);
    ThrowErrno("eventfd");
  }
  AddToEpoll(epoll_fd_, listen_fd_, EPOLLIN);
  AddToEpoll(epoll_fd_, wake_fd_, EPOLLIN);
}

EventLoop::~EventLoop() {
  // Run() closes the connections and the listener on exit; the epoll and
  // wake fds stay open until here so a late PostReply from a draining
  // worker can never write into a recycled descriptor.
  for (auto& entry : conns_) ::close(entry.second->fd);
  if (!listen_closed_) ::close(listen_fd_);
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  Wake();
}

void EventLoop::Wake() {
  const std::uint64_t one = 1;
  // A full eventfd counter (EAGAIN) already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::PostReply(std::uint64_t connection_id,
                          std::vector<std::uint8_t> frame) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.emplace_back(connection_id, std::move(frame));
  }
  Wake();
}

void EventLoop::NotifyQueueSpace() {
  queue_space_.store(true, std::memory_order_release);
  Wake();
}

void EventLoop::Run() {
  epoll_event events[64];
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, WaitTimeoutMs());
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // A parked request whose overload deadline passed while we waited
    // (n may be 0 — the timeout itself — or > 0) is shed now, before the
    // event batch, so a flood of traffic cannot starve the deadline.
    ShedExpiredParked();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t ev = events[i].events;
      if (fd == listen_fd_) {
        AcceptNewConnections();
        continue;
      }
      if (fd == wake_fd_) {
        std::uint64_t ticks = 0;
        while (::read(wake_fd_, &ticks, sizeof(ticks)) > 0) {
        }
        DrainPostedReplies();
        if (queue_space_.exchange(false, std::memory_order_acq_rel)) {
          ResumeStalledReads();
        }
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      Connection* conn = it->second.get();
      if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConnection(conn);
        continue;
      }
      if ((ev & EPOLLIN) != 0) {
        HandleReadable(conn);
        if (conns_.find(fd) == conns_.end()) continue;
      }
      if ((ev & EPOLLOUT) != 0) HandleWritable(conn);
    }
    // Descriptors are recycled only after the whole event batch is
    // dispatched, so a stale event can never hit a freshly accepted
    // connection that reused the number.
    for (const int dead : deferred_close_) ::close(dead);
    deferred_close_.clear();
  }
  // Shutdown: tear down every connection and stop accepting.
  for (auto& entry : conns_) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, entry.first, nullptr);
    ::close(entry.second->fd);
  }
  conns_.clear();
  by_id_.clear();
  for (const int dead : deferred_close_) ::close(dead);
  deferred_close_.clear();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  ::close(listen_fd_);
  listen_closed_ = true;
}

void EventLoop::AcceptNewConnections() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: drained; anything else: retry on the next event
    }
    // Batching happens in the coalescer, not in the kernel: replies go
    // out the moment they are flushed.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_id_++;
    conn->interest = EPOLLIN;
    AddToEpoll(epoll_fd_, fd, EPOLLIN);
    by_id_[conn->id] = conn.get();
    conns_[fd] = std::move(conn);
    if (metrics_.connections_total != nullptr) {
      metrics_.connections_total->Increment();
    }
  }
}

void EventLoop::HandleReadable(Connection* conn) {
  if (conn->reads_paused || conn->closing) return;
  std::uint8_t buf[65536];
  while (true) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      if (conn->inbuf.size() + static_cast<std::size_t>(n) >
          options_.max_inbuf) {
        FailConnection(conn, Opcode::kPing, 0,
                       "read buffer cap exceeded without a complete frame");
        break;
      }
      conn->inbuf.insert(conn->inbuf.end(), buf, buf + n);
      continue;
    }
    if (n == 0) {
      CloseConnection(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn);
    return;
  }
  ParseInput(conn);
}

void EventLoop::ParseInput(Connection* conn) {
  std::size_t pos = 0;
  while (!conn->closing) {
    if (conn->has_deferred) {
      if (!coalescer_->TryPush(std::move(conn->deferred))) {
        conn->reads_paused = true;
        break;
      }
      conn->has_deferred = false;
    }
    WireFrame frame;
    std::size_t consumed = 0;
    std::string error;
    const DecodeResult result =
        DecodeFrame(conn->inbuf.data() + pos, conn->inbuf.size() - pos,
                    &frame, &consumed, &error);
    if (result == DecodeResult::kNeedMore) break;
    if (result == DecodeResult::kError) {
      // Byte sync is gone — one specific final error, then close. The
      // request id field cannot be trusted, so the reply carries id 0.
      FailConnection(conn, Opcode::kPing, 0, error);
      break;
    }
    pos += consumed;
    if (!HandleFrame(conn, std::move(frame))) break;  // backpressure stall
  }
  if (pos > 0) {
    conn->inbuf.erase(conn->inbuf.begin(),
                      conn->inbuf.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  UpdateInterest(conn);
}

bool EventLoop::HandleFrame(Connection* conn, WireFrame&& frame) {
  if (metrics_.requests_total != nullptr) metrics_.requests_total->Increment();
  if (frame.status != WireStatus::kOk) {
    FailConnection(conn, frame.opcode, frame.request_id,
                   "request status byte must be zero");
    return true;  // closing is set; the parse loop exits on it
  }
  switch (frame.opcode) {
    case Opcode::kPing:
      // Control frames are answered on the loop thread — a liveness
      // probe must not queue behind a batch window.
      QueueReply(conn, EncodeEmptyFrame(Opcode::kPing, frame.request_id));
      return true;
    case Opcode::kMetrics:
      // Self-describing telemetry, answered inline like PING. A null
      // registry (telemetry off) serves empty exposition text — still a
      // valid reply, so clients need no special case.
      QueueReply(conn,
                 EncodeMetricsReply(frame.request_id,
                                    metrics_.registry != nullptr
                                        ? metrics_.registry->ExpositionText()
                                        : std::string()));
      return true;
    case Opcode::kPredict: {
      PredictRequest request;
      std::string error;
      if (!ParsePredictRequest(frame.payload, &request, &error)) {
        metrics_.CountError();
        QueueReply(conn,
                   EncodeErrorReply(Opcode::kPredict, frame.request_id,
                                    WireStatus::kBadRequest, error));
        return true;
      }
      NetRequest net;
      net.sink = this;
      net.connection_id = conn->id;
      net.request_id = frame.request_id;
      net.opcode = Opcode::kPredict;
      net.coords = std::move(request.coords);
      net.enqueue_us = obs::Tracer::NowMicros();
      return PushOrDefer(conn, std::move(net));
    }
    case Opcode::kTopK: {
      TopKRequest request;
      std::string error;
      if (!ParseTopKRequest(frame.payload, &request, &error)) {
        metrics_.CountError();
        QueueReply(conn, EncodeErrorReply(Opcode::kTopK, frame.request_id,
                                          WireStatus::kBadRequest, error));
        return true;
      }
      NetRequest net;
      net.sink = this;
      net.connection_id = conn->id;
      net.request_id = frame.request_id;
      net.opcode = Opcode::kTopK;
      net.mode = request.mode;
      net.k = request.k;
      net.coords = std::move(request.coords);
      net.enqueue_us = obs::Tracer::NowMicros();
      return PushOrDefer(conn, std::move(net));
    }
  }
  return true;  // unreachable: DecodeFrame rejects unknown opcodes
}

bool EventLoop::PushOrDefer(Connection* conn, NetRequest&& request) {
  if (coalescer_->TryPush(std::move(request))) return true;
  if (metrics_.parked_total != nullptr) metrics_.parked_total->Increment();
  // Queue full: park the decoded request on its connection and stop
  // reading that socket — TCP flow control now pushes back on the
  // client. NotifyQueueSpace retries when a worker drains the queue;
  // with an overload deadline armed, ShedExpiredParked answers
  // kOverloaded instead once the deadline passes (immediately at 0).
  conn->deferred = std::move(request);
  conn->has_deferred = true;
  if (options_.overload_timeout_ms == 0) {
    ShedDeferred(conn);
    return true;  // parsing may continue; later frames shed the same way
  }
  conn->reads_paused = true;
  conn->parked_at = std::chrono::steady_clock::now();
  return false;
}

void EventLoop::ShedDeferred(Connection* conn) {
  if (metrics_.shed_total != nullptr) metrics_.shed_total->Increment();
  metrics_.CountError();
  QueueReply(conn,
             EncodeErrorReply(conn->deferred.opcode, conn->deferred.request_id,
                              WireStatus::kOverloaded,
                              "server overloaded: request queue full past "
                              "the shed deadline"));
  conn->deferred = NetRequest();
  conn->has_deferred = false;
}

void EventLoop::ShedExpiredParked() {
  if (options_.overload_timeout_ms <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  const auto deadline = std::chrono::milliseconds(options_.overload_timeout_ms);
  for (auto& entry : conns_) {
    Connection* conn = entry.second.get();
    if (!conn->has_deferred || conn->closing) continue;
    if (now - conn->parked_at < deadline) continue;
    ShedDeferred(conn);
    // Shed clears the park; resume reading unless the reply backlog
    // still holds the connection.
    if (conn->outbuf.size() - conn->out_pos <= options_.max_outbuf) {
      conn->reads_paused = false;
      ParseInput(conn);
    }
  }
}

int EventLoop::WaitTimeoutMs() const {
  if (options_.overload_timeout_ms <= 0) return -1;
  bool any_parked = false;
  auto earliest = std::chrono::steady_clock::time_point::max();
  for (const auto& entry : conns_) {
    const Connection* conn = entry.second.get();
    if (!conn->has_deferred || conn->closing) continue;
    any_parked = true;
    if (conn->parked_at < earliest) earliest = conn->parked_at;
  }
  if (!any_parked) return -1;
  const auto expires =
      earliest + std::chrono::milliseconds(options_.overload_timeout_ms);
  const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
      expires - std::chrono::steady_clock::now());
  // Round up so a wakeup at the boundary actually finds the deadline
  // passed instead of spinning on 0-ms waits.
  return remaining.count() <= 0 ? 0 : static_cast<int>(remaining.count()) + 1;
}

void EventLoop::QueueReply(Connection* conn,
                           const std::vector<std::uint8_t>& frame) {
  if (conn->closing) return;
  conn->outbuf.insert(conn->outbuf.end(), frame.begin(), frame.end());
  // Slow-reader backpressure: a client that does not drain its replies
  // stops being read long before its backlog threatens server memory.
  if (conn->outbuf.size() - conn->out_pos > options_.max_outbuf) {
    conn->reads_paused = true;
  }
  UpdateInterest(conn);
}

void EventLoop::FailConnection(Connection* conn, Opcode opcode,
                               std::uint64_t request_id,
                               const std::string& message) {
  metrics_.CountError();
  const std::vector<std::uint8_t> reply =
      EncodeErrorReply(opcode, request_id, WireStatus::kMalformed, message);
  conn->outbuf.insert(conn->outbuf.end(), reply.begin(), reply.end());
  conn->closing = true;  // flush the error, then HandleWritable closes
  UpdateInterest(conn);
}

void EventLoop::HandleWritable(Connection* conn) {
  while (conn->out_pos < conn->outbuf.size()) {
    const ssize_t n =
        ::write(conn->fd, conn->outbuf.data() + conn->out_pos,
                conn->outbuf.size() - conn->out_pos);
    if (n > 0) {
      conn->out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn);
    return;
  }
  if (conn->out_pos == conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->out_pos = 0;
    if (conn->closing) {
      CloseConnection(conn);
      return;
    }
    // Reply backlog drained; resume reads unless the coalescer queue is
    // still refusing this connection's parked request.
    if (conn->reads_paused && !conn->has_deferred) {
      conn->reads_paused = false;
      ParseInput(conn);
      if (conn->closing && conn->out_pos == conn->outbuf.size()) {
        CloseConnection(conn);
        return;
      }
    }
  } else if (conn->out_pos > (1u << 16)) {
    conn->outbuf.erase(
        conn->outbuf.begin(),
        conn->outbuf.begin() + static_cast<std::ptrdiff_t>(conn->out_pos));
    conn->out_pos = 0;
  }
  UpdateInterest(conn);
}

void EventLoop::ResumeStalledReads() {
  for (auto& entry : conns_) {
    Connection* conn = entry.second.get();
    if (!conn->reads_paused || conn->closing) continue;
    if (conn->has_deferred) {
      if (!coalescer_->TryPush(std::move(conn->deferred))) continue;
      conn->has_deferred = false;
    }
    // Still write-pressured? Stay paused until the backlog drains.
    if (conn->outbuf.size() - conn->out_pos > options_.max_outbuf) continue;
    conn->reads_paused = false;
    ParseInput(conn);  // continue on buffered bytes; may stall again
  }
}

void EventLoop::UpdateInterest(Connection* conn) {
  std::uint32_t want = 0;
  if (!conn->closing && !conn->reads_paused) want |= EPOLLIN;
  if (conn->out_pos < conn->outbuf.size()) want |= EPOLLOUT;
  if (want == conn->interest) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->interest = want;
}

void EventLoop::CloseConnection(Connection* conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  by_id_.erase(conn->id);
  deferred_close_.push_back(conn->fd);
  conns_.erase(conn->fd);  // destroys *conn
}

void EventLoop::DrainPostedReplies() {
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> local;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    local.swap(posted_);
  }
  for (auto& posted : local) {
    const auto it = by_id_.find(posted.first);
    if (it == by_id_.end()) continue;  // connection died while in flight
    QueueReply(it->second, posted.second);
  }
}

}  // namespace ptucker
