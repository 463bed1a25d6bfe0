#include "distributed/proc/transport.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

namespace ptucker {

namespace {

std::string ErrnoText(int err) { return std::string(std::strerror(err)); }

}  // namespace

// ---------------------------------------------------------------------------
// FrameChannel: PTKD framing over one connected stream socket
// ---------------------------------------------------------------------------

FrameChannel::FrameChannel(int fd, int timeout_ms)
    : fd_(fd), timeout_ms_(timeout_ms) {}

FrameChannel::~FrameChannel() { ::close(fd_); }

void FrameChannel::CloseSend() { ::shutdown(fd_, SHUT_WR); }

void FrameChannel::SendFrame(DistOpcode opcode, std::uint64_t tag,
                             const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> frame =
      EncodeDistFrame(opcode, tag, payload);
  SendRaw(frame.data(), frame.size());
}

void FrameChannel::SendRaw(const std::uint8_t* data, std::size_t size) {
  SendAll(data, size);
  bytes_sent_ += static_cast<std::int64_t>(size);
}

DistFrame FrameChannel::RecvFrame() {
  for (;;) {
    if (recv_offset_ < recv_buffer_.size()) {
      DistFrame frame;
      std::size_t consumed = 0;
      std::string error;
      const DecodeResult result = DecodeDistFrame(
          recv_buffer_.data() + recv_offset_,
          recv_buffer_.size() - recv_offset_, &frame, &consumed, &error);
      if (result == DecodeResult::kError) {
        throw DistError("malformed DIST frame: " + error);
      }
      if (result == DecodeResult::kFrame) {
        recv_offset_ += consumed;
        if (recv_offset_ == recv_buffer_.size()) {
          recv_buffer_.clear();
          recv_offset_ = 0;
        }
        return frame;
      }
    }
    std::uint8_t chunk[65536];
    const std::size_t n = RecvSome(chunk, sizeof(chunk));
    if (n == 0) {
      if (recv_offset_ < recv_buffer_.size()) {
        throw DistError(
            "connection closed mid-frame (peer died with " +
            std::to_string(recv_buffer_.size() - recv_offset_) +
            " bytes of an incomplete DIST frame in flight)");
      }
      throw DistError("connection closed (peer exited or was killed)");
    }
    recv_buffer_.insert(recv_buffer_.end(), chunk, chunk + n);
    bytes_received_ += static_cast<std::int64_t>(n);
  }
}

void FrameChannel::SendAll(const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a dead peer surfaces as EPIPE, not a SIGPIPE kill.
    const ssize_t n = ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw DistError("send failed: " + ErrnoText(errno) +
                      " (peer closed the connection?)");
    }
    sent += static_cast<std::size_t>(n);
  }
}

// Reads 1..size bytes; returns 0 on EOF; throws DistError on error or
// after timeout_ms_ without data.
std::size_t FrameChannel::RecvSome(std::uint8_t* data, std::size_t size) {
  for (;;) {
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, timeout_ms_);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw DistError("poll failed: " + ErrnoText(errno));
    }
    if (ready == 0) {
      throw DistError("receive timed out after " +
                      std::to_string(timeout_ms_) +
                      " ms (peer hung or deadlocked)");
    }
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) return 0;  // abrupt peer death == EOF
      throw DistError("recv failed: " + ErrnoText(errno));
    }
    return static_cast<std::size_t>(n);
  }
}

// ---------------------------------------------------------------------------
// Cluster: forked workers, one socketpair each
// ---------------------------------------------------------------------------

namespace {

// Waits for `pid`; grace_ms < 0 blocks until it is reaped. Returns true
// when the child was reaped.
bool WaitPid(pid_t pid, int grace_ms) {
  if (grace_ms < 0) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return true;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(grace_ms);
  for (;;) {
    int status = 0;
    const pid_t got = ::waitpid(pid, &status, WNOHANG);
    if (got == pid || (got < 0 && errno == ECHILD)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// Reaps every live worker in `pids`, SIGKILLing any that has not exited
// within `grace_ms`, and marks it reaped (-1).
void ReapAll(std::vector<pid_t>* pids, int grace_ms) {
  for (pid_t& pid : *pids) {
    if (pid < 0) continue;
    if (!WaitPid(pid, grace_ms)) {
      ::kill(pid, SIGKILL);
      WaitPid(pid, /*grace_ms=*/-1);
    }
    pid = -1;
  }
}

// The forked child: HELLO, then the worker body, then _exit. Never
// returns and never throws: the coordinator owns failure reporting, the
// worker just goes away (its EOF is the signal).
[[noreturn]] void ChildMain(const WorkerMain& worker_main, std::int64_t rank,
                            std::int64_t workers, int fd, int timeout_ms) {
  // Die with the coordinator: a crashed test binary must not leave
  // orphan solver processes behind.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  int status = 0;
  {
    FrameChannel channel(fd, timeout_ms);
    try {
      channel.SendFrame(DistOpcode::kHello, 0,
                        EncodeHello(rank, workers, kDistProtocolVersion));
      worker_main(rank, channel);
    } catch (const DistError&) {
      // Coordinator died or aborted mid-protocol; exit quietly.
      status = 3;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ptucker dist worker %lld failed: %s\n",
                   static_cast<long long>(rank), e.what());
      status = 4;
    }
    channel.CloseSend();
  }
  // _exit, not exit: the child must not run the parent's atexit
  // handlers (gtest, OpenMP, stdio) it inherited mid-flight.
  ::_exit(status);
}

// Consumes one worker's HELLO and checks it against the launched
// cluster: protocol version, cluster size, and the channel's own rank.
void CheckHello(FrameChannel& channel, std::int64_t expected_rank,
                std::int64_t workers) {
  const DistFrame frame = channel.RecvFrame();
  if (frame.opcode != DistOpcode::kHello) {
    throw DistError("expected HELLO, got opcode " +
                    std::to_string(static_cast<unsigned>(frame.opcode)));
  }
  std::int64_t rank = 0, size = 0;
  std::uint32_t version = 0;
  std::string error;
  if (!ParseHello(frame.payload, &rank, &size, &version, &error)) {
    throw DistError("bad HELLO: " + error);
  }
  if (version != kDistProtocolVersion) {
    throw DistError("worker speaks PTKD v" + std::to_string(version) +
                    ", coordinator speaks v" +
                    std::to_string(kDistProtocolVersion));
  }
  if (size != workers || rank != expected_rank) {
    throw DistError("HELLO rank " + std::to_string(rank) + "/" +
                    std::to_string(size) +
                    " does not match the launched cluster");
  }
}

}  // namespace

Cluster::~Cluster() { Abort(); }

void Cluster::Shutdown() {
  // The protocol's BYE already ran; workers are exiting on their own.
  for (auto& channel : channels_) channel->CloseSend();
  ReapAll(&pids_, /*grace_ms=*/5000);
  for (auto& channel : channels_) channel.reset();
}

void Cluster::Abort() {
  ReapAll(&pids_, /*grace_ms=*/0);
  for (auto& channel : channels_) channel.reset();
}

std::int64_t Cluster::TotalCommBytes() const {
  std::int64_t total = 0;
  for (const auto& channel : channels_) {
    total += channel->bytes_sent() + channel->bytes_received();
  }
  return total;
}

std::unique_ptr<Cluster> LaunchCluster(std::int64_t workers,
                                       const WorkerMain& worker_main,
                                       int recv_timeout_ms) {
  if (workers < 1) {
    throw DistError("distributed: workers must be >= 1");
  }
  const std::size_t n = static_cast<std::size_t>(workers);
  std::vector<int> parent_fds(n, -1);
  std::vector<int> child_fds(n, -1);
  auto close_all = [&] {
    for (std::size_t r = 0; r < n; ++r) {
      if (parent_fds[r] >= 0) ::close(parent_fds[r]);
      if (child_fds[r] >= 0) ::close(child_fds[r]);
    }
  };
  for (std::size_t r = 0; r < n; ++r) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      const int err = errno;
      close_all();
      throw DistError("socketpair failed: " + ErrnoText(err));
    }
    parent_fds[r] = fds[0];
    child_fds[r] = fds[1];
  }

  std::unique_ptr<Cluster> cluster(new Cluster());
  cluster->pids_.assign(n, -1);
  for (std::size_t r = 0; r < n; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      const int err = errno;
      close_all();
      throw DistError("fork failed: " + ErrnoText(err));  // ~Cluster reaps
    }
    if (pid == 0) {
      // Child: keep only this rank's fd.
      for (std::size_t o = 0; o < n; ++o) {
        ::close(parent_fds[o]);
        if (o != r) ::close(child_fds[o]);
      }
      ChildMain(worker_main, static_cast<std::int64_t>(r), workers,
                child_fds[r], recv_timeout_ms);
    }
    cluster->pids_[r] = pid;
  }
  for (std::size_t r = 0; r < n; ++r) {
    ::close(child_fds[r]);
    cluster->channels_.push_back(
        std::make_unique<FrameChannel>(parent_fds[r], recv_timeout_ms));
  }
  // A HELLO failure throws through ~Cluster, which kills and reaps.
  for (std::size_t r = 0; r < n; ++r) {
    CheckHello(*cluster->channels_[r], static_cast<std::int64_t>(r), workers);
  }
  return cluster;
}

}  // namespace ptucker
