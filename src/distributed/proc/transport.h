/// \file
/// \brief The carrier of the multi-process solver: forked worker
/// processes, each connected to the coordinator by one AF_UNIX
/// socketpair. LaunchCluster forks N workers running the caller's
/// WorkerMain against that rank's FrameChannel speaking the PTKD family
/// (dist_wire.h), and consumes each worker's HELLO to check it against
/// the launched cluster. The Cluster owns failure handling: a dead
/// peer, a corrupt frame, or a receive timeout raises DistError with a
/// specific message, and Abort() SIGKILLs and reaps every worker so no
/// call path can leak a zombie or hang.
#ifndef PTUCKER_DISTRIBUTED_PROC_TRANSPORT_H_
#define PTUCKER_DISTRIBUTED_PROC_TRANSPORT_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "distributed/proc/dist_wire.h"

namespace ptucker {

/// Fatal distributed-protocol failure: a peer died, sent bytes that are
/// not a valid PTKD frame, violated the lock-step protocol, or timed
/// out. The message names the peer and the first bad byte/field; the
/// cluster cannot continue past it (the coordinator aborts and reaps).
class DistError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;  ///< takes the message
};

/// One blocking duplex PTKD frame channel over a connected stream
/// socket, between the coordinator and one worker. Owns the fd and
/// closes it on destruction. Send/Recv throw DistError on any failure —
/// EOF (peer died), malformed bytes (convicted at the first bad byte
/// via the shared frame codec), or a receive timeout — after which the
/// channel is unusable.
class FrameChannel {
 public:
  /// Takes ownership of the connected stream socket `fd`; every blocking
  /// receive waits at most `timeout_ms` for data.
  FrameChannel(int fd, int timeout_ms);
  /// Closes the fd.
  ~FrameChannel();

  FrameChannel(const FrameChannel&) = delete;             ///< owns the fd
  FrameChannel& operator=(const FrameChannel&) = delete;  ///< owns the fd

  /// Sends one frame; throws DistError when the peer is gone.
  void SendFrame(DistOpcode opcode, std::uint64_t tag,
                 const std::vector<std::uint8_t>& payload);

  /// Sends raw bytes with no framing — fault-injection hook used by
  /// tests to put garbage on the wire exactly where a frame belongs.
  void SendRaw(const std::uint8_t* data, std::size_t size);

  /// Blocks until one full frame arrives (up to the channel timeout).
  /// Throws DistError naming the violation: connection closed, closed
  /// mid-frame, malformed bytes, or timeout.
  DistFrame RecvFrame();

  /// Half-closes the sending side so the peer's next RecvFrame sees a
  /// clean EOF (used by workers on exit and by death fault injection).
  void CloseSend();

  /// Bytes pushed onto the wire so far (comm accounting).
  std::int64_t bytes_sent() const { return bytes_sent_; }
  /// Bytes pulled off the wire so far (comm accounting).
  std::int64_t bytes_received() const { return bytes_received_; }

 private:
  void SendAll(const std::uint8_t* data, std::size_t size);
  std::size_t RecvSome(std::uint8_t* data, std::size_t size);

  int fd_;
  int timeout_ms_;
  std::int64_t bytes_sent_ = 0;
  std::int64_t bytes_received_ = 0;
  std::vector<std::uint8_t> recv_buffer_;
  std::size_t recv_offset_ = 0;
};

/// The worker body LaunchCluster runs once per rank, in the forked
/// child, against the worker-side end of that rank's channel.
using WorkerMain =
    std::function<void(std::int64_t rank, FrameChannel& channel)>;

/// A running cluster of N forked workers behind rank-indexed channels.
/// The destructor aborts (and always reaps) any workers still running.
class Cluster {
 public:
  /// Aborts: SIGKILLs and reaps every worker still running.
  ~Cluster();

  Cluster(const Cluster&) = delete;             ///< owns the workers
  Cluster& operator=(const Cluster&) = delete;  ///< owns the workers

  /// Number of workers launched.
  std::int64_t workers() const {
    return static_cast<std::int64_t>(pids_.size());
  }

  /// Coordinator-side channel to worker `rank`.
  FrameChannel& Channel(std::int64_t rank) {
    return *channels_[static_cast<std::size_t>(rank)];
  }

  /// Graceful teardown after the protocol's SHUTDOWN/BYE exchange:
  /// closes channels and waits for workers to exit; SIGKILLs any worker
  /// that fails to exit in time.
  void Shutdown();

  /// Hard teardown: SIGKILLs every worker still running, then reaps it.
  /// Never throws and never leaves a zombie; safe to call more than once.
  void Abort();

  /// Total bytes moved over every channel, both directions.
  std::int64_t TotalCommBytes() const;

 private:
  /// The one way to build a Cluster: fork, connect, check the HELLOs.
  friend std::unique_ptr<Cluster> LaunchCluster(std::int64_t workers,
                                                const WorkerMain& worker_main,
                                                int recv_timeout_ms);
  Cluster() = default;

  std::vector<pid_t> pids_;
  std::vector<std::unique_ptr<FrameChannel>> channels_;
};

/// Forks `workers` workers running `worker_main` and consumes each
/// worker's HELLO (validating rank, cluster size, and protocol version)
/// so the returned cluster's channels are ready for the solve protocol.
/// `recv_timeout_ms` bounds every blocking receive. Throws DistError
/// when a worker fails to come up; workers are reaped before the throw.
std::unique_ptr<Cluster> LaunchCluster(std::int64_t workers,
                                       const WorkerMain& worker_main,
                                       int recv_timeout_ms);

}  // namespace ptucker

#endif  // PTUCKER_DISTRIBUTED_PROC_TRANSPORT_H_
