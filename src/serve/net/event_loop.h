/// \file
/// \brief The epoll reactor: one EventLoop per listen thread, each with
/// its own SO_REUSEPORT listener (the kernel shards incoming
/// connections across loops), its own epoll instance, and its own set
/// of nonblocking connections. Each connection runs a small state
/// machine — read bytes, decode frames, answer control frames (PING /
/// METRICS) inline, hand PREDICT / TOPK to the BatchCoalescer, flush
/// queued reply bytes — and two backpressure rules keep memory bounded:
/// a connection whose decoded request the full coalescer queue refuses,
/// or whose unsent reply backlog exceeds the cap, has its EPOLLIN
/// interest dropped until the pressure clears, so TCP flow control
/// pushes back on the client instead of the server buffering
/// unboundedly. Worker threads deliver replies through PostReply
/// (mutex-guarded handoff + eventfd wakeup); replies for connections
/// that died in flight are dropped by id. See docs/serving.md.
#ifndef PTUCKER_SERVE_NET_EVENT_LOOP_H_
#define PTUCKER_SERVE_NET_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/net/coalescer.h"
#include "serve/net/wire.h"

namespace ptucker {

/// One epoll-driven reactor thread's state. Construct with an already
/// listening nonblocking socket (the loop takes ownership and closes
/// it), then call Run() from the loop thread. Stop(), PostReply(), and
/// NotifyQueueSpace() are safe from any thread.
class EventLoop : public ReplySink {
 public:
  struct Options {
    std::size_t max_inbuf = 1u << 20;   ///< unparsed-bytes cap per conn
    std::size_t max_outbuf = 1u << 22;  ///< unsent-reply cap before the
                                        ///< connection's reads pause
    /// Load-shedding deadline for a request parked on a full coalescer
    /// queue. -1 (default) parks forever behind TCP flow control; 0
    /// sheds immediately; > 0 sheds after that many milliseconds. A
    /// shed request is answered with WireStatus::kOverloaded (the
    /// connection stays open) and counted in ptucker_serve_shed_total.
    std::int64_t overload_timeout_ms = -1;
  };

  /// `coalescer` must outlive the loop. `id_base` makes
  /// connection ids unique across loops (each loop allocates
  /// monotonically above its base; ids are never reused, so a reply for
  /// a closed connection can never alias a new one the way raw fds do).
  /// `metrics` selects the telemetry bundle (nullptr = the process-wide
  /// ServeNetMetrics::Global()); the METRICS opcode serves that
  /// bundle's registry.
  EventLoop(int listen_fd, BatchCoalescer* coalescer, std::uint64_t id_base,
            const Options& options,
            const ServeNetMetrics* metrics = nullptr);
  ~EventLoop() override;

  /// The reactor: blocks until Stop(). Closes every connection and the
  /// listener before returning.
  void Run();

  /// Signals Run() to exit. Thread-safe, idempotent.
  void Stop();

  /// ReplySink: queues an encoded reply frame for `connection_id` and
  /// wakes the loop to flush it. Called from coalescer workers; replies
  /// to connections that no longer exist are dropped.
  void PostReply(std::uint64_t connection_id,
                 std::vector<std::uint8_t> frame) override;

  /// Coalescer-space notification: wakes the loop so connections stalled
  /// on a full queue retry their parked request and resume reading.
  void NotifyQueueSpace();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::uint32_t interest = 0;        ///< epoll events currently armed
    std::vector<std::uint8_t> inbuf;   ///< received, not yet parsed
    std::vector<std::uint8_t> outbuf;  ///< encoded, not yet sent
    std::size_t out_pos = 0;           ///< sent prefix of outbuf
    bool reads_paused = false;  ///< EPOLLIN dropped (backpressure)
    bool closing = false;       ///< flush outbuf, then close
    bool has_deferred = false;  ///< parked request awaiting queue space
    NetRequest deferred;
    std::chrono::steady_clock::time_point parked_at;  ///< when it parked
  };

  void AcceptNewConnections();
  void HandleReadable(Connection* conn);
  void HandleWritable(Connection* conn);
  /// Decodes and dispatches every complete frame in conn->inbuf;
  /// stops early on backpressure or a fatal protocol error.
  void ParseInput(Connection* conn);
  /// Dispatches one decoded frame. Returns false when the connection
  /// stalled on a full coalescer queue (parsing must pause).
  bool HandleFrame(Connection* conn, WireFrame&& frame);
  bool PushOrDefer(Connection* conn, NetRequest&& request);
  /// Appends reply bytes and re-arms EPOLLOUT; pauses reads past the
  /// outbuf cap.
  void QueueReply(Connection* conn, const std::vector<std::uint8_t>& frame);
  /// Sends a final error frame and marks the connection closing — used
  /// for unrecoverable framing violations.
  void FailConnection(Connection* conn, Opcode opcode,
                      std::uint64_t request_id, const std::string& message);
  void ResumeStalledReads();
  /// Replies kOverloaded to a parked request and resumes the connection
  /// (unless still write-pressured).
  void ShedDeferred(Connection* conn);
  /// Sheds every parked request whose overload deadline has passed and
  /// resumes parsing on those connections.
  void ShedExpiredParked();
  /// epoll_wait timeout: -1 with no armed deadline, else milliseconds
  /// until the earliest parked request expires (>= 0).
  int WaitTimeoutMs() const;
  void UpdateInterest(Connection* conn);
  void CloseConnection(Connection* conn);
  void DrainPostedReplies();
  void Wake();

  const int listen_fd_;
  BatchCoalescer* const coalescer_;
  const Options options_;
  const ServeNetMetrics metrics_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::uint64_t next_id_;
  std::atomic<bool> stop_{false};

  // fd -> connection (loop thread only) and id -> connection for reply
  // routing; ids of closed connections are simply absent.
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::unordered_map<std::uint64_t, Connection*> by_id_;
  // Closed descriptors are recycled only after the current epoll event
  // batch finishes, so a stale event cannot alias a fresh accept.
  std::vector<int> deferred_close_;
  bool listen_closed_ = false;

  // Cross-thread handoff: worker-posted replies and the queue-space
  // flag, both drained by the loop thread after an eventfd wakeup.
  std::mutex post_mu_;
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> posted_;
  std::atomic<bool> queue_space_{false};
};

/// Creates a nonblocking TCP listener on 0.0.0.0:`port` with
/// SO_REUSEADDR + SO_REUSEPORT (so every loop thread binds the same
/// port and the kernel load-balances accepts). `port` 0 picks an
/// ephemeral port; the chosen one is written back. Throws
/// std::runtime_error with errno detail on failure.
int CreateListenSocket(int* port, int backlog = 512);

}  // namespace ptucker

#endif  // PTUCKER_SERVE_NET_EVENT_LOOP_H_
