/// \file
/// \brief Cross-client batch coalescing: decoded predict/top-K requests
/// from every connection (on every event-loop thread) land in one
/// bounded MPSC queue; worker threads drain up to `max_batch` entries —
/// or whatever arrived within `batch_window_us`, whichever fills first —
/// and run them through ONE PredictBatch / TopK call against a single
/// atomically-grabbed ModelSnapshot, then route each encoded reply back
/// to its connection by request id, so concurrent clients each sending
/// one query at a time still share one thread-parallel batch and one
/// wakeup. Backpressure is structural: when
/// the queue is full TryPush refuses, the event loop parks the decoded
/// request and stops reading that connection's socket until a worker
/// drains the queue — slow consumers stall their own TCP window instead
/// of growing server memory. See docs/serving.md.
#ifndef PTUCKER_SERVE_NET_COALESCER_H_
#define PTUCKER_SERVE_NET_COALESCER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/net/net_metrics.h"
#include "serve/net/wire.h"
#include "serve/service.h"

namespace ptucker {

/// Where a finished reply frame goes: implemented by EventLoop (routes
/// the bytes to the owning connection's write buffer, dropping them if
/// the connection died while the request was in flight) and by test
/// fakes.
class ReplySink {
 public:
  virtual ~ReplySink() = default;
  /// Thread-safe; called from coalescer worker threads.
  virtual void PostReply(std::uint64_t connection_id,
                         std::vector<std::uint8_t> frame) = 0;
};

/// One decoded, validated-at-the-wire-level request waiting for a batch
/// slot. Coordinate/range validation against the *model* happens in the
/// worker against the same snapshot that serves the batch, so a hot
/// reload between decode and execute can never produce a stale verdict.
struct NetRequest {
  ReplySink* sink = nullptr;        ///< reply route (the owning loop)
  std::uint64_t connection_id = 0;  ///< reply route (loop-unique)
  std::uint64_t request_id = 0;     ///< echoed verbatim in the reply
  Opcode opcode = Opcode::kPredict; ///< kPredict or kTopK only
  std::vector<std::int64_t> coords; ///< query coordinate, 0-based
  std::int64_t mode = 0;            ///< top-K: scanned mode
  std::int64_t k = 0;               ///< top-K: result count
  std::int64_t enqueue_us = 0;      ///< decode time (obs::Tracer::NowMicros)
                                    ///< for the latency histograms
};

/// The bounded MPSC queue + worker pool. Producers are event-loop
/// threads (TryPush), consumers are worker threads that assemble and
/// execute batches. Replies are encoded wire frames handed to each
/// request's ReplySink.
class BatchCoalescer {
 public:
  struct Options {
    std::int64_t max_batch = 64;        ///< batch size cap, in [1, 4096]
    std::int64_t batch_window_us = 100; ///< max wait to fill a batch; 0 =
                                        ///< take whatever is queued
    std::int64_t queue_capacity = 8192; ///< TryPush refuses beyond this
  };

  /// `service` must outlive the coalescer. Throws
  /// std::invalid_argument on out-of-range options. `metrics` selects
  /// the telemetry bundle: nullptr (the default) records into the
  /// process-wide registry via ServeNetMetrics::Global(); pass a bundle
  /// built over a private registry for isolation, or one built over a
  /// null registry to turn recording off (bench_observability's
  /// baseline).
  BatchCoalescer(PredictionService* service, const Options& options,
                 const ServeNetMetrics* metrics = nullptr);
  ~BatchCoalescer();

  /// Spawns `workers` (>= 1) batch-execution threads.
  void Start(int workers);

  /// Wakes the workers, lets them drain every queued request, and joins
  /// them. Idempotent.
  void Stop();

  /// Enqueues one request. Returns false — without consuming `request` —
  /// when the queue is at capacity: the caller must park the request
  /// and pause reads on its connection until NotifySpace fires.
  bool TryPush(NetRequest&& request);

  /// Invoked (from a worker thread, outside the queue lock) after a
  /// batch is drained following a refused TryPush — the server fans it
  /// out to every event loop so stalled connections resume reading.
  void SetSpaceCallback(std::function<void()> callback);

  /// Requests currently queued (test/diagnostic hook).
  std::size_t QueueDepth() const;

  BatchCoalescer(const BatchCoalescer&) = delete;
  BatchCoalescer& operator=(const BatchCoalescer&) = delete;

 private:
  void WorkerLoop();
  void ProcessBatch(std::vector<NetRequest>* batch);

  PredictionService* const service_;
  const Options options_;
  const ServeNetMetrics metrics_;
  std::function<void()> space_callback_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<NetRequest> queue_;
  bool stop_ = false;
  std::atomic<bool> had_backpressure_{false};
  std::vector<std::thread> workers_;
};

}  // namespace ptucker

#endif  // PTUCKER_SERVE_NET_COALESCER_H_
