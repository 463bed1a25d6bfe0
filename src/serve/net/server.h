/// \file
/// \brief NetServer: the assembled TCP serving front end. Start() binds
/// `listen_threads` SO_REUSEPORT listeners on one port (0 = ephemeral;
/// port() reports the choice), runs one epoll EventLoop per listener,
/// and starts the BatchCoalescer's worker pool; every loop feeds the
/// one shared bounded queue, so predict/top-K requests from different
/// clients — and different loop threads — coalesce into single tiled
/// PredictBatch / TopK calls. Hot reload rides on the underlying
/// PredictionService: ReloadSnapshot on it swaps the model atomically
/// while connections stay open, and every in-flight batch is served by
/// exactly one snapshot. Stop() is a clean shutdown: loops close every
/// connection and stop accepting, then workers drain the queue and
/// join. See docs/serving.md for the protocol and operational
/// semantics.
#ifndef PTUCKER_SERVE_NET_SERVER_H_
#define PTUCKER_SERVE_NET_SERVER_H_

#include <memory>
#include <thread>
#include <vector>

#include "serve/net/coalescer.h"
#include "serve/net/event_loop.h"
#include "serve/service.h"

namespace ptucker {

/// Validated knobs of the serving front end. The CLI's `serve`
/// subcommand validates the same ranges at the flag parser (exit 2);
/// the constructor enforces them for library users (throws
/// std::invalid_argument naming the field).
struct NetServerOptions {
  int port = 0;             ///< TCP port; 0 picks an ephemeral one
  int listen_threads = 1;   ///< epoll loops / SO_REUSEPORT shards, [1, 64]
  int worker_threads = 1;   ///< coalescer batch executors, [1, 64]
  std::int64_t max_batch = 64;         ///< coalesced batch cap, [1, 4096]
  std::int64_t batch_window_us = 100;  ///< batch fill window, [0, 1e6] µs
  std::int64_t queue_capacity = 8192;  ///< bounded MPSC depth, >= max_batch
  /// Parked-request shed deadline in ms, [-1, 3600000]: -1 parks forever
  /// (pure TCP backpressure), 0 sheds immediately, > 0 sheds after the
  /// deadline with a kOverloaded reply. See EventLoop::Options.
  std::int64_t overload_timeout_ms = -1;
  /// Registry the server's telemetry records into and the METRICS
  /// opcode serves. nullptr (the default) uses the process-wide
  /// obs::GlobalMetrics(); benches pass per-server registries so two
  /// servers in one process do not blend counters.
  obs::MetricsRegistry* metrics_registry = nullptr;
};

/// Owns the loops, the coalescer, and their threads. The service stays
/// caller-owned (shared) so the caller can ReloadSnapshot it under live
/// load.
class NetServer {
 public:
  /// Validates `options`; no sockets are touched until Start().
  NetServer(std::shared_ptr<PredictionService> service,
            const NetServerOptions& options);
  ~NetServer();  ///< Stop()s if still running

  /// Binds, listens, and launches the loop + worker threads. Throws
  /// std::runtime_error (with errno detail) on socket failures.
  void Start();

  /// Clean shutdown: closes every connection, stops accepting, drains
  /// the request queue, joins all threads. Idempotent.
  void Stop();

  /// The bound TCP port (valid after Start()).
  int port() const { return port_; }

  /// The served model plane — ReloadSnapshot here hot-swaps under load.
  PredictionService& service() { return *service_; }

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

 private:
  std::shared_ptr<PredictionService> service_;
  NetServerOptions options_;
  int port_ = 0;
  bool running_ = false;
  ServeNetMetrics metrics_;
  std::unique_ptr<BatchCoalescer> coalescer_;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> loop_threads_;
};

}  // namespace ptucker

#endif  // PTUCKER_SERVE_NET_SERVER_H_
