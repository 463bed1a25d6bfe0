/// \file
/// \brief The serving front end's metric handles, resolved once against
/// a MetricsRegistry and cached (the registry lookup takes a mutex; the
/// handles are the lock-free hot path). The bundle also encodes the
/// "telemetry off" mode bench_observability measures against: built
/// over a null registry every handle is null and every recording site
/// is one pointer test. See docs/observability.md for the metric
/// catalog.
#ifndef PTUCKER_SERVE_NET_NET_METRICS_H_
#define PTUCKER_SERVE_NET_NET_METRICS_H_

#include "obs/metrics.h"

namespace ptucker {

/// Cached handles for every serve/net metric. Copyable; null handles
/// (from a null registry) disable recording at that site.
struct ServeNetMetrics {
  /// Resolves (creating on first use) the serve metrics in `registry`;
  /// a null `registry` leaves every handle null — telemetry off.
  explicit ServeNetMetrics(obs::MetricsRegistry* registry);

  /// The bundle over the process-wide registry (obs::GlobalMetrics()),
  /// resolved once.
  static const ServeNetMetrics& Global();

  /// The registry the handles live in (null = telemetry off) — the
  /// METRICS opcode serves its ExpositionText().
  obs::MetricsRegistry* registry = nullptr;

  obs::Counter* connections_total = nullptr;  ///< TCP connections accepted
  obs::Counter* requests_total = nullptr;   ///< frames dispatched, by loop
  obs::Counter* errors_total = nullptr;     ///< error replies, any status
  obs::Counter* parked_total = nullptr;     ///< requests parked on a full queue
  obs::Counter* shed_total = nullptr;       ///< parked requests shed OVERLOADED
  obs::Gauge* queue_depth = nullptr;        ///< coalescer queue occupancy
  obs::Histogram* predict_latency = nullptr;  ///< enqueue→reply, seconds
  obs::Histogram* topk_latency = nullptr;     ///< enqueue→reply, seconds
  obs::Histogram* batch_size = nullptr;       ///< executed batch widths

  /// Counts one error reply of any status; a no-op with telemetry off.
  void CountError() const {
    if (errors_total != nullptr) errors_total->Increment();
  }
};

}  // namespace ptucker

#endif  // PTUCKER_SERVE_NET_NET_METRICS_H_
