#include "serve/net/net_metrics.h"

namespace ptucker {

namespace {

// Latency ladder: 10 us .. ~5 s in powers of 2 — wide enough to place
// both an in-memory predict and a full-scan top-K.
std::vector<double> LatencyBounds() {
  return obs::ExponentialBuckets(1e-5, 2.0, 20);
}

// Batch widths: powers of 2 up to the 4096 max_batch cap.
std::vector<double> BatchBounds() {
  return obs::ExponentialBuckets(1.0, 2.0, 13);
}

}  // namespace

ServeNetMetrics::ServeNetMetrics(obs::MetricsRegistry* registry_in)
    : registry(registry_in) {
  if (registry == nullptr) return;  // telemetry off: every handle null
  connections_total = registry->GetCounter(
      "ptucker_serve_connections_total",
      "TCP connections accepted across all event loops");
  requests_total = registry->GetCounter(
      "ptucker_serve_requests_total",
      "Wire frames dispatched by the event loops, all opcodes");
  errors_total = registry->GetCounter(
      "ptucker_serve_errors_total",
      "Error replies sent, any status (malformed, bad request, "
      "overloaded, internal)");
  parked_total = registry->GetCounter(
      "ptucker_serve_parked_total",
      "Requests parked on a full coalescer queue (backpressure)");
  shed_total = registry->GetCounter(
      "ptucker_serve_shed_total",
      "Parked requests shed with an OVERLOADED reply past the deadline");
  queue_depth = registry->GetGauge(
      "ptucker_serve_queue_depth",
      "Requests in the coalescer queue right now");
  predict_latency = registry->GetHistogram(
      "ptucker_serve_predict_latency_seconds",
      "PREDICT enqueue-to-reply latency in seconds", LatencyBounds());
  topk_latency = registry->GetHistogram(
      "ptucker_serve_topk_latency_seconds",
      "TOPK enqueue-to-reply latency in seconds", LatencyBounds());
  batch_size = registry->GetHistogram(
      "ptucker_serve_batch_size",
      "Coalesced batch widths actually executed", BatchBounds());
}

const ServeNetMetrics& ServeNetMetrics::Global() {
  static const ServeNetMetrics* bundle =
      new ServeNetMetrics(&obs::GlobalMetrics());
  return *bundle;
}

}  // namespace ptucker
