// Observability overhead gate (src/obs/): proves the telemetry plane is
// cheap enough to leave on in production and inert on the numeric path.
//
// Two paths, each run with instrumentation ON (a live MetricsRegistry
// bundle + the span tracer enabled) and OFF (a null-registry bundle,
// tracer disabled — every recording site reduces to a null check or one
// relaxed load):
//   serving  the BatchCoalescer driven directly through a counting
//            ReplySink — the per-request hot path with its counters,
//            queue-depth gauge, and latency/batch-size histograms;
//   solve    a full PTuckerDecompose with the als.* phase spans.
// The exit status is 0 only if ON sustains >= 1/1.03 of OFF's
// throughput on both paths (the <= 3% overhead budget in
// docs/observability.md) AND the solve trajectory with tracing on is
// bit-identical to tracing off. Best-of-3 on both sides so a scheduler
// hiccup doesn't fail the gate spuriously.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/ptucker.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "serve/net/coalescer.h"
#include "serve/net/net_metrics.h"
#include "serve/service.h"
#include "tensor/dense_tensor.h"
#include "util/format.h"
#include "util/random.h"

namespace {

using namespace ptucker;

constexpr double kOverheadBudget = 1.03;  // ON may cost at most 3%
constexpr int kRepeats = 3;

// ---------------------------------------------------------------------
// Serving path: the coalescer hot loop without sockets.
// ---------------------------------------------------------------------

class CountingSink : public ReplySink {
 public:
  void PostReply(std::uint64_t, std::vector<std::uint8_t>) override {
    replies_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t replies() const {
    return replies_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> replies_{0};
};

TuckerFactorization MakeModel(Rng& rng) {
  const std::vector<std::int64_t> dims = {2000, 500, 24};
  const std::vector<std::int64_t> ranks = {16, 16, 8};
  TuckerFactorization model;
  for (std::size_t n = 0; n < dims.size(); ++n) {
    Matrix factor(dims[n], ranks[n]);
    factor.FillUniform(rng);
    model.factors.push_back(std::move(factor));
  }
  model.core = DenseTensor(ranks);
  model.core.FillUniform(rng);
  return model;
}

std::vector<std::vector<std::int64_t>> MakeQueries(std::int64_t count,
                                                   Rng& rng) {
  const std::vector<std::int64_t> dims = {2000, 500, 24};
  std::vector<std::vector<std::int64_t>> queries;
  queries.reserve(static_cast<std::size_t>(count));
  for (std::int64_t q = 0; q < count; ++q) {
    std::vector<std::int64_t> index(dims.size());
    for (std::size_t n = 0; n < dims.size(); ++n) {
      index[n] = static_cast<std::int64_t>(
          rng.UniformInt(static_cast<std::uint64_t>(dims[n])));
    }
    queries.push_back(std::move(index));
  }
  return queries;
}

// One full coalescer run: push `requests` predicts, wait for every
// reply, return QPS. `metrics` decides instrumented vs not.
double RunServingOnce(PredictionService* service,
                      const std::vector<std::vector<std::int64_t>>& queries,
                      std::int64_t requests, const ServeNetMetrics& metrics) {
  BatchCoalescer::Options options;
  options.max_batch = 64;
  options.batch_window_us = 0;  // take whatever is queued — pure hot path
  options.queue_capacity = 8192;
  BatchCoalescer coalescer(service, options, &metrics);
  CountingSink sink;
  coalescer.Start(2);

  Stopwatch wall;
  for (std::int64_t r = 0; r < requests; ++r) {
    NetRequest request;
    request.sink = &sink;
    request.connection_id = 1;
    request.request_id = static_cast<std::uint64_t>(r + 1);
    request.opcode = Opcode::kPredict;
    request.coords = queries[static_cast<std::size_t>(r) % queries.size()];
    request.enqueue_us = obs::Tracer::NowMicros();
    while (!coalescer.TryPush(std::move(request))) {
      std::this_thread::yield();
    }
  }
  while (sink.replies() < static_cast<std::uint64_t>(requests)) {
    std::this_thread::yield();
  }
  const double seconds = wall.ElapsedSeconds();
  coalescer.Stop();
  return static_cast<double>(requests) / seconds;
}

double BestServingQps(PredictionService* service,
                      const std::vector<std::vector<std::int64_t>>& queries,
                      std::int64_t requests, const ServeNetMetrics& metrics) {
  double best = 0.0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    best = std::max(best, RunServingOnce(service, queries, requests, metrics));
  }
  return best;
}

// ---------------------------------------------------------------------
// Solve path: the als.* spans across a real decomposition.
// ---------------------------------------------------------------------

PTuckerResult RunSolveOnce(const SparseTensor& x, double* seconds) {
  PTuckerOptions options;
  options.core_dims = {6, 6, 6};
  options.max_iterations = 6;
  options.tolerance = 0.0;  // run all iterations — fixed-length trajectory
  options.num_threads = 4;
  options.seed = 99;
  Stopwatch clock;
  PTuckerResult result = PTuckerDecompose(x, options);
  *seconds = clock.ElapsedSeconds();
  return result;
}

bool SameTrajectory(const PTuckerResult& a, const PTuckerResult& b) {
  if (a.iterations.size() != b.iterations.size()) return false;
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    // Bit-identity, not approximate equality: tracing must not perturb
    // a single ulp anywhere in the solve.
    if (std::memcmp(&a.iterations[i].error, &b.iterations[i].error,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return std::memcmp(&a.final_error, &b.final_error, sizeof(double)) == 0;
}

}  // namespace

int main() {
  std::printf(
      "================================================================\n"
      "Observability overhead (src/obs/): instrumented ON vs OFF\n"
      "gate: ON >= OFF/%.2f on both paths, solve trajectory bit-equal\n"
      "================================================================\n",
      kOverheadBudget);

  Rng rng(31);
  const TuckerFactorization model = MakeModel(rng);
  const auto queries = MakeQueries(4096, rng);
  PredictionService service(ModelSnapshot::Create(model));
  const std::int64_t requests = 60000;

  // OFF: a bundle over a null registry — every handle null — and the
  // tracer disabled.
  obs::Tracer::Global().Disable();
  const ServeNetMetrics off_bundle(nullptr);
  const double off_qps = BestServingQps(&service, queries, requests,
                                        off_bundle);

  // ON: a private live registry plus the span tracer.
  obs::MetricsRegistry registry;
  const ServeNetMetrics on_bundle(&registry);
  obs::Tracer::Global().Enable();
  const double on_qps = BestServingQps(&service, queries, requests,
                                       on_bundle);
  obs::Tracer::Global().Disable();
  obs::Tracer::Global().Clear();

  const double serve_ratio = off_qps / on_qps;
  const bool serve_ok = serve_ratio <= kOverheadBudget;

  Rng data_rng(7);
  SparseTensor x = UniformSparseTensor({80, 60, 40}, 8000, data_rng);
  x.BuildModeIndex();

  double off_seconds = 1e30;
  PTuckerResult off_result;
  for (int rep = 0; rep < kRepeats; ++rep) {
    double seconds = 0.0;
    off_result = RunSolveOnce(x, &seconds);
    off_seconds = std::min(off_seconds, seconds);
  }

  obs::Tracer::Global().Enable();
  double on_seconds = 1e30;
  PTuckerResult on_result;
  for (int rep = 0; rep < kRepeats; ++rep) {
    double seconds = 0.0;
    on_result = RunSolveOnce(x, &seconds);
    on_seconds = std::min(on_seconds, seconds);
  }
  const std::size_t spans = obs::Tracer::Global().Snapshot().size();
  obs::Tracer::Global().Disable();
  obs::Tracer::Global().Clear();

  const double solve_ratio = on_seconds / off_seconds;
  const bool solve_ok = solve_ratio <= kOverheadBudget;
  const bool identical = SameTrajectory(off_result, on_result);

  TablePrinter table({"path", "off", "on", "on/off cost"});
  table.AddRow({"serving QPS", FormatDouble(off_qps, 0),
                FormatDouble(on_qps, 0), FormatDouble(serve_ratio, 4) + "x"});
  table.AddRow({"solve seconds", FormatDouble(off_seconds, 3),
                FormatDouble(on_seconds, 3),
                FormatDouble(solve_ratio, 4) + "x"});
  table.Print();
  std::printf("\nspans recorded during the instrumented solve: %zu\n", spans);
  std::printf("serving overhead <= %.0f%%: %s (%.4fx)\n",
              (kOverheadBudget - 1.0) * 100.0, serve_ok ? "YES" : "NO",
              serve_ratio);
  std::printf("solve overhead <= %.0f%%:   %s (%.4fx)\n",
              (kOverheadBudget - 1.0) * 100.0, solve_ok ? "YES" : "NO",
              solve_ratio);
  std::printf("solve trajectory bit-identical, tracing on vs off: %s\n",
              identical ? "YES" : "NO");
  return (serve_ok && solve_ok && identical) ? 0 : 1;
}
