// Network serving load generator (serve/net/): drives an in-process
// NetServer over real loopback TCP sockets with N concurrent
// connections and reports QPS plus p50/p99/p999 request latency
// (src/obs/percentile.h — same definitions as bench_serving's columns;
// see docs/benchmarks.md). Each run also scrapes the live METRICS
// endpoint (docs/observability.md) and reports parked/shed counts.
//
// The no-argument run is the Release CI gate for the batch coalescer:
// the same closed-loop workload (64 connections by default) is thrown
// at two server shapes —
//   batch-1:   1 worker, max_batch 1, window 0 — a request-at-a-time
//              server, the front end without coalescing;
//   coalesced: multi-worker, max_batch 64, 200 us window — cross-client
//              batches hit the tiled PredictBatch kernels;
// and the exit status is 0 only if the coalesced shape sustains >= 1.3x
// the batch-1 QPS. Closed-loop means every connection keeps exactly one
// request in flight, so coalescing opportunity comes only from
// *concurrency across clients* — precisely what the subsystem exists to
// exploit.
//
// `--mode rate --rate QPS --duration-s S` switches to a fixed-rate
// (open-loop) run against the coalesced shape only: each connection
// paces requests with sleep_until so total offered load is --rate, and
// the table reports achieved QPS and latency percentiles. Diagnostic —
// always exits 0.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/percentile.h"
#include "core/ptucker.h"
#include "serve/net/client.h"
#include "serve/net/server.h"
#include "serve/service.h"
#include "tensor/dense_tensor.h"
#include "util/format.h"
#include "util/random.h"
#include "obs/stopwatch.h"

namespace {

using namespace ptucker;

struct BenchOptions {
  std::int64_t connections = 64;
  std::int64_t requests = 150;  // per connection, closed-loop mode
  bool rate_mode = false;
  std::int64_t rate = 20000;      // offered load, fixed-rate mode
  std::int64_t duration_s = 2;    // fixed-rate mode
};

[[noreturn]] void FailFlag(const std::string& message) {
  std::fprintf(stderr, "bench_serving_net: %s\n", message.c_str());
  std::exit(2);
}

BenchOptions ParseOptions(int argc, char** argv) {
  BenchOptions options;
  auto need_value = [&](int i, const char* flag) -> const char* {
    if (i + 1 >= argc) FailFlag(std::string(flag) + " requires a value");
    return argv[i + 1];
  };
  auto parse_int = [&](const char* text, const char* flag) -> std::int64_t {
    char* end = nullptr;
    const long long parsed = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0') {
      FailFlag(std::string(flag) + ": '" + text + "' is not an integer");
    }
    return parsed;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connections") {
      options.connections = parse_int(need_value(i, "--connections"), arg.c_str());
      ++i;
    } else if (arg == "--requests") {
      options.requests = parse_int(need_value(i, "--requests"), arg.c_str());
      ++i;
    } else if (arg == "--mode") {
      const std::string mode = need_value(i, "--mode");
      if (mode == "closed") {
        options.rate_mode = false;
      } else if (mode == "rate") {
        options.rate_mode = true;
      } else {
        FailFlag("--mode must be 'closed' or 'rate', got '" + mode + "'");
      }
      ++i;
    } else if (arg == "--rate") {
      options.rate = parse_int(need_value(i, "--rate"), arg.c_str());
      ++i;
    } else if (arg == "--duration-s") {
      options.duration_s = parse_int(need_value(i, "--duration-s"), arg.c_str());
      ++i;
    } else {
      FailFlag("unknown flag '" + arg + "'");
    }
  }
  if (options.connections < 1 || options.connections > 4096) {
    FailFlag("--connections must be in [1, 4096]");
  }
  if (options.requests < 1) FailFlag("--requests must be >= 1");
  if (options.rate < 1) FailFlag("--rate must be >= 1");
  if (options.duration_s < 1 || options.duration_s > 600) {
    FailFlag("--duration-s must be in [1, 600]");
  }
  return options;
}

// Serving-realistic model with a heavy enough core (24x24x12) that
// per-predict compute, not syscalls, dominates — the regime where
// coalescing into tiled batches pays.
TuckerFactorization MakeModel(Rng& rng) {
  const std::vector<std::int64_t> dims = {20000, 2000, 24};
  const std::vector<std::int64_t> ranks = {24, 24, 12};
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
  const std::vector<std::int64_t> dims = {20000, 2000, 24};
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

struct RunResult {
  double qps = 0.0;
  obs::LatencyRecorder latencies;
};

// Closed loop: every connection keeps one request in flight.
RunResult RunClosedLoop(int port, const BenchOptions& options,
                        const std::vector<std::vector<std::int64_t>>& queries) {
  const std::size_t conns = static_cast<std::size_t>(options.connections);
  std::vector<obs::LatencyRecorder> per_thread(conns);
  std::vector<std::thread> threads;
  threads.reserve(conns);
  Stopwatch wall;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      NetClient client("127.0.0.1", port);
      obs::LatencyRecorder& recorder = per_thread[c];
      recorder.Reserve(static_cast<std::size_t>(options.requests));
      for (std::int64_t r = 0; r < options.requests; ++r) {
        const auto& query =
            queries[(c * 7919 + static_cast<std::size_t>(r)) % queries.size()];
        Stopwatch clock;
        (void)client.Predict(query);
        recorder.Record(clock.ElapsedSeconds());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double seconds = wall.ElapsedSeconds();

  RunResult result;
  for (const auto& recorder : per_thread) result.latencies.Merge(recorder);
  result.qps = static_cast<double>(result.latencies.count()) / seconds;
  return result;
}

// Fixed-rate (open-loop-ish): each connection paces its share of --rate
// with sleep_until; a late reply delays only that connection's stream.
RunResult RunFixedRate(int port, const BenchOptions& options,
                       const std::vector<std::vector<std::int64_t>>& queries) {
  const std::size_t conns = static_cast<std::size_t>(options.connections);
  const double per_conn_rate =
      static_cast<double>(options.rate) / static_cast<double>(conns);
  const auto interval = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 / per_conn_rate));
  const std::int64_t per_conn_requests = static_cast<std::int64_t>(
      per_conn_rate * static_cast<double>(options.duration_s));

  std::vector<obs::LatencyRecorder> per_thread(conns);
  std::vector<std::thread> threads;
  threads.reserve(conns);
  Stopwatch wall;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      NetClient client("127.0.0.1", port);
      obs::LatencyRecorder& recorder = per_thread[c];
      recorder.Reserve(static_cast<std::size_t>(per_conn_requests));
      // Stagger streams so ticks don't align across connections.
      auto next = start + interval * static_cast<std::int64_t>(c) /
                  static_cast<std::int64_t>(conns);
      for (std::int64_t r = 0; r < per_conn_requests; ++r) {
        std::this_thread::sleep_until(next);
        next += interval;
        const auto& query =
            queries[(c * 7919 + static_cast<std::size_t>(r)) % queries.size()];
        Stopwatch clock;
        (void)client.Predict(query);
        recorder.Record(clock.ElapsedSeconds());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double seconds = wall.ElapsedSeconds();

  RunResult result;
  for (const auto& recorder : per_thread) result.latencies.Merge(recorder);
  result.qps = static_cast<double>(result.latencies.count()) / seconds;
  return result;
}

void AddResultRow(TablePrinter* table, const std::string& name,
                  std::int64_t connections, const RunResult& result,
                  double baseline_qps) {
  table->AddRow({name, std::to_string(connections),
                 FormatDouble(result.qps, 0),
                 FormatDouble(result.latencies.P50() * 1e3, 3),
                 FormatDouble(result.latencies.P99() * 1e3, 3),
                 FormatDouble(result.latencies.P999() * 1e3, 3),
                 FormatDouble(result.qps / baseline_qps, 2) + "x"});
}

int WorkerThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(4u, std::max(2u, hw / 2)));
}

// First sample named exactly `name` in Prometheus exposition text
// (skips the `name_bucket{...}` / `name_sum` derived lines), parsed as
// a non-negative integer; 0 when absent.
std::uint64_t ScrapeCounter(const std::string& exposition,
                            const std::string& name) {
  std::size_t pos = 0;
  while (pos < exposition.size()) {
    std::size_t eol = exposition.find('\n', pos);
    if (eol == std::string::npos) eol = exposition.size();
    const std::string line = exposition.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.compare(0, name.size(), name) != 0) continue;
    if (line.size() <= name.size() || line[name.size()] != ' ') continue;
    return static_cast<std::uint64_t>(
        std::strtoull(line.c_str() + name.size() + 1, nullptr, 10));
  }
  return 0;
}

// One METRICS round trip against the still-running server: the
// parked/shed totals the overload path recorded during the run.
void ReportOverloadCounters(int port, const char* label) {
  NetClient client("127.0.0.1", port);
  const std::string text = client.Metrics();
  std::printf("%s: parked %llu, shed %llu (live METRICS endpoint)\n", label,
              static_cast<unsigned long long>(
                  ScrapeCounter(text, "ptucker_serve_parked_total")),
              static_cast<unsigned long long>(
                  ScrapeCounter(text, "ptucker_serve_shed_total")));
}

// Widest executed batch, to the resolution of the METRICS batch-size
// histogram (power-of-two bounds): the smallest bound covering every
// batch the server ran.
double WidestBatchBound(obs::MetricsRegistry* registry) {
  const obs::HistogramSnapshot batches =
      ServeNetMetrics(registry).batch_size->Snapshot();
  for (std::size_t i = 0; i < batches.bounds.size(); ++i) {
    if (batches.counts[i] == batches.count) return batches.bounds[i];
  }
  return batches.bounds.back();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = ParseOptions(argc, argv);

  Rng rng(47);
  const TuckerFactorization model = MakeModel(rng);
  const auto queries = MakeQueries(4096, rng);
  auto service = std::make_shared<PredictionService>(
      ModelSnapshot::Create(model, /*tile_width=*/32));

  NetServerOptions coalesced;
  coalesced.listen_threads = 2;
  coalesced.worker_threads = WorkerThreads();
  coalesced.max_batch = 64;
  coalesced.batch_window_us = 200;

  if (options.rate_mode) {
    std::printf(
        "================================================================\n"
        "Network serving, fixed-rate mode (serve/net/)\n"
        "%lld connections, %lld QPS offered for %llds, coalesced server\n"
        "================================================================\n",
        static_cast<long long>(options.connections),
        static_cast<long long>(options.rate),
        static_cast<long long>(options.duration_s));
    obs::MetricsRegistry registry;
    coalesced.metrics_registry = &registry;
    NetServer server(service, coalesced);
    server.Start();
    const RunResult result = RunFixedRate(server.port(), options, queries);
    ReportOverloadCounters(server.port(), "coalesced (rate)");
    server.Stop();
    TablePrinter table({"config", "conns", "QPS", "p50 ms", "p99 ms",
                        "p999 ms", "vs offered"});
    AddResultRow(&table, "coalesced (rate)", options.connections, result,
                 static_cast<double>(options.rate));
    table.Print();
    std::printf("\nwidest batch observed: <= %.0f\n",
                WidestBatchBound(&registry));
    return 0;
  }

  std::printf(
      "================================================================\n"
      "Network serving throughput (serve/net/): closed loop over TCP\n"
      "%lld connections x %lld predicts; model 20000x2000x24, ranks "
      "24x24x12\n"
      "================================================================\n",
      static_cast<long long>(options.connections),
      static_cast<long long>(options.requests));

  // Shape 1: request-at-a-time server — no coalescing, the baseline.
  NetServerOptions batch1;
  batch1.listen_threads = 1;
  batch1.worker_threads = 1;
  batch1.max_batch = 1;
  batch1.batch_window_us = 0;

  RunResult batch1_result;
  {
    // Per-server registries keep the two shapes' telemetry separate.
    obs::MetricsRegistry registry;
    batch1.metrics_registry = &registry;
    NetServer server(service, batch1);
    server.Start();
    batch1_result = RunClosedLoop(server.port(), options, queries);
    ReportOverloadCounters(server.port(), "batch-1 server");
    server.Stop();
  }

  RunResult coalesced_result;
  double widest_batch = 0.0;
  {
    obs::MetricsRegistry registry;
    coalesced.metrics_registry = &registry;
    NetServer server(service, coalesced);
    server.Start();
    coalesced_result = RunClosedLoop(server.port(), options, queries);
    ReportOverloadCounters(server.port(), "coalesced server");
    widest_batch = WidestBatchBound(&registry);
    server.Stop();
  }

  TablePrinter table({"config", "conns", "QPS", "p50 ms", "p99 ms",
                      "p999 ms", "vs batch-1"});
  AddResultRow(&table, "batch-1 server", options.connections, batch1_result,
               batch1_result.qps);
  AddResultRow(&table, "coalesced server", options.connections,
               coalesced_result, batch1_result.qps);
  table.Print();
  std::printf("\nwidest batch observed (coalesced): <= %.0f\n",
              widest_batch);

  const double ratio = coalesced_result.qps / batch1_result.qps;
  const bool gate = ratio >= 1.3;
  std::printf("coalesced >= 1.3x batch-1 QPS (the CI gate): %s (%.2fx)\n",
              gate ? "YES" : "NO", ratio);
  return gate ? 0 : 1;
}
