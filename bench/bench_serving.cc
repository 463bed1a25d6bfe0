// Serving-path benchmark (serve/service.h): single-entry Predict vs
// batched PredictBatch throughput (QPS) and TopK latency against a
// MovieLens-scale model, at several engine tile widths. The batched path
// is what the PR 3/4 batch contract exists for — every query tile
// streams each core group once through the tiled SIMD kernels and the
// batch parallelizes across threads. The exit status is the Release CI
// perf gate (docs/benchmarks.md): 0 only if some tile width B > 1
// matches or beats BOTH per-entry baselines — the serial single-entry
// Predict loop AND the parallel tile-1 PredictBatch (same thread count,
// no tile kernels) — so multi-core parallelism alone cannot mask a
// regression in the batch kernels themselves.
//
// `bench_serving --rows [N]` (default N = 10,000,000) switches to the
// snapshot-scale mode instead: an N x 64 x 32 rank-4 model with
// clustered mode-0 rows is checkpointed, and the bench reports (a)
// time-to-serving-ready for an owning copy (LoadSnapshot, then
// ModelSnapshot::Create) vs the zero-copy mmap open (CreateFromFile) —
// gated at >= 50x — and (b) top-K latency and recall@10 across
// an IVF nprobe sweep vs the exhaustive scan — gated at >= 10x speedup
// with recall >= 0.95.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "obs/percentile.h"
#include "core/ptucker.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/snapshot_v2.h"
#include "tensor/dense_tensor.h"
#include "util/format.h"
#include "util/random.h"
#include "obs/stopwatch.h"

namespace {

using namespace ptucker;

// A fitted-model stand-in with serving-realistic shapes: serving cost
// depends only on dims/ranks/core sparsity, not on the trained values.
TuckerFactorization MakeModel(const std::vector<std::int64_t>& dims,
                              const std::vector<std::int64_t>& ranks,
                              Rng& rng) {
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

// The snapshot-scale mode: owning-copy vs zero-copy load time and IVF
// top-K quality.
int RunSnapshotScaleBench(std::int64_t rows) {
  const std::vector<std::int64_t> ranks = {4, 4, 4};
  std::printf(
      "================================================================\n"
      "Snapshot scale bench (serve/snapshot_v2.h)\n"
      "model: %lld x 64 x 32, ranks 4x4x4, clustered mode-0 rows\n"
      "================================================================\n",
      static_cast<long long>(rows));

  // Clustered mode-0 rows (matching the ~sqrt(N), capped-at-1024 coarse
  // centroids BuildIvfRows picks) so IVF pruning has structure to find;
  // everything else is uniform noise — serving cost does not depend on
  // the trained values.
  Rng rng(29);
  TuckerFactorization model;
  {
    const std::int64_t clusters = 1024;
    Matrix centers(clusters, ranks[0]);
    for (std::int64_t i = 0; i < centers.size(); ++i) {
      centers.data()[i] = rng.Uniform(-2.0, 2.0);
    }
    Matrix factor0(rows, ranks[0]);
    for (std::int64_t i = 0; i < rows; ++i) {
      const double* center = centers.Row(i % clusters);
      double* row = factor0.Row(i);
      for (std::int64_t j = 0; j < ranks[0]; ++j) {
        row[j] = center[j] + rng.Uniform(-0.05, 0.05);
      }
    }
    model.factors.push_back(std::move(factor0));
    for (const std::int64_t dim : {std::int64_t{64}, std::int64_t{32}}) {
      Matrix factor(dim, 4);
      factor.FillUniform(rng);
      model.factors.push_back(std::move(factor));
    }
    model.core = DenseTensor(ranks);
    model.core.FillUniform(rng);
  }

  const std::string dir = std::filesystem::temp_directory_path().string();
  const std::string v2_path = dir + "/bench_serving_v2.ptks";
  SaveSnapshotV2(v2_path, model, /*with_centroids=*/true);
  std::printf("snapshot: %.1f MB\n",
              static_cast<double>(std::filesystem::file_size(v2_path)) / 1e6);

  // Time-to-serving-ready, best of 3: the owning path copies every
  // factor and core byte out of the file into a model and builds the
  // engine over that copy; the zero-copy path maps the file and builds
  // the engine over views — no factor bytes are read eagerly.
  double copy_seconds = 1e30;
  double v2_seconds = 1e30;
  bool mapped = false;
  for (int repeat = 0; repeat < 3; ++repeat) {
    {
      Stopwatch clock;
      const auto snapshot = ModelSnapshot::Create(LoadSnapshot(v2_path));
      copy_seconds = std::min(copy_seconds, clock.ElapsedSeconds());
    }
    {
      Stopwatch clock;
      const auto snapshot = ModelSnapshot::CreateFromFile(v2_path);
      v2_seconds = std::min(v2_seconds, clock.ElapsedSeconds());
      mapped = snapshot->mapped();
    }
  }
  const double load_speedup = copy_seconds / v2_seconds;
  TablePrinter load_table({"load path", "seconds", "speedup"});
  load_table.AddRow({"owning copy", FormatDouble(copy_seconds, 4), "1.00x"});
  load_table.AddRow({mapped ? "zero-copy mmap" : "zero-copy heap (no mmap)",
                     FormatDouble(v2_seconds, 4),
                     FormatDouble(load_speedup, 0) + "x"});
  load_table.Print();

  // Top-K along mode 0: exhaustive scan vs the IVF nprobe sweep.
  const PredictionService service(ModelSnapshot::CreateFromFile(v2_path));
  const std::int64_t num_queries = 8;
  const std::int64_t k = 10;
  std::vector<std::vector<std::int64_t>> queries;
  for (std::int64_t q = 0; q < num_queries; ++q) {
    queries.push_back(
        {0, static_cast<std::int64_t>(rng.UniformInt(64)),
         static_cast<std::int64_t>(rng.UniformInt(32))});
  }
  std::vector<std::vector<ScoredIndex>> exact;
  Stopwatch exact_clock;
  for (const auto& query : queries) {
    exact.push_back(service.TopK(0, query, k, nullptr, /*nprobe=*/-1));
  }
  const double exact_seconds =
      exact_clock.ElapsedSeconds() / static_cast<double>(num_queries);

  std::printf("\ntop-%lld along mode 0 (%lld candidates, %lld queries):\n",
              static_cast<long long>(k), static_cast<long long>(rows),
              static_cast<long long>(num_queries));
  TablePrinter topk_table({"nprobe", "latency ms", "speedup", "recall@10"});
  topk_table.AddRow({"exact", FormatDouble(exact_seconds * 1e3, 2), "1.00x",
                     "1.000"});
  bool ivf_gate = false;
  for (const std::int64_t nprobe :
       {std::int64_t{1}, std::int64_t{4}, std::int64_t{16}, std::int64_t{0}}) {
    Stopwatch clock;
    std::vector<std::vector<ScoredIndex>> approx;
    for (const auto& query : queries) {
      approx.push_back(service.TopK(0, query, k, nullptr, nprobe));
    }
    const double seconds =
        clock.ElapsedSeconds() / static_cast<double>(num_queries);
    std::int64_t hits = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      for (const ScoredIndex& e : exact[q]) {
        for (const ScoredIndex& a : approx[q]) {
          if (a.index == e.index) {
            ++hits;
            break;
          }
        }
      }
    }
    const double recall = static_cast<double>(hits) /
                          static_cast<double>(num_queries * k);
    const double speedup = exact_seconds / seconds;
    if (speedup >= 10.0 && recall >= 0.95) ivf_gate = true;
    topk_table.AddRow({nprobe == 0 ? "auto" : std::to_string(nprobe),
                       FormatDouble(seconds * 1e3, 2),
                       FormatDouble(speedup, 1) + "x",
                       FormatDouble(recall, 3)});
  }
  topk_table.Print();

  std::filesystem::remove(v2_path);
  const bool load_gate = load_speedup >= 50.0;
  std::printf("\nzero-copy load >= 50x faster than owning copy: %s\n",
              load_gate ? "YES" : "NO");
  std::printf("some nprobe >= 10x faster at recall >= 0.95: %s\n",
              ivf_gate ? "YES" : "NO");
  return load_gate && ivf_gate ? 0 : 1;
}

// The original MovieLens-scale throughput bench — the Release CI gate.
int RunDefaultBench() {
  std::printf(
      "================================================================\n"
      "Serving throughput (serve/service.h)\n"
      "model: 20000 users x 2000 items x 24 hours, ranks 8x8x4;\n"
      "%lld random queries; QPS = queries / best-of-3 wall clock\n"
      "================================================================\n",
      static_cast<long long>(100000));

  const std::vector<std::int64_t> dims = {20000, 2000, 24};
  const std::vector<std::int64_t> ranks = {8, 8, 4};
  const std::int64_t num_queries = 100000;
  Rng rng(17);
  TuckerFactorization model = MakeModel(dims, ranks, rng);

  // Random query coordinates, shared across every variant.
  const std::int64_t order = static_cast<std::int64_t>(dims.size());
  std::vector<std::int64_t> coords(
      static_cast<std::size_t>(num_queries * order));
  std::vector<const std::int64_t*> queries(
      static_cast<std::size_t>(num_queries));
  for (std::int64_t q = 0; q < num_queries; ++q) {
    for (std::int64_t n = 0; n < order; ++n) {
      coords[static_cast<std::size_t>(q * order + n)] =
          static_cast<std::int64_t>(
              rng.UniformInt(static_cast<std::uint64_t>(
                  dims[static_cast<std::size_t>(n)])));
    }
    queries[static_cast<std::size_t>(q)] = coords.data() + q * order;
  }
  std::vector<double> out(static_cast<std::size_t>(num_queries));

  // Single-entry baseline: one Predict() per query — the per-request
  // server without batching. Measured once on a tile-1 snapshot.
  PredictionService single_service(
      ModelSnapshot::Create(model, /*tile_width=*/1));
  std::vector<std::int64_t> query(static_cast<std::size_t>(order));
  double single_seconds = 1e30;
  for (int repeat = 0; repeat < 3; ++repeat) {
    Stopwatch clock;
    for (std::int64_t q = 0; q < num_queries; ++q) {
      query.assign(queries[static_cast<std::size_t>(q)],
                   queries[static_cast<std::size_t>(q)] + order);
      out[static_cast<std::size_t>(q)] = single_service.Predict(query);
    }
    single_seconds = std::min(single_seconds, clock.ElapsedSeconds());
  }
  const double single_qps =
      static_cast<double>(num_queries) / single_seconds;

  // Per-request latency distribution for the single-entry path, from a
  // separate instrumented pass so the per-query clock reads cannot
  // perturb the QPS numbers the gate compares. Percentile definitions:
  // src/obs/percentile.h (shared with bench_serving_net).
  obs::LatencyRecorder single_latency;
  single_latency.Reserve(static_cast<std::size_t>(num_queries));
  for (std::int64_t q = 0; q < num_queries; ++q) {
    query.assign(queries[static_cast<std::size_t>(q)],
                 queries[static_cast<std::size_t>(q)] + order);
    Stopwatch clock;
    out[static_cast<std::size_t>(q)] = single_service.Predict(query);
    single_latency.Record(clock.ElapsedSeconds());
  }
  std::printf("single Predict() per-request latency: p50 %s us   p99 %s us\n",
              FormatDouble(single_latency.P50() * 1e6, 2).c_str(),
              FormatDouble(single_latency.P99() * 1e6, 2).c_str());

  TablePrinter table({"path", "tile", "seconds", "QPS", "vs single"});
  table.AddRow({"single Predict()", "1", FormatDouble(single_seconds, 4),
                FormatDouble(single_qps, 0), "1.00x"});

  // Parallel per-entry baseline: PredictBatch at tile 1 has the same
  // thread-level parallelism as the batched rows but no tile kernels —
  // the fair yardstick for whether batching itself pays.
  double tile1_qps = 0.0;
  bool batched_matched_baselines = false;
  for (const std::int64_t tile : {std::int64_t{1}, std::int64_t{16},
                                  std::int64_t{32}, std::int64_t{64}}) {
    PredictionService service(ModelSnapshot::Create(model, tile));
    double seconds = 1e30;
    for (int repeat = 0; repeat < 3; ++repeat) {
      Stopwatch clock;
      service.PredictBatch(num_queries, queries.data(), out.data());
      seconds = std::min(seconds, clock.ElapsedSeconds());
    }
    const double qps = static_cast<double>(num_queries) / seconds;
    if (tile == 1) {
      tile1_qps = qps;
    } else if (qps >= single_qps && qps >= tile1_qps) {
      batched_matched_baselines = true;
    }
    table.AddRow({tile == 1 ? "PredictBatch (per-entry)" : "PredictBatch",
                  std::to_string(tile), FormatDouble(seconds, 4),
                  FormatDouble(qps, 0),
                  FormatDouble(qps / single_qps, 2) + "x"});
  }
  table.Print();

  // Top-K latency: rank every item (mode 1) for one user context — the
  // recommendation query of the paper's headline scenario.
  std::printf("\ntop-K recommendation latency (scan mode 1, %lld "
              "candidates):\n",
              static_cast<long long>(dims[1]));
  TablePrinter topk_table({"tile", "k", "min ms", "p50 ms", "p99 ms"});
  for (const std::int64_t tile : {std::int64_t{1}, std::int64_t{32}}) {
    PredictionService service(ModelSnapshot::Create(model, tile));
    for (const std::int64_t k : {std::int64_t{10}, std::int64_t{100}}) {
      const std::vector<std::int64_t> at = {42, 0, 21};
      double seconds = 1e30;
      obs::LatencyRecorder latency;
      for (int repeat = 0; repeat < 50; ++repeat) {
        Stopwatch clock;
        const auto top = service.TopK(1, at, k);
        const double elapsed = clock.ElapsedSeconds();
        seconds = std::min(seconds, elapsed);
        latency.Record(elapsed);
        if (static_cast<std::int64_t>(top.size()) != k) {
          std::fprintf(stderr, "topk returned %zu results, want %lld\n",
                       top.size(), static_cast<long long>(k));
          return 1;
        }
      }
      topk_table.AddRow({std::to_string(tile), std::to_string(k),
                         FormatDouble(seconds * 1e3, 3),
                         FormatDouble(latency.P50() * 1e3, 3),
                         FormatDouble(latency.P99() * 1e3, 3)});
    }
  }
  topk_table.Print();

  std::printf("\nsome batched tile >= both per-entry baselines "
              "(the CI gate): %s\n",
              batched_matched_baselines ? "YES" : "NO");
  return batched_matched_baselines ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // `--rows [N]` selects the snapshot-scale mode; the no-argument run is
  // the Release CI perf gate and stays unchanged.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rows") == 0) {
      std::int64_t rows = 10000000;
      if (i + 1 < argc) {
        char* end = nullptr;
        const long long parsed = std::strtoll(argv[i + 1], &end, 10);
        if (end != argv[i + 1] && *end == '\0' && parsed > 0) rows = parsed;
      }
      return RunSnapshotScaleBench(rows);
    }
  }
  return RunDefaultBench();
}
