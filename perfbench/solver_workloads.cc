// The two solver workloads: als-movielens (P-Tucker, memory variant, on a
// simulated MovieLens tensor) and approx-serial (P-Tucker-Approx on a
// planted order-5 Tucker tensor). Both read a `.tns` train/test pair and
// solve at a fixed iteration budget; see README.md for why each exists.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/delta.h"
#include "core/delta_engine.h"
#include "core/orthogonalize.h"
#include "core/ptucker.h"
#include "core/reconstruction.h"
#include "core/row_update.h"
#include "core/truncation.h"
#include "data/lowrank.h"
#include "data/movielens_sim.h"
#include "data/split.h"
#include "tensor/io.h"
#include "util/memory_tracker.h"
#include "util/random.h"

namespace perfbench {

using namespace ptucker;

namespace {

// Train/test split and files shared by both generators. The budget is
// the iteration count at which the solver reaches `target_rmse` (train
// RMSE, error / sqrt(|Ω|)) on every seed tried while the benchmark was
// designed; `test_rmse_ceiling` bounds the held-out RMSE the same way.
void WriteSolverInputs(const std::string& dir, const SparseTensor& tensor,
                       std::uint64_t seed, Meta meta) {
  Rng rng(seed ^ 0x5b1d5eedULL);
  const TrainTestSplit split = SplitObservedEntries(tensor, 0.1, rng);
  WriteTns(dir + "/train.tns", split.train);
  WriteTns(dir + "/test.tns", split.test);
  meta["dims"] = FormatDims(tensor.dims());
  WriteMeta(dir + "/meta.txt", meta);
}

struct SolverConfig {
  std::vector<std::int64_t> dims;
  PTuckerOptions options;
  double target_rmse = 0.0;
  double test_rmse_ceiling = 0.0;
};

SolverConfig ReadConfig(const RunContext& ctx) {
  const Meta meta = ReadMeta(ctx.dir + "/meta.txt");
  SolverConfig config;
  config.dims = ParseDims(meta.at("dims"));
  PTuckerOptions& o = config.options;
  o.core_dims = ParseDims(meta.at("ranks"));
  o.lambda = std::stod(meta.at("lambda"));
  o.max_iterations = std::stoi(meta.at("iterations"));
  o.tolerance = 0.0;  // run the whole budget: fixed work per solve
  o.num_threads = ctx.threads;
  const std::string& variant = meta.at("variant");
  if (variant == "approx") {
    o.variant = PTuckerVariant::kApprox;
    o.truncation_rate = std::stod(meta.at("truncation_rate"));
  } else if (variant != "memory") {
    throw std::runtime_error("unknown variant " + variant);
  }
  config.target_rmse = std::stod(meta.at("target_rmse"));
  config.test_rmse_ceiling = std::stod(meta.at("test_rmse_ceiling"));
  return config;
}

// One set-up, timed from outside: ReadTns + BuildModeIndex.
SparseTensor SetUp(const RunContext& ctx, const SolverConfig& config,
                   std::vector<double>* setup_seconds) {
  const std::int64_t start = NowNs();
  SparseTensor x;
  {
    ScopedSpan span(ctx.spans, "tensor.read_tns");
    x = ReadTns(ctx.dir + "/train.tns", config.dims);
  }
  {
    ScopedSpan span(ctx.spans, "tensor.mode_index");
    x.BuildModeIndex();
  }
  setup_seconds->push_back(SecondsSince(start));
  return x;
}

double TrainRmse(const PTuckerResult& result, const SparseTensor& x) {
  return result.iterations.back().error /
         std::sqrt(static_cast<double>(x.nnz()));
}

// The δ work of one full row-update sweep, alone: for every mode, every
// row's slice goes through DeltaBatch in the same tiles, order and
// schedule as UpdateFactorRows, without the B/c accumulation and the
// Eq. 9 solve. Returns a checksum so the calls have an observable result.
double DeltaSweep(const SparseTensor& x, const DeltaEngine& engine,
                  const std::vector<std::int64_t>& ranks) {
  const std::int64_t batch = std::max<std::int64_t>(1, engine.PreferredBatch());
  std::int64_t max_rank = 1;
  for (const std::int64_t r : ranks) max_rank = std::max(max_rank, r);
  double checksum = 0.0;
  for (std::int64_t mode = 0; mode < x.order(); ++mode) {
#pragma omp parallel reduction(+ : checksum)
    {
      std::vector<double> deltas(static_cast<std::size_t>(batch * max_rank));
      std::vector<std::int64_t> entries(static_cast<std::size_t>(batch));
      std::vector<const std::int64_t*> indices(static_cast<std::size_t>(batch));
#pragma omp for schedule(runtime)
      for (std::int64_t row = 0; row < x.dim(mode); ++row) {
        std::int64_t pending = 0;
        for (const std::int64_t entry : x.Slice(mode, row)) {
          entries[static_cast<std::size_t>(pending)] = entry;
          indices[static_cast<std::size_t>(pending)] = x.index(entry);
          if (++pending == batch) {
            engine.DeltaBatch(pending, entries.data(), indices.data(), mode,
                              deltas.data());
            checksum += deltas[0];
            pending = 0;
          }
        }
        if (pending > 0) {
          engine.DeltaBatch(pending, entries.data(), indices.data(), mode,
                            deltas.data());
          checksum += deltas[0];
        }
      }
    }
  }
  return checksum;
}

// Per-layer statistics of one traced Algorithm-2 run.
struct TracedSolve {
  std::vector<double> errors;       // per iteration, Eq. 5
  TuckerFactorization model;        // after orthogonalization
  double madds_per_sweep_sum = 0.0;  // computed, summed over iterations
  std::int64_t core_nnz = 0;
};

// Drives Algorithm 2 through the library's public per-layer calls, in the
// order PTuckerDecompose makes them, with a span around each call. Between
// iterations (outside the iteration span) it runs the δ-only sweep on the
// same state.
TracedSolve TracedDecompose(const SparseTensor& x, const PTuckerOptions& o,
                            SpanRecorder* spans) {
  const std::int64_t order = x.order();
  Rng rng(o.seed);
  std::vector<Matrix> factors;
  for (std::int64_t n = 0; n < order; ++n) {
    Matrix factor(x.dim(n), o.core_dims[static_cast<std::size_t>(n)]);
    factor.FillUniform(rng);
    factors.push_back(std::move(factor));
  }
  DenseTensor core(o.core_dims);
  core.FillUniform(rng);
  CoreEntryList core_list(core);

  TracedSolve out;
  OmpEnvironmentGuard omp_guard(o.num_threads, o.scheduling);
  std::unique_ptr<DeltaEngine> engine;
  {
    ScopedSpan span(spans, "delta_engine.build");
    engine = MakeDeltaEngine(ResolveDeltaEngineChoice(o), x, core_list,
                             factors, nullptr, o.adaptive_epsilon,
                             o.tile_width);
  }
  RowUpdateOptions row_options;
  row_options.lambda = o.lambda;
  row_options.seed = o.seed;
  for (int iteration = 1; iteration <= o.max_iterations; ++iteration) {
    row_options.iteration = iteration;
    {
      ScopedSpan iteration_span(spans, "solve.iteration");
      for (std::int64_t mode = 0; mode < order; ++mode) {
        Matrix old_factor;
        if (engine->WantsFactorSnapshot()) {
          old_factor = factors[static_cast<std::size_t>(mode)];
        }
        {
          ScopedSpan span(spans, "row_update.sweep");
          UpdateFactorRows(x, mode, nullptr, 0, *engine,
                           &factors[static_cast<std::size_t>(mode)],
                           row_options);
        }
        engine->OnFactorUpdated(mode, old_factor);
      }
      {
        ScopedSpan span(spans, "reconstruction.error");
        out.errors.push_back(ReconstructionError(x, *engine));
      }
      if (o.variant == PTuckerVariant::kApprox &&
          iteration < o.max_iterations) {
        ScopedSpan span(spans, "truncation.truncate");
        TruncateNoisyEntries(x, &core, &core_list, factors, o.truncation_rate,
                             engine.get(), nullptr);
      }
    }
    {
      ScopedSpan span(spans, "delta_engine.delta_sweep");
      DeltaSweep(x, *engine, o.core_dims);
    }
    // Mode-major δ: (N−1) multiply-adds per core entry per (entry, mode).
    out.madds_per_sweep_sum += static_cast<double>(x.nnz()) *
                               static_cast<double>(order * (order - 1)) *
                               static_cast<double>(core_list.size());
  }
  out.core_nnz = core_list.size();
  // Engine build and orthogonalization each take milliseconds once per
  // solve; repeat them on throwaway copies of the final state so their
  // medians aggregate more than one call.
  for (int rep = 0; rep < 10; ++rep) {
    ScopedSpan span(spans, "delta_engine.build");
    MakeDeltaEngine(ResolveDeltaEngineChoice(o), x, core_list, factors,
                    nullptr, o.adaptive_epsilon, o.tile_width);
  }
  for (int rep = 0; rep < 10; ++rep) {
    std::vector<Matrix> f = factors;
    DenseTensor g = core;
    ScopedSpan span(spans, "orthogonalize");
    OrthogonalizeFactors(&f, &g);
  }
  OrthogonalizeFactors(&factors, &core);
  out.model.factors = std::move(factors);
  out.model.core = std::move(core);
  return out;
}

std::vector<double> IterationSeconds(const PTuckerResult& result) {
  std::vector<double> out;
  for (const IterationStats& it : result.iterations) out.push_back(it.seconds);
  return out;
}

void ReportTraced(const RunContext& ctx, const SolverConfig& config,
                  const SparseTensor& x, Report* report) {
  SpanRecorder& spans = *ctx.spans;
  const PTuckerOptions& o = config.options;
  report->Metric("tensor.read_tns_ms",
                 Median(spans.SelfSecondsOf("tensor.read_tns")) * 1e3, "ms",
                 static_cast<std::int64_t>(
                     spans.DurationsOf("tensor.read_tns").size()));
  report->Metric("tensor.mode_index_ms",
                 Median(spans.SelfSecondsOf("tensor.mode_index")) * 1e3, "ms",
                 static_cast<std::int64_t>(
                     spans.DurationsOf("tensor.mode_index").size()));

  // Untraced reference solves bracket the traced one; the tracing overhead
  // compares iteration medians of the two kinds.
  MemoryTracker tracker;
  PTuckerOptions tracked = o;
  tracked.tracker = &tracker;
  const PTuckerResult reference = PTuckerDecompose(x, tracked);
  const TracedSolve traced = TracedDecompose(x, o, &spans);
  const PTuckerResult reference2 = PTuckerDecompose(x, o);
  report->Attempt(3);

  bool same = traced.errors.size() == reference.iterations.size();
  for (std::size_t i = 0; same && i < traced.errors.size(); ++i) {
    same = traced.errors[i] == reference.iterations[i].error;
  }
  report->Check("traced_trajectory_equals_decompose", same,
                "per-iteration errors of the traced layer-by-layer solve vs "
                "PTuckerDecompose, compared bit for bit");
  report->Check("traced_model_equals_decompose",
                BitEqual(traced.model, reference.model),
                "final factors and core, bit for bit");
  report->Check("repeat_solve_identical",
                BitEqual(reference.model, reference2.model),
                "two PTuckerDecompose calls on the same input");

  if (o.num_threads > 1) {
    // Thread-count invariant: the same solve on one thread must produce
    // bit-identical factors.
    PTuckerOptions serial = o;
    serial.num_threads = 1;
    const PTuckerResult one = PTuckerDecompose(x, serial);
    report->Attempt();
    report->Check("one_thread_equals_" + std::to_string(o.num_threads) +
                      "_threads",
                  BitEqual(one.model, reference.model),
                  "final factors and core of a 1-thread solve vs the " +
                      std::to_string(o.num_threads) + "-thread solve");
  }

  const std::int64_t iterations = o.max_iterations;
  const std::int64_t order = x.order();
  const std::vector<double> iteration_span = spans.DurationsOf("solve.iteration");
  const std::vector<double> iteration_self = spans.SelfSecondsOf("solve.iteration");
  const std::vector<double> sweep = spans.DurationsOf("row_update.sweep");
  const std::vector<double> delta = spans.DurationsOf("delta_engine.delta_sweep");
  std::vector<double> sweep_per_iteration, normal_eq;
  for (std::int64_t it = 0; it < iterations; ++it) {
    double s = 0.0;
    for (std::int64_t n = 0; n < order; ++n) {
      s += sweep[static_cast<std::size_t>(it * order + n)];
    }
    sweep_per_iteration.push_back(s);
    normal_eq.push_back(s - delta[static_cast<std::size_t>(it)]);
  }
  std::int64_t rows = 0;
  for (std::int64_t n = 0; n < order; ++n) rows += x.dim(n);

  std::vector<double> builds = spans.DurationsOf("delta_engine.build");
  report->Metric("delta_engine.build_ms", Median(builds) * 1e3, "ms",
                 static_cast<std::int64_t>(builds.size()));
  report->Metric("delta_engine.delta_sweep_ms", Median(delta) * 1e3, "ms",
                 iterations);
  report->Metric("delta_engine.madds_per_sweep",
                 traced.madds_per_sweep_sum / static_cast<double>(iterations),
                 "madd", iterations);
  report->Metric("row_update.sweep_ms", Median(sweep_per_iteration) * 1e3,
                 "ms", iterations);
  report->Metric("row_update.normal_eq_ms", Median(normal_eq) * 1e3, "ms",
                 iterations);
  report->Metric("row_update.rows", static_cast<double>(rows), "count",
                 iterations);
  const std::vector<double> error_ms = spans.DurationsOf("reconstruction.error");
  report->Metric("reconstruction.error_ms", Median(error_ms) * 1e3, "ms",
                 static_cast<std::int64_t>(error_ms.size()));
  const std::vector<double> ortho = spans.DurationsOf("orthogonalize");
  report->Metric("orthogonalize.ms", Median(ortho) * 1e3, "ms",
                 static_cast<std::int64_t>(ortho.size()));
  const std::vector<double> truncate = spans.DurationsOf("truncation.truncate");
  if (!truncate.empty()) {
    report->Metric("truncation.truncate_ms", Median(truncate) * 1e3, "ms",
                   static_cast<std::int64_t>(truncate.size()));
    report->Metric("truncation.core_nnz", static_cast<double>(traced.core_nnz),
                   "count", 1);
  }
  report->Metric("solve.intermediate_peak_bytes",
                 static_cast<double>(tracker.peak_bytes()), "bytes", 1);
  report->Metric("solve.iterations", static_cast<double>(iterations), "count",
                 1);
  report->Metric("solve.unattributed_share",
                 Sum(iteration_self) / Sum(iteration_span), "ratio",
                 iterations);
  std::vector<double> untraced = IterationSeconds(reference);
  const std::vector<double> untraced2 = IterationSeconds(reference2);
  untraced.insert(untraced.end(), untraced2.begin(), untraced2.end());
  report->Metric("solve.traced_iter_p50_ms", Median(iteration_span) * 1e3,
                 "ms", iterations);
  report->Metric("solve.untraced_iter_p50_ms", Median(untraced) * 1e3, "ms",
                 static_cast<std::int64_t>(untraced.size()));
  report->Metric("solve.tracing_overhead_share",
                 Median(iteration_span) / Median(untraced) - 1.0, "ratio",
                 iterations);
}

}  // namespace

void GenAls(const std::string& dir, std::uint64_t seed) {
  // Fig. 7's MovieLens configuration at 10x its scale.
  MovieLensConfig config;
  config.num_users = 13800;
  config.num_movies = 2700;
  config.num_years = 21;
  config.num_hours = 24;
  config.nnz = 200000;
  config.seed = seed;
  const MovieLensData data = SimulateMovieLens(config);
  WriteSolverInputs(dir, data.tensor, seed,
                    {{"variant", "memory"},
                     {"ranks", "4x4x4x4"},
                     {"lambda", "0.01"},
                     {"iterations", "8"},
                     {"target_rmse", "0.090"},
                     {"test_rmse_ceiling", "0.170"}});
}

void GenApprox(const std::string& dir, std::uint64_t seed) {
  Rng rng(seed);
  const PlantedTucker model =
      RandomTuckerModel({80, 80, 80, 80, 80}, {4, 4, 4, 4, 4}, rng);
  // 8,000 entries (not 50,000) so that a run holds dozens of solves even
  // when the host is slow: per-entry δ and truncation costs, and so the
  // layer mix, are unchanged.
  const SparseTensor tensor = SampleFromModel(model, 8000, 0.05, rng);
  WriteSolverInputs(dir, tensor, seed,
                    {{"variant", "approx"},
                     {"ranks", "4x4x4x4x4"},
                     {"lambda", "0.01"},
                     {"truncation_rate", "0.2"},
                     {"iterations", "6"},
                     {"target_rmse", "0.034"},
                     {"test_rmse_ceiling", "0.048"}});
}

void RunSolver(const RunContext& ctx, Report* report) {
  const SolverConfig config = ReadConfig(ctx);
  std::vector<double> setup_seconds;
  SparseTensor x = SetUp(ctx, config, &setup_seconds);
  const SparseTensor test = ReadTns(ctx.dir + "/test.tns", config.dims);
  if (ctx.traced) {
    while (setup_seconds.size() < 5) x = SetUp(ctx, config, &setup_seconds);
    report->Metric("setup_s", Median(setup_seconds), "s",
                   static_cast<std::int64_t>(setup_seconds.size()));
    ReportTraced(ctx, config, x, report);
    return;
  }

  // Whole solves at the fixed budget until the time budget is spent (at
  // least two), each timed from outside the call and bracketed by
  // reference sweeps (Calibration). Every solve gets a fresh set-up, so the
  // set-up samples are spread over the run like the solves rather than
  // bunched into one phase of the host at its start.
  const Calibration calibration(x, config.options.core_dims[0]);
  std::vector<double> walls, sweeps = {calibration.Sweep()};
  std::vector<std::vector<double>> iteration_seconds;  // per solve
  double first_error = 0.0, test_rmse = 0.0, train_rmse = 0.0;
  std::int64_t missed_target = 0, diverged = 0;
  const std::int64_t begin = NowNs();
  while (walls.size() < 2 ||
         SecondsSince(begin) + walls.back() + setup_seconds.back() +
                 sweeps.back() <=
             ctx.seconds) {
    if (!walls.empty()) x = SetUp(ctx, config, &setup_seconds);
    const std::int64_t start = NowNs();
    const PTuckerResult result = PTuckerDecompose(x, config.options);
    walls.push_back(SecondsSince(start));
    sweeps.push_back(calibration.Sweep());
    report->Attempt();
    iteration_seconds.push_back(IterationSeconds(result));
    train_rmse = TrainRmse(result, x);
    bool failed = train_rmse > config.target_rmse;
    missed_target += failed ? 1 : 0;
    if (walls.size() == 1) {
      first_error = result.final_error;
      test_rmse = TestRmse(test, result.model.core, result.model.factors);
    } else if (result.final_error != first_error) {
      ++diverged;
      failed = true;
    }
    if (failed) report->Fail();
  }
  report->Metric("setup_s", Median(setup_seconds), "s",
                 static_cast<std::int64_t>(setup_seconds.size()));
  // Each solve and its iterations rescaled by the sweeps around it.
  std::vector<double> solve_seconds;
  for (std::size_t s = 0; s < walls.size(); ++s) {
    solve_seconds.push_back(
        calibration.Calibrated(walls[s], sweeps[s], sweeps[s + 1]));
    for (double& it : iteration_seconds[s]) {
      it = calibration.Calibrated(it, sweeps[s], sweeps[s + 1]);
    }
  }
  // Iteration i costs the same in every solve, so the percentiles are
  // taken over the budget's iterations, each at its median over the solves.
  const std::vector<double> iterations = MedianPerUnit(iteration_seconds);
  const auto solves = static_cast<std::int64_t>(walls.size());
  // Observed entries swept per second: |Ω| · iterations per median solve.
  const double entry_sweeps = static_cast<double>(x.nnz()) *
                              static_cast<double>(config.options.max_iterations);
  report->Metric("time_to_target_s", Median(solve_seconds), "s", solves);
  report->Metric("throughput_per_s", entry_sweeps / Median(solve_seconds),
                 "1/s", solves);
  const auto n_iter = solves * config.options.max_iterations;
  report->Metric("p50_ms", Percentile(iterations, 50) * 1e3, "ms", n_iter);
  report->Metric("p90_ms", Percentile(iterations, 90) * 1e3, "ms", n_iter);
  report->Metric("wall_time_to_target_s", Median(walls), "s", solves);
  report->Metric("reference_sweep_ms", Median(sweeps) * 1e3, "ms",
                 static_cast<std::int64_t>(sweeps.size()));
  report->Metric("train_rmse", train_rmse, "rmse", 1);
  report->Metric("test_rmse", test_rmse, "rmse", 1);
  report->Check("target_reached", missed_target == 0,
                std::to_string(missed_target) + " of " +
                    std::to_string(walls.size()) +
                    " solves ended above train RMSE " +
                    std::to_string(config.target_rmse),
                /*counts=*/false);
  report->Check("test_rmse_under_ceiling",
                test_rmse <= config.test_rmse_ceiling,
                "test RMSE " + std::to_string(test_rmse) + " vs ceiling " +
                    std::to_string(config.test_rmse_ceiling));
  report->Check("repeat_solves_identical", diverged == 0,
                std::to_string(diverged) +
                    " solves ended at a different error than the first",
                /*counts=*/false);
}

}  // namespace perfbench
