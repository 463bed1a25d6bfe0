// Head-to-head benchmark of the δ-engines (core/delta_engine.h) on
// Fig. 6-style synthetic configs: a full δ-sweep (every observed entry ×
// every mode — the exact inner work of one P-Tucker ALS iteration without
// the solves), a full reconstruct sweep (x̂ for every observed entry —
// the inner work of the Eq. 5 error metric), and a short end-to-end
// decomposition per engine. Every engine's δ and x̂ are checked against
// the naive oracle: modemajor and cache to 1e-6, contraction to its
// stated per-value bound 2(N + |G|)·2⁻⁵³·Σ|terms| (docs/delta_engines.md).
//
// Exit status (docs/benchmarks.md): 0 only if every engine matches the
// oracle and modemajor beats naive on the δ-sweep of at least one config.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/delta_engine.h"
#include "data/synthetic.h"
#include "util/random.h"
#include "obs/stopwatch.h"

namespace {

using namespace ptucker;
using namespace ptucker::bench;

struct Config {
  std::vector<std::int64_t> dims;
  std::int64_t nnz;
  std::int64_t rank;
};

struct SweepResult {
  double build_seconds = 0.0;
  double sweep_seconds = 0.0;  // best-of-repeats full δ-sweep
  double rec_seconds = 0.0;    // best-of-repeats full reconstruct sweep
  std::vector<double> deltas;  // last sweep's full |Ω|·N·J delta block
  std::vector<double> xhat;    // last reconstruct sweep's |Ω| x̂ block
};

// Builds the engine (timed) and runs `repeats` full δ-sweeps plus
// `repeats` full reconstruct sweeps, keeping the fastest of each. The
// deltas and x̂ of the final sweeps are retained so engines can be
// compared against the naive oracle.
SweepResult RunSweep(DeltaEngineChoice choice, const SparseTensor& x,
                     const CoreEntryList& list,
                     const std::vector<Matrix>& factors, std::int64_t rank,
                     int repeats) {
  SweepResult result;
  Stopwatch build_clock;
  const auto engine = MakeDeltaEngine(choice, x, list, factors, nullptr);
  result.build_seconds = build_clock.ElapsedSeconds();

  const std::int64_t order = x.order();
  const std::int64_t nnz = x.nnz();
  result.deltas.resize(static_cast<std::size_t>(order * nnz * rank));
  result.sweep_seconds = 1e30;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    Stopwatch sweep_clock;
    for (std::int64_t mode = 0; mode < order; ++mode) {
      double* out = result.deltas.data() + mode * nnz * rank;
      for (std::int64_t e = 0; e < nnz; ++e) {
        engine->ComputeDelta(e, x.index(e), mode, out + e * rank);
      }
    }
    result.sweep_seconds =
        std::min(result.sweep_seconds, sweep_clock.ElapsedSeconds());
  }

  result.xhat.resize(static_cast<std::size_t>(nnz));
  result.rec_seconds = 1e30;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    Stopwatch rec_clock;
    for (std::int64_t e = 0; e < nnz; ++e) {
      result.xhat[static_cast<std::size_t>(e)] =
          engine->Reconstruct(x.index(e));
    }
    result.rec_seconds =
        std::min(result.rec_seconds, rec_clock.ElapsedSeconds());
  }
  return result;
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a[i] - b[i]));
  }
  return max_diff;
}

// Largest |a − b| / (c·b) over the values: at most 1 when `a` is within
// the contraction engine's stated bound c·Σ|terms| of the oracle `b`. The
// configs' factors and core are Uniform[0,1) draws, so every term is
// non-negative and the oracle's own value is Σ|terms|.
double MaxBoundRatio(const std::vector<double>& a, const std::vector<double>& b,
                     double c) {
  double ratio = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = std::fabs(a[i] - b[i]);
    if (diff > 0.0) ratio = std::max(ratio, diff / (c * b[i]));
  }
  return ratio;
}

double SolveSeconds(DeltaEngineChoice choice, const SparseTensor& x,
                    const std::vector<std::int64_t>& ranks) {
  PTuckerOptions options;
  options.core_dims = ranks;
  options.max_iterations = 2;
  options.tolerance = 0.0;
  options.delta_engine = choice;
  const MethodOutcome outcome = RunMethod(PTuckerDecompose, x, options);
  return outcome.ok ? outcome.total_seconds : -1.0;
}

}  // namespace

int main() {
  PrintHeader("DeltaEngine comparison (Fig. 6-style synthetic configs)",
              "full delta-sweep = |Omega| x N ComputeDelta calls; "
              "reconstruct sweep = |Omega| Reconstruct x-hats; "
              "solve = 2 P-Tucker iterations; best of 5 sweeps; "
              "every engine matches the naive oracle to 1e-6");

  // The last config has Fig. 7's short modes (year 21, hour 24), which
  // the contraction engine memoizes.
  const Config configs[] = {
      {{3000, 3000, 3000}, 30000, 5},
      {{3000, 3000, 3000}, 30000, 8},
      {{300, 300, 300, 300}, 10000, 5},
      {{3000, 600, 21, 24}, 30000, 4},
  };
  // Naive first: it is the reference every other engine is checked
  // against.
  const DeltaEngineChoice engines[] = {
      DeltaEngineChoice::kNaive, DeltaEngineChoice::kModeMajor,
      DeltaEngineChoice::kCached, DeltaEngineChoice::kContraction};

  TablePrinter table(
      {"config", "engine", "build s", "sweep s", "speedup", "solve s"});
  TablePrinter rec_table({"config", "engine", "rec s", "speedup"});
  bool modemajor_beat_naive = false;

  for (const Config& config : configs) {
    const std::int64_t order = static_cast<std::int64_t>(config.dims.size());
    Rng rng(900 + static_cast<std::uint64_t>(order * 10 + config.rank));
    const SparseTensor x = UniformSparseTensor(config.dims, config.nnz, rng);
    const std::vector<std::int64_t> ranks(static_cast<std::size_t>(order),
                                          config.rank);

    std::vector<Matrix> factors;
    for (std::int64_t n = 0; n < order; ++n) {
      Matrix factor(x.dim(n), config.rank);
      factor.FillUniform(rng);
      factors.push_back(std::move(factor));
    }
    DenseTensor core(ranks);
    core.FillUniform(rng);
    const CoreEntryList list(core);

    std::string name = "N=" + std::to_string(order) +
                       " J=" + std::to_string(config.rank) +
                       " nnz=" + std::to_string(config.nnz);
    if (config.dims[0] != config.dims.back()) name += " short";

    SweepResult naive;
    for (const DeltaEngineChoice choice : engines) {
      const char* label = DeltaEngineChoiceName(choice);
      SweepResult sweep = RunSweep(choice, x, list, factors, config.rank, 5);
      if (choice == DeltaEngineChoice::kNaive) {
        naive = std::move(sweep);
        table.AddRow({name, label, FormatDouble(naive.build_seconds, 4),
                      FormatDouble(naive.sweep_seconds, 4), "1.00x",
                      FormatDouble(SolveSeconds(choice, x, ranks), 4)});
        rec_table.AddRow(
            {name, label, FormatDouble(naive.rec_seconds, 4), "1.00x"});
        continue;
      }
      if (choice == DeltaEngineChoice::kContraction) {
        const double c = 2.0 * static_cast<double>(order + list.size()) *
                         std::ldexp(1.0, -53);
        const double delta_ratio = MaxBoundRatio(sweep.deltas, naive.deltas, c);
        const double xhat_ratio = MaxBoundRatio(sweep.xhat, naive.xhat, c);
        if (delta_ratio > 1.0 || xhat_ratio > 1.0) {
          std::fprintf(stderr,
                       "%s outside its bound on %s: delta %.3f, x-hat %.3f "
                       "of the bound\n",
                       label, name.c_str(), delta_ratio, xhat_ratio);
          return 1;
        }
      }
      const double delta_error = MaxAbsDiff(sweep.deltas, naive.deltas);
      if (delta_error > 1e-6) {
        std::fprintf(stderr, "delta mismatch for %s on %s: max err %.3e\n",
                     label, name.c_str(), delta_error);
        return 1;
      }
      const double xhat_error = MaxAbsDiff(sweep.xhat, naive.xhat);
      if (xhat_error > 1e-6) {
        std::fprintf(stderr, "x-hat mismatch for %s on %s: max err %.3e\n",
                     label, name.c_str(), xhat_error);
        return 1;
      }
      const double speedup = naive.sweep_seconds / sweep.sweep_seconds;
      if (choice == DeltaEngineChoice::kModeMajor && speedup > 1.0) {
        modemajor_beat_naive = true;
      }
      table.AddRow({name, label, FormatDouble(sweep.build_seconds, 4),
                    FormatDouble(sweep.sweep_seconds, 4),
                    FormatDouble(speedup, 2) + "x",
                    FormatDouble(SolveSeconds(choice, x, ranks), 4)});
      rec_table.AddRow(
          {name, label, FormatDouble(sweep.rec_seconds, 4),
           FormatDouble(naive.rec_seconds / sweep.rec_seconds, 2) + "x"});
    }
  }
  table.Print();
  std::printf("\nreconstruct sweep (x-hat for every observed entry):\n");
  rec_table.Print();

  std::printf("\nmodemajor beats naive on >=1 config (the gate): %s\n",
              modemajor_beat_naive ? "YES" : "NO");
  return modemajor_beat_naive ? 0 : 1;
}
