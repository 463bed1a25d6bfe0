// Fig. 9: P-Tucker vs P-Tucker-Approx on a MovieLens-like tensor (Jn=5,
// p=0.2) — (a) per-iteration running time, (b) error vs cumulative time.
// Expected shape: Approx's per-iteration time falls as |G| shrinks and
// crosses below P-Tucker's after a few iterations, at nearly the same
// final error. Judges the claim twice, under the default contraction
// δ-engine and under the naive one (the paper's cost model: δ linear in
// |G|), prints a verdict line for each and exits 1 when either fails.
#include <algorithm>
#include <vector>

#include "bench/bench_common.h"
#include "core/delta_engine.h"
#include "data/movielens_sim.h"

namespace {

using namespace ptucker;
using namespace ptucker::bench;

double IterationTotal(const MethodOutcome& outcome) {
  double total = 0.0;
  for (const auto& it : outcome.iterations) total += it.seconds;
  return total;
}

// Runs plain P-Tucker and Approx kRuns times each under `options`' δ-engine,
// prints the last run's iterations and one verdict line naming the engine,
// and returns whether the claim held.
bool JudgeApprox(const SparseTensor& x, const PTuckerOptions& options) {
  const char* engine = DeltaEngineChoiceName(options.delta_engine);
  PTuckerOptions approx_options = options;
  approx_options.variant = PTuckerVariant::kApprox;
  approx_options.truncation_rate = 0.2;

  // Alternating runs (plain first on even runs, Approx first on odd ones)
  // so drift on a shared host hits both sides alike. Each run's total is
  // the sum of its iteration times, the paper's Fig. 9 accounting.
  constexpr int kRuns = 5;
  std::vector<double> speedups;
  MethodOutcome plain, approx;
  bool same_errors = true;
  for (int run = 0; run < kRuns; ++run) {
    MethodOutcome p, a;
    if (run % 2 == 0) {
      p = RunMethod(PTuckerDecompose, x, options);
      a = RunMethod(PTuckerDecompose, x, approx_options);
    } else {
      a = RunMethod(PTuckerDecompose, x, approx_options);
      p = RunMethod(PTuckerDecompose, x, options);
    }
    if (run > 0) {
      same_errors = same_errors && p.final_error == plain.final_error &&
                    a.final_error == approx.final_error;
    }
    speedups.push_back(IterationTotal(p) / IterationTotal(a));
    plain = std::move(p);
    approx = std::move(a);
  }

  std::printf("\n%s delta-engine on both sides:\n", engine);
  TablePrinter table({"iter", "P-Tucker secs", "Approx secs", "Approx |G|",
                      "P-Tucker err", "Approx err"});
  for (std::size_t i = 0; i < plain.iterations.size(); ++i) {
    const auto& p = plain.iterations[i];
    const auto& a = approx.iterations[i];
    table.AddRow({std::to_string(p.iteration), FormatDouble(p.seconds, 3),
                  FormatDouble(a.seconds, 3), std::to_string(a.core_nnz),
                  FormatDouble(p.error, 3), FormatDouble(a.error, 3)});
  }
  table.Print();
  const double error_ratio = approx.final_error / plain.final_error;
  std::printf("\ntotal (last run): P-Tucker %.2fs, Approx %.2fs (%.2fx); "
              "final error ratio %.3f\n",
              IterationTotal(plain), IterationTotal(approx),
              IterationTotal(plain) / IterationTotal(approx), error_ratio);

  // The claim: at the same final error ratio in every run, Approx's total
  // time is at most P-Tucker's, i.e. the median speedup is >= 1.
  std::sort(speedups.begin(), speedups.end());
  const double median = speedups[speedups.size() / 2];
  const bool pass = same_errors && median >= 1.0;
  std::printf("verdict (%s delta-engine): claim Approx total time <= "
              "P-Tucker's at an equal final error ratio (%.3f, %s in all %d "
              "runs); median speedup over %d alternating runs %.2fx (min "
              "%.2fx, max %.2fx); bound >= 1.00x; %s\n",
              engine, error_ratio, same_errors ? "identical" : "DIFFERENT",
              kRuns, kRuns, median, speedups.front(), speedups.back(),
              pass ? "PASS" : "FAIL");
  return pass;
}

}  // namespace

int main() {
  MovieLensConfig config;
  config.num_users = 600;
  config.num_movies = 200;
  config.num_years = 12;
  config.num_hours = 24;
  config.nnz = 12000;
  config.seed = 9;
  MovieLensData data = SimulateMovieLens(config);

  PrintHeader("Figure 9: P-Tucker vs P-Tucker-Approx",
              "MovieLens-like (600x200x12x24, 12K nnz), Jn=5, p=0.2, "
              "8 iterations");

  PTuckerOptions options;
  options.core_dims = {5, 5, 5, 5};
  options.max_iterations = 8;
  options.tolerance = 0.0;  // run all iterations, as the figure does
  // The default engine, then the paper's cost model: the naive engine's δ
  // is linear in |G|, so truncation pays as in Fig. 9.
  const bool default_pass = JudgeApprox(data.tensor, options);
  PTuckerOptions naive_options = options;
  naive_options.delta_engine = DeltaEngineChoice::kNaive;
  const bool naive_pass = JudgeApprox(data.tensor, naive_options);
  return default_pass && naive_pass ? 0 : 1;
}
