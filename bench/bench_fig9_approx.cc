// Fig. 9: P-Tucker vs P-Tucker-Approx on a MovieLens-like tensor (Jn=5,
// p=0.2) — (a) per-iteration running time, (b) error vs cumulative time.
// Expected shape: Approx's per-iteration time falls as |G| shrinks and
// crosses below P-Tucker's after a few iterations, at nearly the same
// final error. Prints a verdict line and exits 1 when the claim fails.
#include <algorithm>
#include <vector>

#include "bench/bench_common.h"
#include "data/movielens_sim.h"

namespace {

double IterationTotal(const ptucker::bench::MethodOutcome& outcome) {
  double total = 0.0;
  for (const auto& it : outcome.iterations) total += it.seconds;
  return total;
}

}  // namespace

int main() {
  using namespace ptucker;
  using namespace ptucker::bench;

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
      p = RunPTucker(data.tensor, options);
      a = RunPTucker(data.tensor, approx_options);
    } else {
      a = RunPTucker(data.tensor, approx_options);
      p = RunPTucker(data.tensor, options);
    }
    if (run > 0) {
      same_errors = same_errors && p.final_error == plain.final_error &&
                    a.final_error == approx.final_error;
    }
    speedups.push_back(IterationTotal(p) / IterationTotal(a));
    plain = std::move(p);
    approx = std::move(a);
  }

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
  std::printf("verdict: claim Approx total time <= P-Tucker's at an equal "
              "final error ratio (%.3f, %s in all %d runs); median speedup "
              "over %d alternating runs %.2fx (min %.2fx, max %.2fx); "
              "bound >= 1.00x; %s\n",
              error_ratio, same_errors ? "identical" : "DIFFERENT", kRuns,
              kRuns, median, speedups.front(), speedups.back(),
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
