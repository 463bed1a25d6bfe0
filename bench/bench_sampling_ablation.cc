// Ablation of the entry-sampling extension — the paper's future work:
// "applying sampling techniques on observable entries to accelerate
// decompositions, while sacrificing little accuracy". Sweeps sample_rate
// and reports time per iteration, training error, and test RMSE.
#include "bench/bench_common.h"
#include "data/lowrank.h"
#include "data/split.h"
#include "util/random.h"

int main() {
  using namespace ptucker;
  using namespace ptucker::bench;

  PrintHeader("Ablation: entry-sampled row updates (paper future work)",
              "planted low-rank 200x150x100 tensor, 50K nnz, J=4, "
              "8 iterations, 90/10 split");

  Rng rng(0x5A);
  PlantedTucker model = RandomTuckerModel({200, 150, 100}, {4, 4, 4}, rng);
  SparseTensor x = SampleFromModel(model, 50000, 0.02, rng);
  auto split = SplitObservedEntries(x, 0.1, rng);

  TablePrinter table({"sample_rate", "secs/iter", "speed-up vs exact",
                      "recon error", "test RMSE"});
  double exact_time = 0.0;
  for (const double rate : {1.0, 0.5, 0.25, 0.1, 0.05}) {
    PTuckerOptions options;
    options.core_dims = {4, 4, 4};
    options.max_iterations = 8;
    options.tolerance = 0.0;
    options.sample_rate = rate;
    MethodOutcome outcome =
        RunMethod(PTuckerDecompose, split.train, options, &split.test);
    if (rate == 1.0) exact_time = outcome.seconds_per_iteration;
    table.AddRow({FormatDouble(rate, 2), outcome.TimeCell(),
                  FormatDouble(exact_time / outcome.seconds_per_iteration, 2),
                  outcome.ErrorCell(), outcome.RmseCell()});
  }
  table.Print();
  std::printf("\n(expected: time falls roughly with the rate while RMSE "
              "degrades only mildly until very small rates — 'sacrificing "
              "little accuracy')\n");
  return 0;
}
