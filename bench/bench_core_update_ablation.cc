// Ablation of the core-update extension (docs/benchmarks.md): the paper
// keeps the core fixed at its random initialization during ALS
// (Algorithm 2) and only folds QR factors in at the end; the extension
// re-fits the core to the observed entries each iteration. This bench
// quantifies what the fixed-core design costs/gains in accuracy and time.
#include "bench/bench_common.h"
#include "bench/datasets.h"
#include "data/split.h"

int main() {
  using namespace ptucker;
  using namespace ptucker::bench;

  PrintHeader("Ablation: fixed random core (paper) vs core update "
              "(extension)",
              "8 iterations, 90/10 split");

  TablePrinter table({"dataset", "variant", "secs/iter", "recon error",
                      "test RMSE"});
  std::vector<Dataset> datasets;
  datasets.push_back(MovieLensLike());
  datasets.push_back(ImageLike());
  for (Dataset& dataset : datasets) {
    Rng rng(77);
    auto split = SplitObservedEntries(dataset.tensor, 0.1, rng);

    PTuckerOptions options;
    options.core_dims = dataset.ranks;
    options.max_iterations = 8;
    MethodOutcome fixed =
        RunMethod(PTuckerDecompose, split.train, options, &split.test);
    table.AddRow({dataset.name, "fixed core (paper)", fixed.TimeCell(),
                  fixed.ErrorCell(), fixed.RmseCell()});

    options.update_core = true;
    MethodOutcome updated =
        RunMethod(PTuckerDecompose, split.train, options, &split.test);
    table.AddRow({dataset.name, "core update (ext)", updated.TimeCell(),
                  updated.ErrorCell(), updated.RmseCell()});
  }
  table.Print();
  std::printf("\n(expected: the extension fits the training data at least "
              "as well per iteration at extra per-iteration cost)\n");
  return 0;
}
