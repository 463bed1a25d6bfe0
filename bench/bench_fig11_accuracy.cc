// Fig. 11: accuracy on real-world-like tensors — reconstruction error
// (left) and test RMSE on a 90/10 split (right) for every method.
// Expected shape: P-Tucker lowest on both metrics; wOpt competitive where
// it fits in memory; S-HOT/CSF (zero-imputing) clearly worse; wOpt
// O.O.M. on the two large rating tensors.
#include "bench/bench_common.h"
#include "bench/datasets.h"
#include "data/split.h"

int main() {
  using namespace ptucker;
  using namespace ptucker::bench;

  PrintHeader("Figure 11: accuracy on real-world-like tensors",
              "90/10 train/test split, 8 iterations, budget=256MB");

  TablePrinter error_table({"dataset", "P-Tucker", "S-HOT", "Tucker-CSF",
                            "Tucker-wOpt"});
  TablePrinter rmse_table({"dataset", "P-Tucker", "S-HOT", "Tucker-CSF",
                           "Tucker-wOpt"});
  for (Dataset& dataset : AllRealWorldLike()) {
    Rng rng(0xF16 + dataset.tensor.nnz());
    auto split = SplitObservedEntries(dataset.tensor, 0.1, rng);

    PTuckerOptions popt;
    popt.core_dims = dataset.ranks;
    popt.max_iterations = 8;
    MethodOutcome ptucker =
        RunMethod(PTuckerDecompose, split.train, popt, &split.test);

    HooiOptions sopt;
    sopt.core_dims = dataset.ranks;
    sopt.max_iterations = 8;
    MethodOutcome shot =
        RunMethod(ShotDecompose, split.train, sopt, &split.test);

    HooiOptions hopt;
    hopt.core_dims = dataset.ranks;
    hopt.max_iterations = 8;
    MethodOutcome csf =
        RunMethod(TuckerCsfDecompose, split.train, hopt, &split.test);

    // NCG needs more (cheap) iterations than ALS to converge; the paper's
    // 20-iteration cap applied to its Matlab implementation whose single
    // "iteration" runs many inner line-search steps.
    HooiOptions wopt;
    wopt.core_dims = dataset.ranks;
    wopt.max_iterations = 60;
    wopt.tolerance = 1e-6;
    MethodOutcome wopt_outcome =
        RunMethod(TuckerWoptDecompose, split.train, wopt, &split.test);

    error_table.AddRow({dataset.name, ptucker.ErrorCell(), shot.ErrorCell(),
                        csf.ErrorCell(), wopt_outcome.ErrorCell()});
    rmse_table.AddRow({dataset.name, ptucker.RmseCell(), shot.RmseCell(),
                       csf.RmseCell(), wopt_outcome.RmseCell()});
  }
  std::printf("\nReconstruction error (Eq. 5, on training entries):\n");
  error_table.Print();
  std::printf("\nTest RMSE (missing-entry prediction):\n");
  rmse_table.Print();
  return 0;
}
