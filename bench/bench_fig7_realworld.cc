// Fig. 7: time per iteration on the four real-world tensors (simulated at
// scale; see bench/datasets.h). Expected shape: P-Tucker and
// P-Tucker-Approx fastest everywhere; wOpt O.O.M. on the two big rating
// tensors but runs on video/image — exactly the paper's empty bars.
#include "bench/bench_common.h"
#include "bench/datasets.h"

int main() {
  using namespace ptucker;
  using namespace ptucker::bench;

  PrintHeader("Figure 7: time per iteration on real-world-like tensors",
              "2 iterations per method, budget=256MB");

  TablePrinter table({"dataset", "P-Tucker", "P-Tucker-Approx", "S-HOT",
                      "Tucker-CSF", "Tucker-wOpt"});
  for (Dataset& dataset : AllRealWorldLike()) {
    PTuckerOptions popt;
    popt.core_dims = dataset.ranks;
    popt.max_iterations = 2;
    popt.tolerance = 0.0;
    MethodOutcome ptucker = RunMethod(PTuckerDecompose, dataset.tensor, popt);

    popt.variant = PTuckerVariant::kApprox;
    MethodOutcome approx = RunMethod(PTuckerDecompose, dataset.tensor, popt);

    HooiOptions sopt;
    sopt.core_dims = dataset.ranks;
    sopt.max_iterations = 2;
    sopt.tolerance = 0.0;
    MethodOutcome shot = RunMethod(ShotDecompose, dataset.tensor, sopt);

    HooiOptions hopt;
    hopt.core_dims = dataset.ranks;
    hopt.max_iterations = 2;
    hopt.tolerance = 0.0;
    MethodOutcome csf = RunMethod(TuckerCsfDecompose, dataset.tensor, hopt);

    HooiOptions wopt;
    wopt.core_dims = dataset.ranks;
    wopt.max_iterations = 2;
    MethodOutcome wopt_outcome =
        RunMethod(TuckerWoptDecompose, dataset.tensor, wopt);

    table.AddRow({dataset.name, ptucker.TimeCell(), approx.TimeCell(),
                  shot.TimeCell(), csf.TimeCell(),
                  wopt_outcome.TimeCell()});
  }
  table.Print();
  return 0;
}
