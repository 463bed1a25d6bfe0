// Fig. 6(b): time per iteration vs mode dimensionality I.
// Paper setup: N=3, I=1e2..1e7, |Ω|=10·I, Jn=10. Scaled here to
// I=1e2..1e4 and Jn=5. Expected shape: P-Tucker
// fastest at every size; wOpt O.O.M. once the dense tensor outgrows the
// budget.
#include "bench/bench_common.h"
#include "data/synthetic.h"
#include "util/random.h"

int main() {
  using namespace ptucker;
  using namespace ptucker::bench;

  PrintHeader("Figure 6(b): data scalability vs dimensionality",
              "N=3, |Omega|=10*I, Jn=5, 2 iterations, budget=256MB");

  TablePrinter table({"I", "P-Tucker", "S-HOT", "Tucker-CSF",
                      "Tucker-wOpt"});
  for (const std::int64_t dim : {100, 300, 1000, 3000, 10000}) {
    Rng rng(200 + static_cast<std::uint64_t>(dim));
    SparseTensor x = UniformCubicTensor(3, dim, 10 * dim, rng);
    const std::vector<std::int64_t> ranks = {5, 5, 5};

    PTuckerOptions popt;
    popt.core_dims = ranks;
    popt.max_iterations = 2;
    popt.tolerance = 0.0;
    MethodOutcome ptucker = RunMethod(PTuckerDecompose, x, popt);

    HooiOptions sopt;
    sopt.core_dims = ranks;
    sopt.max_iterations = 2;
    sopt.tolerance = 0.0;
    MethodOutcome shot = RunMethod(ShotDecompose, x, sopt);

    HooiOptions hopt;
    hopt.core_dims = ranks;
    hopt.max_iterations = 2;
    hopt.tolerance = 0.0;
    MethodOutcome csf = RunMethod(TuckerCsfDecompose, x, hopt);

    HooiOptions wopt;
    wopt.core_dims = ranks;
    wopt.max_iterations = 2;
    wopt.tolerance = 0.0;
    MethodOutcome wopt_outcome = RunMethod(TuckerWoptDecompose, x, wopt);

    table.AddRow({std::to_string(dim), ptucker.TimeCell(), shot.TimeCell(),
                  csf.TimeCell(), wopt_outcome.TimeCell()});
  }
  table.Print();

  // --- The M-bottleneck cliff (Table I's "Scale" column). ---
  // At the paper's In=1e6..1e7 the materialized Y(n) of the HOOI family
  // is gigabytes; here the same cliff is shown with an 8 MB budget at
  // In=1e5: CSF/HOOI must materialize Y (In x J² doubles = 20 MB) and
  // die, while P-Tucker (O(T·J²)) and S-HOT (on-the-fly) keep running.
  PrintHeader("Figure 6(b) addendum: the M-bottleneck cliff",
              "N=3, In=100000, |Omega|=1e6, Jn=5, 1 iteration, "
              "budget=8MB");
  {
    const std::int64_t budget = 8LL * 1024 * 1024;
    Rng rng(299);
    SparseTensor x = UniformCubicTensor(3, 100000, 1000000, rng);
    const std::vector<std::int64_t> ranks = {5, 5, 5};

    PTuckerOptions popt;
    popt.core_dims = ranks;
    popt.max_iterations = 1;
    popt.tolerance = 0.0;
    MethodOutcome ptucker =
        RunMethod(PTuckerDecompose, x, popt, nullptr, budget);

    HooiOptions sopt;
    sopt.core_dims = ranks;
    sopt.max_iterations = 1;
    sopt.tolerance = 0.0;
    MethodOutcome shot = RunMethod(ShotDecompose, x, sopt, nullptr, budget);

    HooiOptions hopt;
    hopt.core_dims = ranks;
    hopt.max_iterations = 1;
    hopt.tolerance = 0.0;
    MethodOutcome hooi = RunMethod(HooiDecompose, x, hopt, nullptr, budget);
    MethodOutcome csf = RunMethod(TuckerCsfDecompose, x, hopt, nullptr, budget);

    HooiOptions wopt;
    wopt.core_dims = ranks;
    wopt.max_iterations = 1;
    MethodOutcome wopt_outcome =
        RunMethod(TuckerWoptDecompose, x, wopt, nullptr, budget);

    TablePrinter cliff({"method", "secs/iter", "intermediate memory"});
    cliff.AddRow({"P-Tucker", ptucker.TimeCell(), ptucker.MemoryCell()});
    cliff.AddRow({"S-HOT", shot.TimeCell(), shot.MemoryCell()});
    cliff.AddRow({"HOOI", hooi.TimeCell(), hooi.MemoryCell()});
    cliff.AddRow({"Tucker-CSF", csf.TimeCell(), csf.MemoryCell()});
    cliff.AddRow({"Tucker-wOpt", wopt_outcome.TimeCell(),
                  wopt_outcome.MemoryCell()});
    cliff.Print();
  }
  return 0;
}
