// Fig. 6(c): time per iteration vs number of observable entries |Ω|.
// Paper setup: N=3, In=1e7, |Ω|=1e3..1e7, Jn=10; wOpt O.O.M. everywhere.
// Scaled here to In=1e4, |Ω|=1e3..1e6, Jn=5. Expected shape: P-Tucker
// near-linear in |Ω| and fastest; wOpt O.O.M. for all sizes.
#include "bench/bench_common.h"
#include "data/synthetic.h"
#include "util/random.h"

int main() {
  using namespace ptucker;
  using namespace ptucker::bench;

  PrintHeader("Figure 6(c): data scalability vs |Omega|",
              "N=3, In=10000, Jn=5, 2 iterations, budget=256MB");

  TablePrinter table({"nnz", "P-Tucker", "S-HOT", "Tucker-CSF",
                      "Tucker-wOpt"});
  for (const std::int64_t nnz : {1000, 10000, 100000, 1000000}) {
    Rng rng(300 + static_cast<std::uint64_t>(nnz));
    SparseTensor x = UniformCubicTensor(3, 10000, nnz, rng);
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
    MethodOutcome wopt_outcome = RunMethod(TuckerWoptDecompose, x, wopt);

    table.AddRow({std::to_string(nnz), ptucker.TimeCell(), shot.TimeCell(),
                  csf.TimeCell(), wopt_outcome.TimeCell()});
  }
  table.Print();
  std::printf("\n(P-Tucker's column should grow ~linearly with nnz — the "
              "paper's near-linear scalability claim)\n");
  return 0;
}
