// Fig. 6(a): time per iteration vs tensor order N.
// Paper setup: In=100, |Ω|=1e3, Jn=3, N=3..10 on a 20-core machine.
// Scaled here to In=30, N=3..7. Expected shape:
// P-Tucker fastest; S-HOT/CSF slower but running at every order;
// TUCKER-WOPT slowest and O.O.M. beyond small orders.
#include "bench/bench_common.h"
#include "data/synthetic.h"
#include "util/random.h"

int main() {
  using namespace ptucker;
  using namespace ptucker::bench;

  PrintHeader("Figure 6(a): data scalability vs tensor order",
              "In=30, |Omega|=1000, Jn=3, 2 iterations, budget=256MB");

  TablePrinter table({"order", "P-Tucker", "P-Tucker-Approx", "S-HOT",
                      "Tucker-CSF", "Tucker-wOpt"});
  for (std::int64_t order = 3; order <= 7; ++order) {
    Rng rng(100 + static_cast<std::uint64_t>(order));
    SparseTensor x = UniformCubicTensor(order, 30, 1000, rng);
    const std::vector<std::int64_t> ranks(static_cast<std::size_t>(order), 3);

    PTuckerOptions popt;
    popt.core_dims = ranks;
    popt.max_iterations = 2;
    popt.tolerance = 0.0;
    MethodOutcome ptucker = RunMethod(PTuckerDecompose, x, popt);

    popt.variant = PTuckerVariant::kApprox;
    MethodOutcome approx = RunMethod(PTuckerDecompose, x, popt);

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

    table.AddRow({std::to_string(order), ptucker.TimeCell(),
                  approx.TimeCell(), shot.TimeCell(), csf.TimeCell(),
                  wopt_outcome.TimeCell()});
  }
  table.Print();
  std::printf("\n(cells are seconds/iteration; O.O.M. = exceeded the "
              "intermediate-memory budget, as in the paper)\n");
  return 0;
}
