// Fig. 6(d): time per iteration vs rank Jn.
// Paper setup: N=3, In=1e6, |Ω|=1e7, Jn=3..11; wOpt O.O.M. at all ranks.
// Scaled here to In=3000, |Ω|=3e4. Expected shape: all HOOI-family costs
// grow steeply with J (Jᴺ⁻¹ TTMc columns); P-Tucker stays fastest.
#include "bench/bench_common.h"
#include "data/synthetic.h"
#include "util/random.h"

int main() {
  using namespace ptucker;
  using namespace ptucker::bench;

  PrintHeader("Figure 6(d): data scalability vs rank",
              "N=3, In=3000, |Omega|=30000, 2 iterations, budget=256MB");

  TablePrinter table({"rank", "P-Tucker", "S-HOT", "Tucker-CSF",
                      "Tucker-wOpt"});
  for (const std::int64_t rank : {3, 5, 7, 9, 11}) {
    Rng rng(400 + static_cast<std::uint64_t>(rank));
    SparseTensor x = UniformCubicTensor(3, 3000, 30000, rng);
    const std::vector<std::int64_t> ranks(3, rank);

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

    table.AddRow({std::to_string(rank), ptucker.TimeCell(),
                  shot.TimeCell(), csf.TimeCell(),
                  wopt_outcome.TimeCell()});
  }
  table.Print();
  return 0;
}
