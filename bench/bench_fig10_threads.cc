// Fig. 10: parallelization scalability — speed-up Time1/TimeT and
// intermediate memory vs number of threads T. Paper: T=1..20 on a 20-core
// machine, N=3, In=1e6, |Ω|=1e7; scaled here to T∈{1,2,4} on 2 physical
// cores, In=3000, |Ω|=1e5. Expected shape: near-linear speed-up up to the
// physical core count and memory growing linearly in T (Theorem 4's
// O(T·J²)).
#include "bench/bench_common.h"
#include "data/synthetic.h"
#include "util/random.h"

int main() {
  using namespace ptucker;
  using namespace ptucker::bench;

  PrintHeader("Figure 10: speed-up and memory vs number of threads",
              "N=3, In=3000, |Omega|=100000, Jn=5, 3 iterations");

  Rng rng(1000);
  SparseTensor x = UniformCubicTensor(3, 3000, 100000, rng);

  TablePrinter table({"threads", "secs/iter", "speed-up T1/TT",
                      "intermediate memory"});
  double time_one = 0.0;
  for (const int threads : {1, 2, 4}) {
    PTuckerOptions options;
    options.core_dims = {5, 5, 5};
    options.max_iterations = 3;
    options.tolerance = 0.0;
    options.num_threads = threads;
    MethodOutcome outcome = RunMethod(PTuckerDecompose, x, options);
    if (threads == 1) time_one = outcome.seconds_per_iteration;
    table.AddRow({std::to_string(threads),
                  FormatDouble(outcome.seconds_per_iteration, 3),
                  FormatDouble(time_one / outcome.seconds_per_iteration, 2),
                  outcome.MemoryCell()});
  }
  table.Print();
  std::printf("\n(this container has 2 physical cores: expect ~2x speed-up "
              "at T=2 and saturation at T=4; the paper reaches ~15x at "
              "T=20 on 20 cores)\n");
  return 0;
}
