// Fig. 8: P-Tucker vs P-Tucker-Cache — running time (a) and intermediate
// memory (b) as the tensor order grows. Paper setup: In=100, |Ω|=1e3,
// Jn=3, N=6..10; scaled to In=30, N=4..7. Expected shape: the cache
// variant is faster (bigger gap at higher order: O(N) vs O(N²) per-pair
// work) but uses orders of magnitude more memory (|Ω|·|G| vs T·J²).
#include "bench/bench_common.h"
#include "data/synthetic.h"
#include "util/random.h"

int main() {
  using namespace ptucker;
  using namespace ptucker::bench;

  PrintHeader("Figure 8: P-Tucker vs P-Tucker-Cache (time & memory)",
              "In=30, |Omega|=1000, Jn=3, 3 iterations");

  TablePrinter table({"order", "P-Tucker time", "Cache time",
                      "P-Tucker memory", "Cache memory"});
  for (std::int64_t order = 4; order <= 7; ++order) {
    Rng rng(800 + static_cast<std::uint64_t>(order));
    SparseTensor x = UniformCubicTensor(order, 30, 1000, rng);
    const std::vector<std::int64_t> ranks(static_cast<std::size_t>(order), 3);

    PTuckerOptions options;
    options.core_dims = ranks;
    options.max_iterations = 3;
    options.tolerance = 0.0;
    // Pin the paper's entry-major scan: Fig. 8 measures the cache trade
    // against Algorithm 3 as published, not against the mode-major
    // default (bench_delta_engines covers that comparison).
    options.delta_engine = DeltaEngineChoice::kNaive;
    MethodOutcome memory_variant = RunMethod(PTuckerDecompose, x, options);

    options.delta_engine = DeltaEngineChoice::kCached;  // P-TUCKER-CACHE
    MethodOutcome cache_variant = RunMethod(PTuckerDecompose, x, options);

    table.AddRow({std::to_string(order), memory_variant.TimeCell(),
                  cache_variant.TimeCell(), memory_variant.MemoryCell(),
                  cache_variant.MemoryCell()});
  }
  table.Print();
  std::printf("\n(expected: Cache faster per iteration, P-Tucker orders of "
              "magnitude smaller in memory — the paper's 1.7x time / 29.5x "
              "memory trade)\n");
  return 0;
}
