// Table III empirical check: P-Tucker's per-iteration time should scale
// ~linearly in |Ω| and its intermediate memory should track O(T·J²) —
// independent of In and |Ω|. Prints measured ratios next to the
// theoretical ones.
#include "bench/bench_common.h"
#include "data/synthetic.h"
#include "util/random.h"

int main() {
  using namespace ptucker;
  using namespace ptucker::bench;

  PrintHeader("Table III empirical check: time & memory scaling",
              "P-Tucker (memory variant), 2 iterations per point");

  // --- Time vs |Ω| (expected slope ~1). ---
  {
    TablePrinter table({"nnz", "secs/iter", "ratio vs previous",
                        "expected ratio"});
    double previous = 0.0;
    for (const std::int64_t nnz : {20000, 40000, 80000, 160000}) {
      Rng rng(1 + static_cast<std::uint64_t>(nnz));
      SparseTensor x = UniformCubicTensor(3, 5000, nnz, rng);
      PTuckerOptions options;
      options.core_dims = {5, 5, 5};
      options.max_iterations = 2;
      options.tolerance = 0.0;
      MethodOutcome outcome = RunPTucker(x, options);
      table.AddRow({std::to_string(nnz),
                    FormatDouble(outcome.seconds_per_iteration, 4),
                    previous > 0.0
                        ? FormatDouble(outcome.seconds_per_iteration /
                                           previous, 2)
                        : "-",
                    previous > 0.0 ? "2.00" : "-"});
      previous = outcome.seconds_per_iteration;
    }
    std::printf("\nTime vs |Omega| (N=3, In=5000, J=5): linear expected\n");
    table.Print();
  }

  // --- Intermediate memory vs In (expected flat: O(T·J²)). ---
  {
    TablePrinter table({"In", "peak intermediate bytes",
                        "slice-ordered Omega bytes"});
    for (const std::int64_t dim : {1000, 4000, 16000}) {
      Rng rng(50 + static_cast<std::uint64_t>(dim));
      SparseTensor x = UniformCubicTensor(3, dim, 20000, rng);
      PTuckerOptions options;
      options.core_dims = {5, 5, 5};
      options.max_iterations = 1;
      options.tolerance = 0.0;
      MethodOutcome outcome = RunPTucker(x, options);
      table.AddRow({std::to_string(dim),
                    std::to_string(outcome.peak_intermediate_bytes),
                    std::to_string(outcome.slice_layout_bytes)});
    }
    std::printf("\nIntermediate memory vs In (Theorem 4: independent of "
                "In; the row sweeps' O(N*|Omega| + sum In) copy of the "
                "input is listed apart)\n");
    table.Print();
  }

  // --- Intermediate memory vs J (expected ~J²). ---
  {
    TablePrinter table({"J", "peak intermediate bytes",
                        "ratio vs previous", "expected (~J^2)"});
    std::int64_t previous = 0;
    double expected_prev = 0.0;
    for (const std::int64_t rank : {4, 8, 16}) {
      Rng rng(90 + static_cast<std::uint64_t>(rank));
      SparseTensor x = UniformCubicTensor(3, 500, 10000, rng);
      PTuckerOptions options;
      options.core_dims = {rank, rank, rank};
      options.max_iterations = 1;
      options.tolerance = 0.0;
      MethodOutcome outcome = RunPTucker(x, options);
      const double expected = static_cast<double>(rank * rank);
      table.AddRow(
          {std::to_string(rank),
           std::to_string(outcome.peak_intermediate_bytes),
           previous > 0
               ? FormatDouble(static_cast<double>(
                                  outcome.peak_intermediate_bytes) /
                                  static_cast<double>(previous), 2)
               : "-",
           previous > 0 ? FormatDouble(expected / expected_prev, 2) : "-"});
      previous = outcome.peak_intermediate_bytes;
      expected_prev = expected;
    }
    std::printf("\nIntermediate memory vs J (Theorem 4: O(T*J^2); the +3J "
                "vector term makes small-J ratios land below J^2)\n");
    table.Print();
  }
  return 0;
}
