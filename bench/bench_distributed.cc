// Multi-process scaling bench for the real distributed solver
// (src/distributed/proc/): forked workers over socketpairs vs the
// single-process solver, N in {1, 2, 4, 8}. Every row is a real
// wall-clock run — and every run's factors are checked bit-identical to
// the baseline before its timing is reported, so a fast-but-wrong
// exchange cannot pass. Exits 1 if the determinism check fails or if
// 4-worker overhead exceeds the gate below.
#include <cstring>

#include "bench/bench_common.h"
#include "data/synthetic.h"
#include "distributed/proc/dist_solver.h"
#include "util/random.h"

int main() {
  using namespace ptucker;
  using namespace ptucker::bench;

  Rng rng(42);
  SparseTensor x = SkewedSparseTensor({200, 150, 100}, 60000, 1.2, rng);

  PTuckerOptions options;
  options.core_dims = {6, 6, 6};
  options.max_iterations = 2;
  options.tolerance = 0.0;
  options.num_threads = 1;  // one thread, like each forked worker

  PrintHeader("Distributed P-Tucker (forked processes over socketpairs)",
              "200x150x100 (skew 1.2), 60k nnz, J=6, 2 iterations; every "
              "run verified bit-identical to 1-process before timing");

  const PTuckerResult baseline = PTuckerDecompose(x, options);
  const double baseline_spi = baseline.SecondsPerIteration();

  TablePrinter table({"workers", "s/iter", "speed-up", "comm/iter"});
  table.AddRow({"1-proc", FormatDouble(baseline_spi, 4), "1.00", "-"});

  double four_worker_spi = baseline_spi;
  bool identical = true;
  for (const std::int64_t workers : {1, 2, 4, 8}) {
    DistOptions dist;
    dist.workers = workers;
    const DistributedPTuckerResult outcome =
        DistributedPTuckerDecompose(x, options, dist);

    // The determinism gate: bitwise equality, not a tolerance.
    for (std::size_t n = 0; n < baseline.model.factors.size(); ++n) {
      const Matrix& a = baseline.model.factors[n];
      const Matrix& b = outcome.result.model.factors[n];
      identical &= std::memcmp(a.data(), b.data(),
                               static_cast<std::size_t>(a.rows() * a.cols()) *
                                   sizeof(double)) == 0;
    }
    identical &= std::memcmp(baseline.model.core.data(),
                             outcome.result.model.core.data(),
                             static_cast<std::size_t>(
                                 baseline.model.core.size()) *
                                 sizeof(double)) == 0;
    identical &= baseline.final_error == outcome.result.final_error;

    const double spi = outcome.result.SecondsPerIteration();
    if (workers == 4) four_worker_spi = spi;
    table.AddRow({std::to_string(workers), FormatDouble(spi, 4),
                  FormatDouble(baseline_spi / spi, 2),
                  FormatBytes(outcome.stats.total_comm_bytes /
                              outcome.stats.iterations_run)});
  }
  table.Print();

  if (!identical) {
    std::printf("\nFAIL: a distributed run diverged from the 1-process "
                "factors — the bit-identity contract is broken\n");
    return 1;
  }
  // Overhead gate, not a speed-up gate: CI runs on 1-2 cores, where N
  // forked workers time-slice one core and the best case is parity. The
  // contract is that the exchange protocol costs little enough that 4
  // workers stay within ~15% of the single process even with zero
  // parallel hardware; on real multi-core boxes the table shows the
  // actual speed-up.
  const double gate = 1.15 * baseline_spi + 0.010;
  if (four_worker_spi > gate) {
    std::printf("\nFAIL: 4-worker s/iter %.4f exceeds the overhead gate "
                "%.4f (1-proc %.4f)\n",
                four_worker_spi, gate, baseline_spi);
    return 1;
  }
  std::printf("\n(all runs bit-identical to the single process; 4-worker "
              "overhead gate passed: %.4f <= %.4f s/iter)\n",
              four_worker_spi, gate);
  return 0;
}
