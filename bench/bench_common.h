#ifndef PTUCKER_BENCH_BENCH_COMMON_H_
#define PTUCKER_BENCH_BENCH_COMMON_H_

// Shared harness for the per-figure benchmark binaries. Every experiment
// in docs/benchmarks.md runs each method through RunMethod(), which
// captures the paper's reporting unit (average seconds/iteration), the
// accuracy metrics, tracked peak intermediate memory, and the O.O.M.
// outcome when the method exceeds the budget — so benches print the same
// rows the paper's figures plot.

#include <cstdio>
#include <functional>
#include <string>

#include "baselines/common.h"
#include "baselines/hooi.h"
#include "baselines/shot.h"
#include "baselines/tucker_csf.h"
#include "baselines/tucker_wopt.h"
#include "core/ptucker.h"
#include "core/reconstruction.h"
#include "util/format.h"
#include "util/memory_tracker.h"

namespace ptucker::bench {

/// Default intermediate-memory budget standing in for the paper's 512 GB
/// machine, scaled down like the benches' inputs (docs/benchmarks.md).
constexpr std::int64_t kDefaultBudgetBytes = 256LL * 1024 * 1024;

struct MethodOutcome {
  bool ok = false;
  bool oom = false;
  double seconds_per_iteration = 0.0;
  double total_seconds = 0.0;
  double final_error = 0.0;
  double test_rmse = 0.0;
  std::int64_t peak_intermediate_bytes = 0;
  /// P-Tucker's slice-ordered copy of Ω (not intermediate data; 0 for
  /// the Tucker baselines).
  std::int64_t slice_layout_bytes = 0;
  TuckerFactorization model;
  std::vector<IterationStats> iterations;

  std::string TimeCell() const {
    if (oom) return "O.O.M.";
    if (!ok) return "n/a";
    return FormatDouble(seconds_per_iteration, 4);
  }
  std::string ErrorCell() const {
    if (oom) return "O.O.M.";
    if (!ok) return "n/a";
    return FormatDouble(final_error, 4);
  }
  std::string RmseCell() const {
    if (oom) return "O.O.M.";
    if (!ok) return "n/a";
    return FormatDouble(test_rmse, 4);
  }
  std::string MemoryCell() const {
    if (oom) return "O.O.M.";
    if (!ok) return "n/a";
    return FormatBytes(peak_intermediate_bytes);
  }
};

/// Runs `body` (which must fill the outcome on success) under a fresh
/// budgeted tracker; converts OutOfMemoryBudget into an OOM outcome, as
/// the paper reports for oversized methods.
template <typename Body>
MethodOutcome RunWithBudget(std::int64_t budget_bytes, Body&& body) {
  MethodOutcome outcome;
  MemoryTracker tracker(budget_bytes);
  try {
    body(&tracker, &outcome);
    outcome.ok = true;
    outcome.peak_intermediate_bytes = tracker.peak_bytes();
  } catch (const OutOfMemoryBudget&) {
    outcome.oom = true;
  }
  return outcome;
}

/// Runs `decompose(x, options)`: PTuckerDecompose, CpAlsDecompose or a
/// Tucker baseline, with `options.tracker` set to RunWithBudget's
/// tracker, and fills the outcome from its PTuckerResult, plus the RMSE
/// on `test` when given.
template <typename Decompose, typename Options>
MethodOutcome RunMethod(Decompose&& decompose, const SparseTensor& x,
                        Options options, const SparseTensor* test = nullptr,
                        std::int64_t budget = kDefaultBudgetBytes) {
  return RunWithBudget(budget, [&](MemoryTracker* tracker,
                                   MethodOutcome* outcome) {
    options.tracker = tracker;
    PTuckerResult result = decompose(x, options);
    outcome->seconds_per_iteration = result.SecondsPerIteration();
    outcome->total_seconds = result.total_seconds;
    outcome->final_error = result.final_error;
    outcome->slice_layout_bytes = result.slice_layout_bytes;
    outcome->iterations = result.iterations;
    if (test != nullptr) {
      outcome->test_rmse =
          TestRmse(*test, result.model.core, result.model.factors);
    }
    outcome->model = std::move(result.model);
  });
}

inline void PrintHeader(const std::string& title, const std::string& setup) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", setup.c_str());
  std::printf("================================================================\n");
}

}  // namespace ptucker::bench

#endif  // PTUCKER_BENCH_BENCH_COMMON_H_
