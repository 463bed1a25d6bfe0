#include "baselines/common.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/stopwatch.h"
#include "util/logging.h"

namespace ptucker {

void ValidateBaselineInputs(const char* method, const SparseTensor& x,
                            const HooiOptions& options) {
  const auto fail = [method](const char* what) {
    throw std::invalid_argument(std::string(method) + ": " + what);
  };
  if (x.nnz() == 0) fail("tensor has no observed entries");
  if (static_cast<std::int64_t>(options.core_dims.size()) != x.order()) {
    fail("core_dims order mismatch");
  }
  for (std::int64_t n = 0; n < x.order(); ++n) {
    const std::int64_t rank = options.core_dims[static_cast<std::size_t>(n)];
    if (rank < 1 || rank > x.dim(n)) fail("requires 1 <= Jn <= In");
  }
  if (options.max_iterations < 1) fail("max_iterations must be >= 1");
}

bool RunBaselineIterations(const char* method, int max_iterations,
                           double tolerance, MemoryTracker* tracker,
                           bool verbose,
                           const std::function<BaselineIteration(int)>& body,
                           std::vector<IterationStats>* iterations) {
  double previous_error = std::numeric_limits<double>::infinity();
  for (int iteration = 1; iteration <= max_iterations; ++iteration) {
    Stopwatch iteration_clock;
    const BaselineIteration outcome = body(iteration);
    if (outcome.stalled) return true;
    IterationStats stats;
    stats.iteration = iteration;
    stats.error = outcome.error;
    stats.seconds = iteration_clock.ElapsedSeconds();
    stats.core_nnz = outcome.core_nnz;
    stats.peak_intermediate_bytes =
        tracker != nullptr ? tracker->peak_bytes() : 0;
    iterations->push_back(stats);
    if (verbose) {
      PTUCKER_LOG(kInfo) << method << " iteration " << iteration
                         << ": error=" << outcome.error;
    }

    const double change = std::fabs(previous_error - outcome.error) /
                          std::max(previous_error, 1e-12);
    previous_error = outcome.error;
    if (change < tolerance) return true;
  }
  return false;
}

}  // namespace ptucker
