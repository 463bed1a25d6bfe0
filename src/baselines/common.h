#ifndef PTUCKER_BASELINES_COMMON_H_
#define PTUCKER_BASELINES_COMMON_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/ptucker.h"
#include "core/trace.h"
#include "tensor/sparse_tensor.h"
#include "util/memory_tracker.h"

namespace ptucker {

/// Configuration shared by the Tucker baselines (HOOI, S-HOT, TUCKER-CSF
/// and TUCKER-WOPT).
struct HooiOptions {
  std::vector<std::int64_t> core_dims;
  /// ALS sweeps (NCG iterations for TUCKER-WOPT); the paper caps all
  /// methods at 20 iterations.
  int max_iterations = 20;
  double tolerance = 1e-4;
  std::uint64_t seed = 0x5eedULL;
  MemoryTracker* tracker = nullptr;
  bool verbose = false;
};

/// The Tucker baselines' input checks. Throws std::invalid_argument, the
/// message prefixed with `method`, when `x` has no observed entry, when
/// `options.core_dims` does not hold one rank per mode, when a rank Jn
/// lies outside [1, In], or when `options.max_iterations` is below 1.
void ValidateBaselineInputs(const char* method, const SparseTensor& x,
                            const HooiOptions& options);

/// What one baseline iteration reports to RunBaselineIterations.
struct BaselineIteration {
  /// Reconstruction error after the iteration.
  double error = 0.0;
  /// Nonzero core entries |G| after the iteration.
  std::int64_t core_nnz = 0;
  /// The iteration found no progress to make (TUCKER-WOPT's line search
  /// accepted no step): the loop stops as converged and records nothing
  /// for it.
  bool stalled = false;
};

/// The baselines' one iteration loop. Runs `body(k)` for k = 1, 2, … up
/// to `max_iterations`, timing each call. For every call that did not
/// stall it appends an IterationStats (iteration, error, seconds, |G| and
/// the tracker's peak bytes, 0 without a tracker) to `iterations` and,
/// when `verbose`, logs "<method> iteration k: error=…". Stops once the
/// relative change |prev − error| / max(prev, 1e-12) falls below
/// `tolerance`, or at a stalled call. Returns whether it stopped for
/// either reason (false when it ran out of iterations).
bool RunBaselineIterations(const char* method, int max_iterations,
                           double tolerance, MemoryTracker* tracker,
                           bool verbose,
                           const std::function<BaselineIteration(int)>& body,
                           std::vector<IterationStats>* iterations);

}  // namespace ptucker

#endif  // PTUCKER_BASELINES_COMMON_H_
