/// \file
/// \brief The P-Tucker solver entry point (paper Algorithm 2): row-wise
/// ALS Tucker factorization of a sparse, partially observed tensor, and
/// the TuckerFactorization / PTuckerResult output types.
#ifndef PTUCKER_CORE_PTUCKER_H_
#define PTUCKER_CORE_PTUCKER_H_

#include <cstdint>
#include <vector>

#include "core/options.h"
#include "core/trace.h"
#include "linalg/matrix.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"

namespace ptucker {

/// A fitted Tucker model: X ≈ G ×1 A(1) ··· ×N A(N).
struct TuckerFactorization {
  std::vector<Matrix> factors;  ///< A(n) ∈ R^{In×Jn}
  DenseTensor core;             ///< G ∈ R^{J1×…×JN}

  /// Predicted value at a coordinate (Eq. 4) — the paper's missing-entry
  /// estimate, *not* zero.
  double Predict(const std::int64_t* index) const;
  /// Vector-coordinate convenience overload of Predict.
  double Predict(const std::vector<std::int64_t>& index) const;
};

/// Outcome of a decomposition: PTuckerDecompose, CP-ALS and the Tucker
/// baselines (src/baselines/) all return it.
struct PTuckerResult {
  /// The fitted model (factors orthogonalized when the option is on; for
  /// CP-ALS the superdiagonal core of ones and the raw factors).
  TuckerFactorization model;
  /// Per-iteration error/time/memory measurements.
  std::vector<IterationStats> iterations;
  /// True if the error converged before max_iterations.
  bool converged = false;
  /// Reconstruction error (Eq. 5) of the returned model on the input.
  /// From P-Tucker's driver (PTuckerDecompose, CP-ALS) it is
  /// ReconstructionError(x, model.core, model.factors) bit for bit,
  /// computed by the entry-major oracle after the solve's engine is
  /// released, whichever engine ran the loop.
  double final_error = 0.0;
  /// Wall-clock seconds of the whole solve.
  double total_seconds = 0.0;
  /// Bytes of the slice-ordered copy of Ω the row sweeps read
  /// (SliceOrderedOmega in core/row_update.h). O(N·|Ω|) and held for the
  /// whole solve, but a re-layout of the input rather than intermediate
  /// data, so options.tracker's peak does not include it. 0 from the
  /// Tucker baselines, which build no such layout.
  std::int64_t slice_layout_bytes = 0;

  /// Mean seconds per ALS iteration — the paper's reporting unit
  /// ("average elapsed time per iteration", §IV-A3).
  double SecondsPerIteration() const;
};

/// P-Tucker (paper Algorithm 2): scalable Tucker factorization of a sparse
/// partially-observed tensor by fully-parallel row-wise ALS.
///
/// Requirements: `x.nnz() > 0` and `x.has_mode_index()` (call
/// `BuildModeIndex()` once after filling the tensor); `x.order()` <= 32
/// (DeltaEngine::kMaxOrder); options.core_dims must match `x.order()`
/// with 1 <= Jn <= In. Violations throw std::invalid_argument.
///
/// Throws OutOfMemoryBudget if options.tracker has a budget and the
/// engine's intermediate data exceeds it (only realistic for kCached).
PTuckerResult PTuckerDecompose(const SparseTensor& x,
                               const PTuckerOptions& options);

}  // namespace ptucker

#endif  // PTUCKER_CORE_PTUCKER_H_
