#ifndef PTUCKER_BASELINES_CP_ALS_H_
#define PTUCKER_BASELINES_CP_ALS_H_

#include <cstdint>

#include "core/ptucker.h"
#include "tensor/sparse_tensor.h"
#include "util/memory_tracker.h"

namespace ptucker {

/// Options for CP-ALS.
struct CpOptions {
  /// CP rank R (every factor gets R columns).
  std::int64_t rank = 10;
  double lambda = 0.01;
  int max_iterations = 20;
  double tolerance = 1e-4;
  std::uint64_t seed = 0x5eedULL;
  MemoryTracker* tracker = nullptr;
  bool verbose = false;
};

/// CP-ALS for partially observed sparse tensors with a row-wise update
/// rule (Shin, Sael & Kang's CDTF [24], the CP counterpart of P-Tucker's
/// update that the paper credits as prior art for row-wise ALS). CP is
/// Tucker with a superdiagonal core (§II), so this is P-Tucker's driver
/// over the R×…×R core with ones on its superdiagonal, held fixed: the
/// factors are drawn Uniform[0, 1) from options.seed in mode order, the
/// rows are solved by Eqs. 9–11 through the naive δ-engine (whose δ and x̂
/// are the CP products Π_{k≠n} A(k)(ik, r) and Σ_r Π_k A(k)(ik, r)), and
/// the factors are returned without orthogonalization. The result's
/// model.core is that superdiagonal core, so X ≈ Σ_r a(1)_:r ∘ … ∘ a(N)_:r
/// is model.Predict, and final_error is Eq. 5 over the observed entries.
///
/// Rejects (std::invalid_argument) an empty tensor, a missing mode index,
/// rank < 1, a negative or non-finite λ and max_iterations < 1, and
/// inherits P-Tucker's limits: order <= 32, every dimension and |Ω| at
/// most INT32_MAX. Throws std::runtime_error, naming the iteration, when
/// the reconstruction error turns NaN or Inf (e.g. a NaN observed value).
///
/// Per iteration: O(N·|Ω|·R·(N + R) + N·I·R³) time. Memory: the dense core
/// (Rᴺ doubles), P-Tucker's slice-ordered copy of Ω (untracked, see
/// PTuckerResult::slice_layout_bytes) and the row kernel's per-thread
/// scratch, RowUpdateScratchBytes (core/row_update.h), charged to
/// options.tracker.
PTuckerResult CpAlsDecompose(const SparseTensor& x, const CpOptions& options);

}  // namespace ptucker

#endif  // PTUCKER_BASELINES_CP_ALS_H_
