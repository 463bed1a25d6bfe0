/// \file
/// \brief Model-quality metrics: reconstruction error over observed
/// entries (Eq. 5), held-out test RMSE (Fig. 11), and bulk entry
/// prediction — all routed through DeltaEngine::Reconstruct with
/// deterministic (lane-ordered) parallel reductions.
#ifndef PTUCKER_CORE_RECONSTRUCTION_H_
#define PTUCKER_CORE_RECONSTRUCTION_H_

#include <vector>

#include "core/delta.h"
#include "linalg/matrix.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"

namespace ptucker {

class DeltaEngine;

/// Reconstruction error over observed entries (Eq. 5):
/// √ Σ_{α∈Ω} (X_α − x̂_α)². Parallelized over entries with static
/// scheduling (§III-D section 3). Every overload routes x̂ through a
/// DeltaEngine; the list/dense forms use the entry-major oracle. The
/// residuals are summed in entry order within each fixed reduction lane,
/// so the result does not depend on the thread count.
double ReconstructionError(const SparseTensor& x, const DeltaEngine& engine);

/// Per-lane partials of Σ (X_α − x̂_α)² over the fixed reduction-lane
/// partition of the entry range [0, x.nnz()): lane l's partial lands at
/// `lane_sums[l − lane_begin]`, accumulated in entry order. Folding all
/// kReductionLanes partials in lane order and taking the square root
/// reproduces ReconstructionError bit for bit — the distributed solver
/// gathers each worker's lane subrange and folds exactly that way.
void SquaredResidualLaneSums(const SparseTensor& x, const DeltaEngine& engine,
                             std::int64_t lane_begin, std::int64_t lane_end,
                             double* lane_sums);

/// Entry-major-oracle overload of ReconstructionError.
double ReconstructionError(const SparseTensor& x, const CoreEntryList& core,
                           const std::vector<Matrix>& factors);

/// Convenience overload building the entry list from a dense core.
double ReconstructionError(const SparseTensor& x, const DenseTensor& core,
                           const std::vector<Matrix>& factors);

/// Test root-mean-square error over the entries of `test` — the paper's
/// missing-entry prediction metric (Fig. 11, right). The engine overload
/// reconstructs arbitrary coordinates, so `test` need not be the tensor
/// the engine was built over. Summed like ReconstructionError.
double TestRmse(const SparseTensor& test, const DeltaEngine& engine);
/// Entry-major-oracle overload of TestRmse.
double TestRmse(const SparseTensor& test, const CoreEntryList& core,
                const std::vector<Matrix>& factors);
/// Convenience overload building the entry list from a dense core.
double TestRmse(const SparseTensor& test, const DenseTensor& core,
                const std::vector<Matrix>& factors);

/// Predicted values x̂ (Eq. 4) for every entry coordinate in `query`
/// (values of `query` are ignored), through `engine`.
std::vector<double> PredictEntries(const SparseTensor& query,
                                   const DeltaEngine& engine);

/// Pointer-array form of PredictEntries: out[i] = x̂(indices[i]) for
/// `count` coordinate arrays, parallelized over entries.
/// The other overloads and the serving layer's PredictBatch all reduce
/// to this one kernel.
void PredictEntries(std::int64_t count, const std::int64_t* const* indices,
                    const DeltaEngine& engine, double* out);

/// Convenience overload predicting through the entry-major oracle built
/// from a dense core.
std::vector<double> PredictEntries(const SparseTensor& query,
                                   const DenseTensor& core,
                                   const std::vector<Matrix>& factors);

}  // namespace ptucker

#endif  // PTUCKER_CORE_RECONSTRUCTION_H_
