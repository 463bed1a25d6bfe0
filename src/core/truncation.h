/// \file
/// \brief P-TUCKER-APPROX core truncation (Algorithm 4): partial
/// reconstruction errors R(β) (Eq. 13), scored by one fused TTM-chain
/// pass over a CSF tree of the observed entries, and removal of the
/// noisiest core entries with engine notification.
#ifndef PTUCKER_CORE_TRUNCATION_H_
#define PTUCKER_CORE_TRUNCATION_H_

#include <cstdint>
#include <vector>

#include "core/delta.h"
#include "linalg/matrix.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"
#include "util/cpu.h"
#include "util/memory_tracker.h"

namespace ptucker {

/// P-TUCKER-APPROX core truncation (paper §III-C, Algorithm 4).
///
/// The partial reconstruction error of core entry β (Eq. 13) is the change
/// in the squared reconstruction error caused by *keeping* β versus
/// removing it:
///   R(β) = Σ_α [ (X_α − x̂_α)² − (X_α − (x̂_α − c_αβ))² ]
/// with c_αβ = G_β Π_n A(n)(in, jn). Positive R(β) means the entry hurts
/// the fit — it is "noisy" — and the top-p fraction by R(β) is removed
/// each iteration.

class DeltaEngine;

/// R(β) for every entry of `core`, in list order, from the factored form
///   R(β) = −G_β²·S2_β − 2·G_β·S1_β,
///   S1 = Σ_α r_α·⊗_n A(n)(in, :),   S2 = Σ_α ⊗_n A(n)(in, :)∘²,
/// where r_α = X_α − x̂_α. One depth-first pass over a CSF tree of Ω
/// (levels = modes in ascending In, ties by mode index; entries ordered
/// by an LSD counting sort built on every call) computes both: opening a
/// node contracts the dense core with the node's factor row (the TTM
/// chain that also yields x̂_α at the leaves), and closing a node folds
/// its residual-weighted and squared accumulators into its parent as
/// outer products. Cost O(N·(|Ω| + max In) + Σ_nodes Π_{m≥l} Jm) plus
/// Λ·|G| for the projection onto the list.
///
/// Deterministic: reduction lane l is the sorted-entry range
/// [ReductionLaneBegin(|Ω|, l), …) with its own pass; the lane partials
/// fold in lane order (FoldVectorLaneSums). So the scores are
/// bit-identical at every thread count and depend only on (x, core,
/// factors). **Exactness: reassociated** against the per-(α,β) scorer;
/// the bound is derived in tests/core/truncation_test.cc.
///
/// Every scratch buffer — the sorted order and its sort workspace, the
/// dense level-ordered core, the per-thread contraction and accumulator
/// buffers and the Λ·|G| lane partials — is charged to `tracker`, when
/// given, before it is allocated (OutOfMemoryBudget when over budget,
/// with nothing left charged), and released on return.
///
/// The lane pass runs in its AVX2 build when the CPU has AVX2
/// (CpuHasAvx2, util/cpu.h), in its generic build otherwise; the two are
/// **bit-identical across ISA clones** (neither contracts a multiply-add).
std::vector<double> ComputePartialErrors(const SparseTensor& x,
                                         const CoreEntryList& core,
                                         const std::vector<Matrix>& factors,
                                         MemoryTracker* tracker = nullptr);

/// The scorer with its lane pass built for the baseline instruction set.
namespace truncation_generic {
/// ComputePartialErrors, generic lane pass.
std::vector<double> ComputePartialErrors(const SparseTensor& x,
                                         const CoreEntryList& core,
                                         const std::vector<Matrix>& factors,
                                         MemoryTracker* tracker = nullptr);
}  // namespace truncation_generic

#if PTUCKER_AVX2_CLONES
/// The scorer with its lane pass built under `#pragma GCC
/// target("avx2")`; call it only where CpuHasAvx2() holds.
namespace truncation_avx2 {
/// ComputePartialErrors, AVX2 lane pass.
std::vector<double> ComputePartialErrors(const SparseTensor& x,
                                         const CoreEntryList& core,
                                         const std::vector<Matrix>& factors,
                                         MemoryTracker* tracker = nullptr);
}  // namespace truncation_avx2
#endif

/// Removes the top-⌊p·|G|⌋ entries by R(β) from `core_list` and zeroes
/// them in `core` (Algorithm 4). Always keeps at least one entry. Returns
/// the number removed. Entries rank by (R(β) descending, list index
/// ascending), so ties remove the lowest list indices. Throws
/// std::runtime_error naming the core entry when any R(β) is NaN or Inf.
/// When `engine` is given it is notified of the removal
/// (OnCoreEntriesRemoved), keeping its derived state consistent with the
/// compacted list; the scores never depend on it. `tracker` is passed
/// through to ComputePartialErrors for the scoring scratch.
std::int64_t TruncateNoisyEntries(const SparseTensor& x, DenseTensor* core,
                                  CoreEntryList* core_list,
                                  const std::vector<Matrix>& factors,
                                  double truncation_rate,
                                  DeltaEngine* engine = nullptr,
                                  MemoryTracker* tracker = nullptr);

}  // namespace ptucker

#endif  // PTUCKER_CORE_TRUNCATION_H_
