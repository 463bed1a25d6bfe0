/// \file
/// \brief P-TUCKER-APPROX core truncation (Algorithm 4): partial
/// reconstruction errors R(β) (Eq. 13) and removal of the noisiest core
/// entries, with DeltaEngine-aware scoring (DeltaEngine::ComputeProducts)
/// and removal notification.
#ifndef PTUCKER_CORE_TRUNCATION_H_
#define PTUCKER_CORE_TRUNCATION_H_

#include <cstdint>
#include <vector>

#include "core/delta.h"
#include "linalg/matrix.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"
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

/// R(β) for every entry of `core`, in list order. O(|Ω|·|G|·N), parallel
/// over observed entries with a deterministic (lane-ordered) merge. The
/// per-(α,β) products come from `engine` when given, else from an
/// entry-major scan, and are consumed in entry order within each fixed
/// reduction lane. The per-thread products scratch (T · |G| doubles) is
/// charged to `tracker` for the duration of the scan when given.
std::vector<double> ComputePartialErrors(const SparseTensor& x,
                                         const CoreEntryList& core,
                                         const std::vector<Matrix>& factors,
                                         const DeltaEngine* engine = nullptr,
                                         MemoryTracker* tracker = nullptr);

/// Removes the top-⌊p·|G|⌋ entries by R(β) from `core_list` and zeroes
/// them in `core` (Algorithm 4). Always keeps at least one entry. Returns
/// the number removed. When `engine` is given it both scores the entries
/// and is notified of the removal (OnCoreEntriesRemoved), keeping its
/// derived state consistent with the compacted list. `tracker` is passed
/// through to ComputePartialErrors for the scoring scratch.
std::int64_t TruncateNoisyEntries(const SparseTensor& x, DenseTensor* core,
                                  CoreEntryList* core_list,
                                  const std::vector<Matrix>& factors,
                                  double truncation_rate,
                                  DeltaEngine* engine = nullptr,
                                  MemoryTracker* tracker = nullptr);

}  // namespace ptucker

#endif  // PTUCKER_CORE_TRUNCATION_H_
