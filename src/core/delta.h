/// \file
/// \brief The nonzero-core-entry list (CoreEntryList) the solvers scan,
/// plus the entry-major reference kernels for δ (Eq. 12) and x̂ (Eq. 4)
/// that the naive DeltaEngine wraps.
#ifndef PTUCKER_CORE_DELTA_H_
#define PTUCKER_CORE_DELTA_H_

#include <cstdint>
#include <vector>

#include "linalg/factor_view.h"
#include "linalg/matrix.h"
#include "tensor/dense_tensor.h"
#include "util/cpu.h"
#include "util/span.h"

namespace ptucker {

/// Flat list of the nonzero core entries β = (j1,…,jN) with their values.
///
/// P-Tucker's inner loops iterate "∀β ∈ G" (Algorithm 3); under
/// P-TUCKER-APPROX the core loses entries every iteration, so the solvers
/// walk this list instead of the dense core. Indices are stored contiguous
/// (entry-major int32) for cache-friendly scanning — the β scan is the
/// hottest loop in the library.
class CoreEntryList {
 public:
  /// An empty list (no core bound yet).
  CoreEntryList() = default;

  /// Collects the nonzeros of `core`.
  explicit CoreEntryList(const DenseTensor& core);

  /// Copies a pre-built entry list: `values` holds |G| core values and
  /// `indices` the matching entry-major multi-indices (|G| × order). Used
  /// by the serving plane to materialize the list straight from a
  /// snapshot's COO core sections.
  CoreEntryList(std::int64_t order, Span<const std::int32_t> indices,
                Span<const double> values);

  /// Number of nonzero core entries |G|.
  std::int64_t size() const {
    return static_cast<std::int64_t>(values_.size());
  }
  /// Tensor order N of the core the list was built from.
  std::int64_t order() const { return order_; }

  /// Multi-index of core entry `b` (length order()).
  const std::int32_t* index(std::int64_t b) const {
    return indices_.data() + static_cast<std::size_t>(b * order_);
  }
  /// Value G_β of core entry `b`.
  double value(std::int64_t b) const {
    return values_[static_cast<std::size_t>(b)];
  }

  /// Re-reads values from `core` (same sparsity pattern required).
  void RefreshValues(const DenseTensor& core);

  /// Removes the entries whose ids are flagged in `remove` (size() bools)
  /// and zeroes them in `core`. Returns the number removed.
  std::int64_t Remove(const std::vector<char>& remove, DenseTensor* core);

 private:
  std::int64_t order_ = 0;
  std::vector<std::int32_t> indices_;  // size * order, entry-major
  std::vector<double> values_;
};

/// Computes δ(n,α) of Eq. 12 for entry α with coordinates `entry_index`:
/// delta[j] = Σ_{β∈G, βn=j} G_β Π_{k≠n} A(k)(ik, jk).
/// `delta` must hold Jn = factors[mode].cols() doubles (the function
/// zeroes it first). O(|G|·N). Owning factors pass MakeFactorViews().
void ComputeDelta(const CoreEntryList& core,
                  const std::vector<FactorView>& factors,
                  const std::int64_t* entry_index, std::int64_t mode,
                  double* delta);

/// Full per-entry reconstruction x̂_α (Eq. 4) driven by the entry list:
/// Σ_β G_β Π_k A(k)(ik, jk). O(|G|·N).
double ReconstructFromList(const CoreEntryList& core,
                           const std::vector<FactorView>& factors,
                           const std::int64_t* entry_index);

/// ReconstructFromList for `count` entries at once, bit for bit:
/// out[i] = ReconstructFromList(core, factors, indices[i]). The entries go
/// through in blocks of 16 whose factor rows are first transposed into
/// scratch, so one pass over the list advances every entry of a block
/// side by side (independent sums, contiguous operands) while each entry
/// keeps the scalar scan's multiply order and list-order sum. Nothing is
/// reassociated. Runs the AVX2 build of the kernel when the CPU has AVX2
/// (CpuHasAvx2, util/cpu.h), the generic build otherwise: **bit-identical
/// across ISA clones**, since neither contracts a multiply-add.
void ReconstructFromList(const CoreEntryList& core,
                         const std::vector<FactorView>& factors,
                         std::int64_t count, const std::int64_t* const* indices,
                         double* out);

/// The batched reconstruct built for the baseline instruction set.
namespace delta_generic {
/// The batched ReconstructFromList, generic build.
void ReconstructFromList(const CoreEntryList& core,
                         const std::vector<FactorView>& factors,
                         std::int64_t count, const std::int64_t* const* indices,
                         double* out);
}  // namespace delta_generic

#if PTUCKER_AVX2_CLONES
/// The batched reconstruct built under `#pragma GCC target("avx2")`; call
/// it only where CpuHasAvx2() holds.
namespace delta_avx2 {
/// The batched ReconstructFromList, AVX2 build.
void ReconstructFromList(const CoreEntryList& core,
                         const std::vector<FactorView>& factors,
                         std::int64_t count, const std::int64_t* const* indices,
                         double* out);
}  // namespace delta_avx2
#endif

}  // namespace ptucker

#endif  // PTUCKER_CORE_DELTA_H_
