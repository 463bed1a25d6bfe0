/// \file
/// \brief The contraction δ-engine's tree walk: δ of a batch of entries
/// from one mode's tree and leaf arrays.
#ifndef PTUCKER_CORE_CONTRACTION_WALK_H_
#define PTUCKER_CORE_CONTRACTION_WALK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/factor_view.h"
#include "tensor/csf.h"
#include "util/cpu.h"

namespace ptucker {

/// One mode's leaf arrays in ContractionDeltaEngine: the array of an
/// entry's short-mode tuple i_S starts at
/// values + (Σ_s i_{memo[s]}·strides[s])·size.
struct LeafArrays {
  const double* values;         ///< the first array
  const std::int64_t* memo;     ///< S_n, memo_count modes
  const std::int64_t* strides;  ///< one per memoized mode
  std::size_t memo_count;       ///< |S_n|
  std::int64_t size;            ///< leaves × Jn values per array

  /// The array of `entry_index`'s short-mode tuple.
  const double* Of(const std::int64_t* entry_index) const {
    std::int64_t table = 0;
    for (std::size_t s = 0; s < memo_count; ++s) {
      table += entry_index[memo[s]] * strides[s];
    }
    return values + table * size;
  }
};

/// δ of `count` entries into deltas (count × rank, entry-major): for each
/// entry, the walk of `tree` (at least one level; level l reads the
/// entry's row of factors[levels[l]]) over the entry's leaf array.
///
/// Each entry's prefix starts at 1.0 and multiplies in one node value per
/// level, in tree order; each leaf adds its `rank` lanes scaled by
/// prefix·(leaf value), leaf by leaf. Every path below performs exactly
/// these operations in this order, so an entry's δ has the same bits on
/// each of them, whatever the batch:
/// - depth 1-4 at an unrolled rank (1-6, 8): a loop nest of fixed depth
///   and rank. At depth 2-4 it walks 4 entries at once up to rank 4 and 2
///   up to rank 8, the rest of the batch one at a time; at depth 1 one at
///   a time;
/// - depth 5 and up, or another rank: a recursive walk, one entry at a
///   time.
///
/// Runs the AVX2 build of the walk when the CPU has AVX2 (CpuHasAvx2,
/// util/cpu.h), the generic build otherwise. **Exactness: bit-identical
/// across ISA clones**: neither build contracts a multiply-add, so both
/// perform the operations above in the same order.
void WalkContractionTree(const CsfTree& tree,
                         const std::vector<std::int64_t>& levels,
                         const std::vector<FactorView>& factors,
                         const LeafArrays& leaves, std::int64_t rank,
                         std::int64_t count,
                         const std::int64_t* const* entry_indices,
                         double* deltas);

/// The walk built for the baseline instruction set.
namespace contraction_walk_generic {
/// WalkContractionTree, generic build.
void WalkContractionTree(const CsfTree& tree,
                         const std::vector<std::int64_t>& levels,
                         const std::vector<FactorView>& factors,
                         const LeafArrays& leaves, std::int64_t rank,
                         std::int64_t count,
                         const std::int64_t* const* entry_indices,
                         double* deltas);
}  // namespace contraction_walk_generic

#if PTUCKER_AVX2_CLONES
/// The walk built under `#pragma GCC target("avx2")`; call it only where
/// CpuHasAvx2() holds.
namespace contraction_walk_avx2 {
/// WalkContractionTree, AVX2 build.
void WalkContractionTree(const CsfTree& tree,
                         const std::vector<std::int64_t>& levels,
                         const std::vector<FactorView>& factors,
                         const LeafArrays& leaves, std::int64_t rank,
                         std::int64_t count,
                         const std::int64_t* const* entry_indices,
                         double* deltas);
}  // namespace contraction_walk_avx2
#endif

}  // namespace ptucker

#endif  // PTUCKER_CORE_CONTRACTION_WALK_H_
