#include "core/contraction_walk.h"

#include <algorithm>
#include <type_traits>

#include "core/delta_engine.h"
#include "util/cpu.h"

// `#pragma omp simd` where the build has OpenMP; a plain loop otherwise.
#ifdef _OPENMP
#define PTUCKER_OMP_SIMD _Pragma("omp simd")
#else
#define PTUCKER_OMP_SIMD
#endif

namespace ptucker {

namespace contraction_walk_generic {
#include "core/contraction_walk.inc"
}  // namespace contraction_walk_generic

#if PTUCKER_AVX2_CLONES
#pragma GCC push_options
#pragma GCC target("avx2")
namespace contraction_walk_avx2 {
#include "core/contraction_walk.inc"
}  // namespace contraction_walk_avx2
#pragma GCC pop_options
#endif

void WalkContractionTree(const CsfTree& tree,
                         const std::vector<std::int64_t>& levels,
                         const std::vector<FactorView>& factors,
                         const LeafArrays& leaves, std::int64_t rank,
                         std::int64_t count,
                         const std::int64_t* const* entry_indices,
                         double* deltas) {
#if PTUCKER_AVX2_CLONES
  if (CpuHasAvx2()) {
    return contraction_walk_avx2::WalkContractionTree(
        tree, levels, factors, leaves, rank, count, entry_indices, deltas);
  }
#endif
  contraction_walk_generic::WalkContractionTree(
      tree, levels, factors, leaves, rank, count, entry_indices, deltas);
}

}  // namespace ptucker

#undef PTUCKER_OMP_SIMD
