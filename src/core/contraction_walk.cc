#include "core/contraction_walk.h"

#include <algorithm>
#include <type_traits>

#include "core/delta_engine.h"

namespace ptucker {

namespace {

// `#pragma omp simd` where the build has OpenMP; a plain loop otherwise.
#ifdef _OPENMP
#define PTUCKER_OMP_SIMD _Pragma("omp simd")
#else
#define PTUCKER_OMP_SIMD
#endif

constexpr std::int64_t kMaxOrder = DeltaEngine::kMaxOrder;

// acc[j] += prefix·(subtree sum, lane j) over the level-`level` nodes
// [begin, end): each node multiplies its factor value into the running
// product once, and each leaf adds its Jn lanes scaled by that product.
// kRank > 0 fixes Jn at compile time (unrolled lanes); kRank = 0 reads it
// from `rank`.
template <int kRank>
void WalkTree(const std::vector<std::vector<std::int32_t>>& coords,
              const std::vector<std::vector<std::int64_t>>& child,
              const double* const* rows, const double* values,
              std::int64_t rank, std::size_t level, std::int64_t begin,
              std::int64_t end, double prefix, double* acc) {
  const std::int32_t* coord = coords[level].data();
  const double* row = rows[level];
  if (level + 1 == coords.size()) {
    const std::int64_t lanes = kRank > 0 ? kRank : rank;
    for (std::int64_t leaf = begin; leaf < end; ++leaf) {
      const double product = prefix * row[coord[leaf]];
      const double* lane = values + leaf * lanes;
      PTUCKER_OMP_SIMD
      for (std::int64_t j = 0; j < lanes; ++j) acc[j] += product * lane[j];
    }
    return;
  }
  const std::int64_t* children = child[level].data();
  for (std::int64_t node = begin; node < end; ++node) {
    WalkTree<kRank>(coords, child, rows, values, rank, level + 1,
                    children[node], children[node + 1],
                    prefix * row[coord[node]], acc);
  }
}

// The entries walked side by side in a depth-kDepth tree at rank kRank:
// kWidth·kRank ≤ 16 accumulators. A depth-1 tree walks one entry at a
// time: several abreast measured no faster there.
template <int kDepth, int kRank>
constexpr int kWalkWidth = kDepth == 1 ? 1 : kRank <= 4 ? 4 : 2;

// WalkTree's level `kLevel` of a depth-kDepth tree for kWidth entries at
// once: rows[l][w] is entry w's factor row of level l and values[w] its
// leaf array. Each entry sees WalkTree's operations in WalkTree's order —
// a node's product multiplies the entry's prefix, each leaf adds its lanes
// scaled by prefix·(leaf factor value) — so its sums carry the same bits;
// the fixed depth and width only let the compiler inline the levels and
// keep the kWidth·kRank sums in registers.
template <int kLevel, int kDepth, int kRank, int kWidth>
[[gnu::always_inline]] inline void WalkLevel(
    const std::int32_t* const* coords, const std::int64_t* const* child,
    const double* const (&rows)[kDepth][kWidth],
    const double* const (&values)[kWidth], std::int64_t begin,
    std::int64_t end, const double (&prefix)[kWidth],
    double (&acc)[kWidth][kRank]) {
  const std::int32_t* coord = coords[kLevel];
  if constexpr (kLevel + 1 == kDepth) {
    for (std::int64_t leaf = begin; leaf < end; ++leaf) {
      const std::int32_t c = coord[leaf];
      for (int w = 0; w < kWidth; ++w) {
        const double product = prefix[w] * rows[kLevel][w][c];
        const double* lane = values[w] + leaf * kRank;
        for (int j = 0; j < kRank; ++j) acc[w][j] += product * lane[j];
      }
    }
  } else {
    const std::int64_t* children = child[kLevel];
    for (std::int64_t node = begin; node < end; ++node) {
      const std::int32_t c = coord[node];
      double next[kWidth];
      for (int w = 0; w < kWidth; ++w) {
        next[w] = prefix[w] * rows[kLevel][w][c];
      }
      WalkLevel<kLevel + 1, kDepth, kRank, kWidth>(
          coords, child, rows, values, children[node], children[node + 1],
          next, acc);
    }
  }
}

// δ of the kWidth entries entry_indices[0, kWidth) into deltas, the tree
// of depth kDepth walked once for all of them. Level l reads row
// entry_index[level_modes[l]] of the factor at bases[l] (widths[l] wide).
template <int kDepth, int kRank, int kWidth>
void WalkEntries(const std::int32_t* const* coords,
                 const std::int64_t* const* child, std::int64_t roots,
                 const std::int64_t* level_modes, const double* const* bases,
                 const std::int64_t* widths, const LeafArrays& leaves,
                 const std::int64_t* const* entry_indices, double* deltas) {
  const double* rows[kDepth][kWidth];
  const double* values[kWidth];
  double prefix[kWidth];
  double acc[kWidth][kRank];
  for (int w = 0; w < kWidth; ++w) {
    const std::int64_t* entry_index = entry_indices[w];
    for (int l = 0; l < kDepth; ++l) {
      rows[l][w] = bases[l] + static_cast<std::size_t>(
                                  entry_index[level_modes[l]] * widths[l]);
    }
    values[w] = leaves.Of(entry_index);
    prefix[w] = 1.0;
    for (int j = 0; j < kRank; ++j) acc[w][j] = 0.0;
  }
  WalkLevel<0, kDepth, kRank, kWidth>(coords, child, rows, values, 0, roots,
                                      prefix, acc);
  for (int w = 0; w < kWidth; ++w) {
    std::copy(acc[w], acc[w] + kRank, deltas + w * kRank);
  }
}

// WalkEntries for a group of kWidth > 1 entries, out of line: with its own
// register allocation the kWidth prefixes and row pointers stay in
// registers, where inlined into WalkBatch's loop they were reloaded from
// the stack at every leaf.
template <int kDepth, int kRank, int kWidth>
[[gnu::noinline]] void WalkGroup(const std::int32_t* const* coords,
                                 const std::int64_t* const* child,
                                 std::int64_t roots,
                                 const std::int64_t* level_modes,
                                 const double* const* bases,
                                 const std::int64_t* widths,
                                 const LeafArrays& leaves,
                                 const std::int64_t* const* entry_indices,
                                 double* deltas) {
  WalkEntries<kDepth, kRank, kWidth>(coords, child, roots, level_modes, bases,
                                     widths, leaves, entry_indices, deltas);
}

// δ of `count` entries: kWalkWidth at a time, the rest one by one. Out of
// line, one function per (depth, rank), each compiled on its own: with
// the batch loops inlined into the dispatcher, its depth-1 sweep ran at
// half speed.
template <int kDepth, int kRank>
[[gnu::noinline]] void WalkBatch(const CsfTree& tree,
                                 const std::int64_t* level_modes,
                                 const double* const* bases,
                                 const std::int64_t* widths,
                                 const LeafArrays& leaves, std::int64_t count,
                                 const std::int64_t* const* entry_indices,
                                 double* deltas) {
  constexpr int kWidth = kWalkWidth<kDepth, kRank>;
  const std::int32_t* coords[kDepth] = {};
  const std::int64_t* child[kDepth] = {};  // kDepth − 1 used
  for (int l = 0; l < kDepth; ++l) {
    const auto level = static_cast<std::size_t>(l);
    coords[l] = tree.fids[level].data();
    if (l + 1 < kDepth) child[l] = tree.fptr[level].data();
  }
  const auto roots = static_cast<std::int64_t>(tree.fids[0].size());
  std::int64_t i = 0;
  if constexpr (kWidth > 1) {
    for (; i + kWidth <= count; i += kWidth) {
      WalkGroup<kDepth, kRank, kWidth>(coords, child, roots, level_modes,
                                       bases, widths, leaves,
                                       entry_indices + i, deltas + i * kRank);
    }
  }
  for (; i < count; ++i) {
    WalkEntries<kDepth, kRank, 1>(coords, child, roots, level_modes, bases,
                                  widths, leaves, entry_indices + i,
                                  deltas + i * kRank);
  }
}

}  // namespace

void WalkContractionTree(const CsfTree& tree,
                         const std::vector<std::int64_t>& levels,
                         const std::vector<FactorView>& factors,
                         const LeafArrays& leaves, std::int64_t rank,
                         std::int64_t count,
                         const std::int64_t* const* entry_indices,
                         double* deltas) {
  // Level l reads row entry_index[levels[l]] of that mode's factor.
  const std::size_t depth = levels.size();
  std::int64_t level_modes[kMaxOrder];
  const double* bases[kMaxOrder];
  std::int64_t widths[kMaxOrder];
  for (std::size_t l = 0; l < depth; ++l) {
    level_modes[l] = levels[l];
    const FactorView& factor = factors[static_cast<std::size_t>(levels[l])];
    bases[l] = factor.data();
    widths[l] = factor.cols();
  }
  const std::int64_t roots = static_cast<std::int64_t>(tree.fids[0].size());
  const auto walk = [&](auto lanes) {
    constexpr int kRank = decltype(lanes)::value;
    if constexpr (kRank > 0) {
      switch (depth) {
        case 1:
          return WalkBatch<1, kRank>(tree, level_modes, bases, widths, leaves,
                                     count, entry_indices, deltas);
        case 2:
          return WalkBatch<2, kRank>(tree, level_modes, bases, widths, leaves,
                                     count, entry_indices, deltas);
        case 3:
          return WalkBatch<3, kRank>(tree, level_modes, bases, widths, leaves,
                                     count, entry_indices, deltas);
        case 4:
          return WalkBatch<4, kRank>(tree, level_modes, bases, widths, leaves,
                                     count, entry_indices, deltas);
        default: break;  // depth 5+: the recursive walk
      }
    }
    for (std::int64_t i = 0; i < count; ++i) {
      const std::int64_t* entry_index = entry_indices[i];
      const double* rows[kMaxOrder];
      for (std::size_t l = 0; l < depth; ++l) {
        rows[l] = bases[l] + static_cast<std::size_t>(
                                 entry_index[level_modes[l]] * widths[l]);
      }
      double* delta = deltas + i * rank;
      std::fill(delta, delta + rank, 0.0);
      WalkTree<kRank>(tree.fids, tree.fptr, rows, leaves.Of(entry_index),
                      rank, 0, 0, roots, 1.0, delta);
    }
  };
  switch (rank) {
    case 1: walk(std::integral_constant<int, 1>()); break;
    case 2: walk(std::integral_constant<int, 2>()); break;
    case 3: walk(std::integral_constant<int, 3>()); break;
    case 4: walk(std::integral_constant<int, 4>()); break;
    case 5: walk(std::integral_constant<int, 5>()); break;
    case 6: walk(std::integral_constant<int, 6>()); break;
    case 8: walk(std::integral_constant<int, 8>()); break;
    default: walk(std::integral_constant<int, 0>()); break;
  }
}

#undef PTUCKER_OMP_SIMD

}  // namespace ptucker
