/// \file
/// \brief The shared CSF builder (CsfOrder, BuildCsfTree) and CsfTensor.
#ifndef PTUCKER_TENSOR_CSF_H_
#define PTUCKER_TENSOR_CSF_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "tensor/sparse_tensor.h"
#include "util/memory_tracker.h"

namespace ptucker {

/// Ids 0 … count−1 of `count` entry-major tuples (`order` coordinates
/// each, mode k's in [0, dims[k])) in lexicographic order on the distinct
/// modes `levels` (a subset is fine), ties in id order. LSD counting sort:
/// one stable pass per level, deepest first. Index is int32 or int64.
template <typename Index>
std::vector<std::int64_t> CsfOrder(const Index* coords, std::int64_t count,
                                   std::int64_t order,
                                   const std::vector<std::int64_t>& levels,
                                   const std::vector<std::int64_t>& dims);

/// A CSF tree: level l holds the distinct prefixes (i_{levels[0]}, …,
/// i_{levels[l]}) in CsfOrder's order; non-leaf node u of level l owns
/// the level-(l+1) nodes [fptr[l][u], fptr[l][u+1]).
struct CsfTree {
  std::vector<std::vector<std::int32_t>> fids;  ///< per level: coordinates
  std::vector<std::vector<std::int64_t>> fptr;  ///< per non-leaf level
  std::vector<std::int32_t> leaf_of;  ///< entry → leaf (0 with no levels)
};

/// The CsfTree of CsfOrder's input. Throws std::invalid_argument, before
/// allocating, when a level's dimension or `count` exceeds INT32_MAX.
template <typename Index>
CsfTree BuildCsfTree(const Index* coords, std::int64_t count,
                     std::int64_t order,
                     const std::vector<std::int64_t>& levels,
                     const std::vector<std::int64_t>& dims);

/// Compressed Sparse Fiber (CSF) tensor — the data structure behind the
/// TUCKER-CSF baseline (Smith & Karypis, Euro-Par 2017 / SPLATT).
///
/// A CSF tree stores the nonzeros of a sparse tensor sorted by a mode
/// order; equal index prefixes are collapsed into shared internal nodes.
/// Tensor-times-matrix chains (TTMc) then evaluate each shared prefix once
/// instead of once per nonzero, which is where the speedup over plain COO
/// streaming comes from.
///
/// The tree is BuildCsfTree's over levels `mode_order`; leaves carry the
/// nonzero values, duplicate coordinates summed in entry order.
class CsfTensor {
 public:
  /// Builds the tree for `mode_order` (a permutation of 0..N-1).
  CsfTensor(const SparseTensor& x, std::vector<std::int64_t> mode_order);

  /// Tensor order N.
  std::int64_t order() const {
    return static_cast<std::int64_t>(mode_order_.size());
  }

  /// Number of nodes at depth `level`.
  std::int64_t num_nodes(std::int64_t level) const {
    return static_cast<std::int64_t>(
        fids_[static_cast<std::size_t>(level)].size());
  }
  /// Number of leaves: distinct coordinates of the source tensor.
  std::int64_t nnz() const { return num_nodes(order() - 1); }

  /// Child offsets of depth `level` < order() − 1 (num_nodes + 1 of them).
  const std::vector<std::int64_t>& fptr(std::int64_t level) const {
    return fptr_[static_cast<std::size_t>(level)];
  }
  /// Leaf values, one per leaf in tree order.
  const std::vector<double>& leaf_values() const { return values_; }

  /// TTMc for the *root* mode: returns
  /// Y = X(root) · ⊗_{k≠root} A(k), shape I_root x Π_{k≠root} Jk, with the
  /// same column ordering as SparseTtmChain (Eq. 1: lowest mode fastest).
  /// `factors[k]` is A(k) ∈ R^{Ik×Jk}. The tracker is charged for Y plus
  /// the per-level scratch vectors.
  Matrix TtmcRoot(const std::vector<Matrix>& factors,
                  MemoryTracker* tracker = nullptr) const;

  /// Payload bytes of the tree (index arrays + values).
  std::int64_t ByteSize() const;

 private:
  std::vector<std::int64_t> mode_order_;
  std::vector<std::vector<std::int32_t>> fids_;
  std::vector<std::vector<std::int64_t>> fptr_;
  std::vector<double> values_;  // parallel to fids_[order-1]
};

}  // namespace ptucker

#endif  // PTUCKER_TENSOR_CSF_H_
