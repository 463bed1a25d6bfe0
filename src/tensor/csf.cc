#include "tensor/csf.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "util/logging.h"

namespace ptucker {

template <typename Index>
std::vector<std::int64_t> CsfOrder(const Index* coords, std::int64_t count,
                                   std::int64_t order,
                                   const std::vector<std::int64_t>& levels,
                                   const std::vector<std::int64_t>& dims) {
  std::vector<std::int64_t> sorted(static_cast<std::size_t>(count));
  std::iota(sorted.begin(), sorted.end(), 0);
  std::vector<std::int64_t> scratch(static_cast<std::size_t>(count));
  std::vector<std::int64_t> counts;
  for (std::size_t d = levels.size(); d-- > 0;) {
    const Index* column = coords + levels[d];  // entry e's key: column[e·N]
    const std::int64_t dim = dims[static_cast<std::size_t>(levels[d])];
    counts.assign(static_cast<std::size_t>(dim + 1), 0);
    for (const std::int64_t e : sorted) {
      ++counts[static_cast<std::size_t>(column[e * order] + 1)];
    }
    for (std::int64_t i = 0; i < dim; ++i) {
      counts[static_cast<std::size_t>(i + 1)] +=
          counts[static_cast<std::size_t>(i)];
    }
    for (const std::int64_t e : sorted) {
      scratch[static_cast<std::size_t>(
          counts[static_cast<std::size_t>(column[e * order])]++)] = e;
    }
    sorted.swap(scratch);
  }
  return sorted;
}

template <typename Index>
CsfTree BuildCsfTree(const Index* coords, std::int64_t count,
                     std::int64_t order,
                     const std::vector<std::int64_t>& levels,
                     const std::vector<std::int64_t>& dims) {
  constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
  for (const std::int64_t mode : levels) {
    PTUCKER_CHECK(mode >= 0 && mode < order &&
                  std::count(levels.begin(), levels.end(), mode) == 1);
    const std::int64_t dim = dims[static_cast<std::size_t>(mode)];
    if (dim > kInt32Max) {
      throw std::invalid_argument(
          "CSF tree: mode " + std::to_string(mode) + " has size " +
          std::to_string(dim) + ", more than int32 fids can index");
    }
  }
  if (count > kInt32Max) {
    throw std::invalid_argument("CSF tree: " + std::to_string(count) +
                                " entries, more than int32 leaf ids can index");
  }

  CsfTree tree;
  tree.leaf_of.assign(static_cast<std::size_t>(count), 0);
  const std::size_t depth = levels.size();
  if (depth == 0) return tree;
  const std::vector<std::int64_t> sorted =
      CsfOrder(coords, count, order, levels, dims);
  tree.fids.assign(depth, {});
  tree.fptr.assign(depth - 1, {0});
  // Open a node on every level from the first coordinate that differs
  // from the previous entry's; a new node ends where it starts, and each
  // child it gains moves its end one on.
  const auto key = [&](std::int64_t e, std::size_t level) {
    return static_cast<std::int32_t>(coords[e * order + levels[level]]);
  };
  for (std::size_t t = 0; t < sorted.size(); ++t) {
    const std::int64_t e = sorted[t];
    std::size_t first = 0;
    while (t > 0 && first < depth && key(sorted[t - 1], first) == key(e, first))
      ++first;
    for (std::size_t l = first; l < depth; ++l) {
      if (l + 1 < depth) tree.fptr[l].push_back(tree.fptr[l].back());
      if (l > 0) ++tree.fptr[l - 1].back();
      tree.fids[l].push_back(key(e, l));
    }
    tree.leaf_of[static_cast<std::size_t>(e)] =
        static_cast<std::int32_t>(tree.fids[depth - 1].size() - 1);
  }
  return tree;
}

using Modes = std::vector<std::int64_t>;
template Modes CsfOrder(const std::int32_t*, std::int64_t, std::int64_t,
                        const Modes&, const Modes&);
template Modes CsfOrder(const std::int64_t*, std::int64_t, std::int64_t,
                        const Modes&, const Modes&);
template CsfTree BuildCsfTree(const std::int32_t*, std::int64_t,
                              std::int64_t, const Modes&, const Modes&);
template CsfTree BuildCsfTree(const std::int64_t*, std::int64_t,
                              std::int64_t, const Modes&, const Modes&);

CsfTensor::CsfTensor(const SparseTensor& x,
                     std::vector<std::int64_t> mode_order)
    : mode_order_(std::move(mode_order)) {
  PTUCKER_CHECK(static_cast<std::int64_t>(mode_order_.size()) == x.order());
  CsfTree tree =
      BuildCsfTree(x.index(0), x.nnz(), x.order(), mode_order_, x.dims());
  fids_ = std::move(tree.fids);
  fptr_ = std::move(tree.fptr);
  // Duplicate coordinates share a leaf and sum in entry order; −0.0 is
  // the additive identity, so a lone value keeps its bits.
  values_.assign(fids_.back().size(), -0.0);
  for (std::int64_t e = 0; e < x.nnz(); ++e) {
    const std::int32_t leaf = tree.leaf_of[static_cast<std::size_t>(e)];
    values_[static_cast<std::size_t>(leaf)] += x.value(e);
  }
}

Matrix CsfTensor::TtmcRoot(const std::vector<Matrix>& factors,
                           MemoryTracker* tracker) const {
  const std::int64_t order = this->order();
  PTUCKER_CHECK(static_cast<std::int64_t>(factors.size()) == order);
  const std::int64_t root_mode = mode_order_[0];

  // vec_size[l]: length of the partial Kronecker vector carried by a node
  // at level l, covering modes mode_order_[l..order-1].
  std::vector<std::int64_t> vec_size(static_cast<std::size_t>(order) + 1, 1);
  for (std::int64_t level = order - 1; level >= 1; --level) {
    const std::int64_t mode = mode_order_[static_cast<std::size_t>(level)];
    vec_size[static_cast<std::size_t>(level)] =
        vec_size[static_cast<std::size_t>(level + 1)] *
        factors[static_cast<std::size_t>(mode)].cols();
  }
  const std::int64_t n_cols = vec_size[1];

  const std::int64_t scratch_bytes =
      static_cast<std::int64_t>(sizeof(double)) *
      (factors[static_cast<std::size_t>(root_mode)].rows() * n_cols +
       2 * n_cols * order);
  ScopedCharge charge(tracker, scratch_bytes);

  Matrix y(factors[static_cast<std::size_t>(root_mode)].rows(), n_cols);

  // Per-level accumulation buffers for the DFS below.
  std::vector<std::vector<double>> accumulator(
      static_cast<std::size_t>(order));
  for (std::int64_t level = 1; level < order; ++level) {
    accumulator[static_cast<std::size_t>(level)].resize(
        static_cast<std::size_t>(vec_size[static_cast<std::size_t>(level)]));
  }

  // Post-order DFS: child vectors are summed into `sum_below`, then the
  // node expands them by its factor row. The expansion at a shared prefix
  // happens once per *node*, not once per nonzero — the CSF saving.
  // Column layout: expanding mode j at level l maps (t, j) -> t*Jl + j, so
  // the lowest-level... see csf.h: lowest mode index ends up fastest,
  // matching SparseTtmChain.
  auto expand = [&](std::int64_t level, std::int64_t coord,
                    const double* child, double* out) {
    const std::int64_t mode = mode_order_[static_cast<std::size_t>(level)];
    const Matrix& a = factors[static_cast<std::size_t>(mode)];
    const std::int64_t j_count = a.cols();
    const std::int64_t below = vec_size[static_cast<std::size_t>(level + 1)];
    const double* row = a.Row(coord);
    for (std::int64_t t = 0; t < below; ++t) {
      const double scale = child[t];
      double* dst = out + t * j_count;
      for (std::int64_t j = 0; j < j_count; ++j) dst[j] += scale * row[j];
    }
  };

  // Recursive lambda over [begin, end) node ranges of `level`, writing the
  // summed expansion of those nodes into `out` (size vec_size[level]).
  auto dfs = [&](auto&& self, std::int64_t level, std::int64_t begin,
                 std::int64_t end, double* out) -> void {
    const bool leaf_level = (level == order - 1);
    auto& child_buffer = leaf_level
                             ? accumulator[0]  // unused at leaves
                             : accumulator[static_cast<std::size_t>(level + 1)];
    for (std::int64_t node = begin; node < end; ++node) {
      const std::int64_t coord =
          fids_[static_cast<std::size_t>(level)][static_cast<std::size_t>(node)];
      if (leaf_level) {
        const double value = values_[static_cast<std::size_t>(node)];
        const std::int64_t mode =
            mode_order_[static_cast<std::size_t>(level)];
        const Matrix& a = factors[static_cast<std::size_t>(mode)];
        const double* row = a.Row(coord);
        for (std::int64_t j = 0; j < a.cols(); ++j) out[j] += value * row[j];
      } else {
        std::fill(child_buffer.begin(), child_buffer.end(), 0.0);
        const auto& ptr = fptr_[static_cast<std::size_t>(level)];
        self(self, level + 1, ptr[static_cast<std::size_t>(node)],
             ptr[static_cast<std::size_t>(node) + 1], child_buffer.data());
        expand(level, coord, child_buffer.data(), out);
      }
    }
  };

  if (order == 1) {
    for (std::int64_t node = 0; node < num_nodes(0); ++node) {
      y(fids_[0][static_cast<std::size_t>(node)], 0) +=
          values_[static_cast<std::size_t>(node)];
    }
    return y;
  }

  // Root level: each root node writes directly into its Y row.
  const auto& root_ptr = fptr_[0];
  for (std::int64_t node = 0; node < num_nodes(0); ++node) {
    const std::int64_t coord = fids_[0][static_cast<std::size_t>(node)];
    dfs(dfs, 1, root_ptr[static_cast<std::size_t>(node)],
        root_ptr[static_cast<std::size_t>(node) + 1], y.Row(coord));
  }
  return y;
}

std::int64_t CsfTensor::ByteSize() const {
  std::int64_t bytes =
      static_cast<std::int64_t>(values_.size() * sizeof(double));
  for (const auto& level : fids_) {
    bytes += static_cast<std::int64_t>(level.size() * sizeof(std::int32_t));
  }
  for (const auto& level : fptr_) {
    bytes += static_cast<std::int64_t>(level.size() * sizeof(std::int64_t));
  }
  return bytes;
}

}  // namespace ptucker
