#include "tensor/csf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "tensor/nmode.h"
#include "util/random.h"

namespace ptucker {
namespace {

Matrix RandomMatrix(std::int64_t rows, std::int64_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  m.FillUniform(rng);
  return m;
}

std::vector<std::int64_t> RootedOrder(std::int64_t order, std::int64_t root) {
  std::vector<std::int64_t> result{root};
  for (std::int64_t k = 0; k < order; ++k) {
    if (k != root) result.push_back(k);
  }
  return result;
}

TEST(CsfTest, LeafCountEqualsNnz) {
  Rng rng(1);
  SparseTensor x = UniformCubicTensor(3, 8, 60, rng);
  CsfTensor csf(x, {0, 1, 2});
  EXPECT_EQ(csf.nnz(), x.nnz());
}

TEST(CsfTest, PrefixCompression) {
  // Three entries sharing the mode-0 index must share one root node.
  SparseTensor x({4, 4, 4});
  x.AddEntry({2, 0, 0}, 1.0);
  x.AddEntry({2, 1, 0}, 2.0);
  x.AddEntry({2, 1, 3}, 3.0);
  x.AddEntry({0, 0, 0}, 4.0);
  CsfTensor csf(x, {0, 1, 2});
  EXPECT_EQ(csf.num_nodes(0), 2);  // roots {0, 2}
  EXPECT_EQ(csf.num_nodes(1), 3);  // (0,0), (2,0), (2,1)
  EXPECT_EQ(csf.num_nodes(2), 4);
}

TEST(CsfTest, FptrRangesAreConsistent) {
  Rng rng(2);
  SparseTensor x = UniformCubicTensor(4, 5, 40, rng);
  CsfTensor csf(x, {0, 1, 2, 3});
  for (std::int64_t level = 0; level < 3; ++level) {
    const auto& ptr = csf.fptr(level);
    ASSERT_EQ(static_cast<std::int64_t>(ptr.size()),
              csf.num_nodes(level) + 1);
    EXPECT_EQ(ptr.front(), 0);
    EXPECT_EQ(ptr.back(), csf.num_nodes(level + 1));
    for (std::size_t i = 1; i < ptr.size(); ++i) {
      EXPECT_LT(ptr[i - 1], ptr[i]);  // every node has >= 1 child
    }
  }
}

TEST(CsfTest, DuplicateCoordinatesCollapse) {
  SparseTensor x({3, 3});
  x.AddEntry({1, 2}, 1.5);
  x.AddEntry({1, 2}, 2.5);
  CsfTensor csf(x, {0, 1});
  EXPECT_EQ(csf.nnz(), 1);
  EXPECT_DOUBLE_EQ(csf.leaf_values()[0], 4.0);

  // Duplicates sum in entry order: (1e16 + 1) rounds to 1e16, so the
  // leaf is exactly 0 (summing 1e16 − 1e16 first would leave 1.0).
  SparseTensor cancelling({3, 3});
  cancelling.AddEntry({0, 1}, 1e16);
  cancelling.AddEntry({0, 1}, 1.0);
  cancelling.AddEntry({0, 1}, -1e16);
  CsfTensor summed(cancelling, {1, 0});
  ASSERT_EQ(summed.nnz(), 1);
  EXPECT_EQ(summed.leaf_values()[0], 0.0);
}

TEST(CsfTest, DimensionPastInt32Throws) {
  // The mode index is never built: it would allocate per slice.
  SparseTensor x({3000000000, 4});
  x.AddEntry({2999999999, 3}, 1.0);
  try {
    CsfTensor csf(x, {0, 1});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("mode 0"), std::string::npos) << what;
    EXPECT_NE(what.find("3000000000"), std::string::npos) << what;
  }
}

// The reference the shared builder must reproduce bit for bit: a
// comparator sort of entry ids (ties by id), then one node opened on
// every level from the first coordinate that differs from the previous
// entry's.
struct ReferenceTree {
  std::vector<std::int64_t> sorted;
  std::vector<std::vector<std::int32_t>> fids;
  std::vector<std::vector<std::int64_t>> fptr;
  std::vector<std::int32_t> leaf_of;
};

template <typename Index>
ReferenceTree BuildReferenceTree(const std::vector<Index>& coords,
                                 std::int64_t count, std::int64_t order,
                                 const std::vector<std::int64_t>& levels) {
  ReferenceTree tree;
  tree.sorted.resize(static_cast<std::size_t>(count));
  std::iota(tree.sorted.begin(), tree.sorted.end(), 0);
  tree.leaf_of.assign(static_cast<std::size_t>(count), 0);
  const std::size_t depth = levels.size();
  if (depth == 0) return tree;
  const auto key = [&](std::int64_t b, std::size_t level) {
    return coords[static_cast<std::size_t>(b * order + levels[level])];
  };
  std::sort(tree.sorted.begin(), tree.sorted.end(),
            [&](std::int64_t a, std::int64_t b) {
              for (std::size_t l = 0; l < depth; ++l) {
                if (key(a, l) != key(b, l)) return key(a, l) < key(b, l);
              }
              return a < b;
            });
  tree.fids.assign(depth, {});
  tree.fptr.assign(depth - 1, {});
  for (std::size_t t = 0; t < tree.sorted.size(); ++t) {
    const std::int64_t b = tree.sorted[t];
    std::size_t first = 0;
    if (t > 0) {
      const std::int64_t previous = tree.sorted[t - 1];
      while (first < depth && key(previous, first) == key(b, first)) ++first;
    }
    for (std::size_t l = first; l < depth; ++l) {
      if (l + 1 < depth) {
        tree.fptr[l].push_back(
            static_cast<std::int64_t>(tree.fids[l + 1].size()));
      }
      tree.fids[l].push_back(static_cast<std::int32_t>(key(b, l)));
    }
    tree.leaf_of[static_cast<std::size_t>(b)] =
        static_cast<std::int32_t>(tree.fids[depth - 1].size() - 1);
  }
  for (std::size_t l = 0; l + 1 < depth; ++l) {
    tree.fptr[l].push_back(static_cast<std::int64_t>(tree.fids[l + 1].size()));
  }
  return tree;
}

// Random coordinate sets (0, 1 and many entries; small dimensions, so
// duplicate tuples and shared prefixes are common) under random level
// orders: full permutations, strict subsets, one level and none.
template <typename Index>
void SweepAgainstReference(std::uint64_t seed) {
  Rng rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    const std::int64_t order = 1 + static_cast<std::int64_t>(rng.UniformInt(5));
    std::vector<std::int64_t> dims(static_cast<std::size_t>(order));
    for (auto& dim : dims) {
      dim = 1 + static_cast<std::int64_t>(rng.UniformInt(trial % 2 ? 4 : 40));
    }
    const std::int64_t count =
        trial % 10 < 2 ? trial % 10
                       : static_cast<std::int64_t>(rng.UniformInt(200));
    std::vector<Index> coords(static_cast<std::size_t>(count * order));
    for (std::int64_t e = 0; e < count; ++e) {
      for (std::int64_t k = 0; k < order; ++k) {
        coords[static_cast<std::size_t>(e * order + k)] = static_cast<Index>(
            rng.UniformInt(static_cast<std::uint64_t>(dims[k])));
      }
    }
    if (count > 2) {  // an exact duplicate of some earlier entry
      const std::int64_t from = static_cast<std::int64_t>(
          rng.UniformInt(static_cast<std::uint64_t>(count - 1)));
      std::copy_n(coords.begin() + from * order, order,
                  coords.begin() + (count - 1) * order);
    }
    std::vector<std::int64_t> levels(static_cast<std::size_t>(order));
    std::iota(levels.begin(), levels.end(), 0);
    rng.Shuffle(levels);
    const std::int64_t depth =
        trial % 3 == 0 ? order
                       : static_cast<std::int64_t>(rng.UniformInt(
                             static_cast<std::uint64_t>(order + 1)));
    levels.resize(static_cast<std::size_t>(depth));

    const ReferenceTree expected =
        BuildReferenceTree(coords, count, order, levels);
    const CsfTree tree =
        BuildCsfTree(coords.data(), count, order, levels, dims);
    EXPECT_EQ(CsfOrder(coords.data(), count, order, levels, dims),
              expected.sorted)
        << "trial " << trial;
    EXPECT_EQ(tree.fids, expected.fids) << "trial " << trial;
    EXPECT_EQ(tree.fptr, expected.fptr) << "trial " << trial;
    EXPECT_EQ(tree.leaf_of, expected.leaf_of) << "trial " << trial;
  }
}

TEST(CsfBuilderTest, Int32CoordinatesMatchReference) {
  SweepAgainstReference<std::int32_t>(41);
}

TEST(CsfBuilderTest, Int64CoordinatesMatchReference) {
  SweepAgainstReference<std::int64_t>(42);
}

TEST(CsfTest, TtmcRootMatchesCooStreaming) {
  Rng rng(3);
  SparseTensor x = UniformSparseTensor({6, 5, 4}, 30, rng);
  std::vector<Matrix> factors = {RandomMatrix(6, 3, 10),
                                 RandomMatrix(5, 2, 11),
                                 RandomMatrix(4, 2, 12)};
  for (std::int64_t root = 0; root < 3; ++root) {
    CsfTensor csf(x, RootedOrder(3, root));
    Matrix from_csf = csf.TtmcRoot(factors);
    Matrix from_coo = SparseTtmChain(x, factors, root);
    EXPECT_TRUE(AllClose(from_csf, from_coo, 1e-10)) << "root " << root;
  }
}

TEST(CsfTest, TtmcRootOrderFour) {
  Rng rng(4);
  SparseTensor x = UniformSparseTensor({4, 3, 5, 3}, 25, rng);
  std::vector<Matrix> factors = {RandomMatrix(4, 2, 13),
                                 RandomMatrix(3, 2, 14),
                                 RandomMatrix(5, 3, 15),
                                 RandomMatrix(3, 2, 16)};
  for (std::int64_t root = 0; root < 4; ++root) {
    CsfTensor csf(x, RootedOrder(4, root));
    EXPECT_TRUE(AllClose(csf.TtmcRoot(factors),
                         SparseTtmChain(x, factors, root), 1e-10))
        << "root " << root;
  }
}

TEST(CsfTest, TtmcOrderTwo) {
  SparseTensor x({3, 4});
  x.AddEntry({0, 1}, 2.0);
  x.AddEntry({2, 3}, -1.0);
  std::vector<Matrix> factors = {RandomMatrix(3, 2, 17),
                                 RandomMatrix(4, 2, 18)};
  CsfTensor csf(x, {0, 1});
  EXPECT_TRUE(AllClose(csf.TtmcRoot(factors),
                       SparseTtmChain(x, factors, 0), 1e-12));
}

TEST(CsfTest, ByteSizeIsPositiveAndBounded) {
  Rng rng(5);
  SparseTensor x = UniformCubicTensor(3, 10, 100, rng);
  CsfTensor csf(x, {0, 1, 2});
  EXPECT_GT(csf.ByteSize(), 0);
  // Tree cannot exceed the raw COO footprint by more than the fptr
  // overhead.
  EXPECT_LE(csf.ByteSize(), x.ByteSize() + static_cast<std::int64_t>(
      (x.nnz() + 3) * 3 * sizeof(std::int64_t)));
}

TEST(CsfTest, TracksScratchMemory) {
  Rng rng(6);
  SparseTensor x = UniformCubicTensor(3, 6, 20, rng);
  std::vector<Matrix> factors = {RandomMatrix(6, 2, 19),
                                 RandomMatrix(6, 2, 20),
                                 RandomMatrix(6, 2, 21)};
  MemoryTracker tracker;
  CsfTensor csf(x, {0, 1, 2});
  csf.TtmcRoot(factors, &tracker);
  EXPECT_GT(tracker.peak_bytes(), 0);
  EXPECT_EQ(tracker.current_bytes(), 0);
}

class CsfModeOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(CsfModeOrderSweep, AnyRootMatchesCoo) {
  const int root = GetParam();
  Rng rng(30 + root);
  SparseTensor x = UniformSparseTensor({7, 6, 5, 4}, 50, rng);
  std::vector<Matrix> factors = {RandomMatrix(7, 2, 31),
                                 RandomMatrix(6, 3, 32),
                                 RandomMatrix(5, 2, 33),
                                 RandomMatrix(4, 2, 34)};
  CsfTensor csf(x, RootedOrder(4, root));
  EXPECT_TRUE(AllClose(csf.TtmcRoot(factors),
                       SparseTtmChain(x, factors, root), 1e-10));
}

INSTANTIATE_TEST_SUITE_P(Roots, CsfModeOrderSweep,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace ptucker
