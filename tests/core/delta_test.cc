#include "core/delta.h"

#include <cstring>

#include <gtest/gtest.h>

#include "util/random.h"

namespace ptucker {
namespace {

DenseTensor RandomCore(const std::vector<std::int64_t>& dims,
                       std::uint64_t seed) {
  Rng rng(seed);
  DenseTensor core(dims);
  core.FillUniform(rng);
  return core;
}

std::vector<Matrix> RandomFactors(const std::vector<std::int64_t>& dims,
                                  const std::vector<std::int64_t>& ranks,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> factors;
  for (std::size_t k = 0; k < dims.size(); ++k) {
    Matrix factor(dims[k], ranks[k]);
    factor.FillUniform(rng);
    factors.push_back(std::move(factor));
  }
  return factors;
}

// Brute-force Eq. 12: delta[j] = Σ_{β: βn=j} G_β Π_{k≠n} A(k)(ik, jk).
std::vector<double> BruteForceDelta(const DenseTensor& core,
                                    const std::vector<Matrix>& factors,
                                    const std::int64_t* entry_index,
                                    std::int64_t mode) {
  std::vector<double> delta(
      static_cast<std::size_t>(core.dim(mode)), 0.0);
  std::vector<std::int64_t> beta(static_cast<std::size_t>(core.order()));
  for (std::int64_t linear = 0; linear < core.size(); ++linear) {
    core.IndexOf(linear, beta.data());
    double product = core[linear];
    for (std::int64_t k = 0; k < core.order(); ++k) {
      if (k == mode) continue;
      product *= factors[static_cast<std::size_t>(k)](
          entry_index[k], beta[static_cast<std::size_t>(k)]);
    }
    delta[static_cast<std::size_t>(beta[static_cast<std::size_t>(mode)])] +=
        product;
  }
  return delta;
}

TEST(CoreEntryListTest, CollectsNonZeros) {
  DenseTensor core({2, 3});
  core[1] = 1.5;
  core[4] = -2.0;
  CoreEntryList list(core);
  EXPECT_EQ(list.size(), 2);
  EXPECT_EQ(list.order(), 2);
  // Entry 0: linear 1 = index (1, 0).
  EXPECT_EQ(list.index(0)[0], 1);
  EXPECT_EQ(list.index(0)[1], 0);
  EXPECT_EQ(list.value(0), 1.5);
  // Entry 1: linear 4 = index (0, 2).
  EXPECT_EQ(list.index(1)[0], 0);
  EXPECT_EQ(list.index(1)[1], 2);
  EXPECT_EQ(list.value(1), -2.0);
}

TEST(CoreEntryListTest, RefreshValues) {
  DenseTensor core = RandomCore({2, 2, 2}, 1);
  CoreEntryList list(core);
  core[3] = 42.0;
  list.RefreshValues(core);
  bool found = false;
  for (std::int64_t b = 0; b < list.size(); ++b) {
    if (list.value(b) == 42.0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(CoreEntryListTest, RemoveZeroesCoreAndCompacts) {
  DenseTensor core = RandomCore({2, 2}, 2);
  CoreEntryList list(core);
  ASSERT_EQ(list.size(), 4);
  std::vector<char> remove = {1, 0, 0, 1};
  const std::int64_t removed = list.Remove(remove, &core);
  EXPECT_EQ(removed, 2);
  EXPECT_EQ(list.size(), 2);
  EXPECT_EQ(core.CountNonZeros(), 2);
}

TEST(CoreEntryListTest, RemoveNothing) {
  DenseTensor core = RandomCore({3, 2}, 3);
  CoreEntryList list(core);
  std::vector<char> remove(static_cast<std::size_t>(list.size()), 0);
  EXPECT_EQ(list.Remove(remove, &core), 0);
  EXPECT_EQ(list.size(), 6);
}

TEST(ComputeDeltaTest, MatchesBruteForceEq12) {
  const std::vector<std::int64_t> dims = {6, 5, 4};
  const std::vector<std::int64_t> ranks = {3, 2, 3};
  DenseTensor core = RandomCore(ranks, 4);
  auto factors = RandomFactors(dims, ranks, 5);
  CoreEntryList list(core);

  const std::int64_t entry[3] = {2, 4, 1};
  for (std::int64_t mode = 0; mode < 3; ++mode) {
    std::vector<double> delta(
        static_cast<std::size_t>(ranks[static_cast<std::size_t>(mode)]));
    ComputeDelta(list, MakeFactorViews(factors), entry, mode, delta.data());
    const auto expected = BruteForceDelta(core, factors, entry, mode);
    for (std::size_t j = 0; j < expected.size(); ++j) {
      EXPECT_NEAR(delta[j], expected[j], 1e-12) << "mode " << mode;
    }
  }
}

TEST(ComputeDeltaTest, SparseCoreSkipsZeros) {
  DenseTensor core({2, 2});
  core[0] = 3.0;  // only (0, 0) nonzero
  CoreEntryList list(core);
  std::vector<Matrix> factors = {Matrix(3, 2, {1, 2, 3, 4, 5, 6}),
                                 Matrix(3, 2, {1, 0, 0, 1, 1, 1})};
  const std::int64_t entry[2] = {1, 2};
  double delta[2];
  ComputeDelta(list, MakeFactorViews(factors), entry, 0, delta);
  // delta[0] = G(0,0) * A2(2, 0) = 3 * 1 = 3; delta[1] = 0.
  EXPECT_DOUBLE_EQ(delta[0], 3.0);
  EXPECT_DOUBLE_EQ(delta[1], 0.0);
}

TEST(ReconstructFromListTest, MatchesEq4) {
  const std::vector<std::int64_t> dims = {4, 5, 3};
  const std::vector<std::int64_t> ranks = {2, 2, 2};
  DenseTensor core = RandomCore(ranks, 6);
  auto factors = RandomFactors(dims, ranks, 7);
  CoreEntryList list(core);

  const std::int64_t entry[3] = {3, 0, 2};
  // Eq. 4 via delta: x̂ = Σ_j delta(j) * A(n)(in, j) for any mode n.
  for (std::int64_t mode = 0; mode < 3; ++mode) {
    std::vector<double> delta(2);
    ComputeDelta(list, MakeFactorViews(factors), entry, mode, delta.data());
    double via_delta = 0.0;
    for (int j = 0; j < 2; ++j) {
      via_delta += delta[static_cast<std::size_t>(j)] *
                   factors[static_cast<std::size_t>(mode)](entry[mode], j);
    }
    EXPECT_NEAR(ReconstructFromList(list, MakeFactorViews(factors), entry),
                via_delta, 1e-12);
  }
}

TEST(ReconstructFromListTest, BatchIsBitIdenticalToPerEntryScan) {
  // Orders 1-5, uneven ranks, signed values, a core with holes, and
  // counts around the block size: every x̂ has the scalar scan's bits.
  Rng rng(8);
  for (std::int64_t order = 1; order <= 5; ++order) {
    std::vector<std::int64_t> dims;
    std::vector<std::int64_t> ranks;
    for (std::int64_t k = 0; k < order; ++k) {
      dims.push_back(7 + k);
      ranks.push_back(1 + (k + order) % 4);
    }
    DenseTensor core(ranks);
    for (std::int64_t i = 0; i < core.size(); ++i) {
      core[i] = i % 5 == 3 ? 0.0 : rng.Uniform() - 0.5;
    }
    std::vector<Matrix> factors;
    for (std::int64_t k = 0; k < order; ++k) {
      Matrix factor(dims[static_cast<std::size_t>(k)],
                    ranks[static_cast<std::size_t>(k)]);
      for (std::int64_t i = 0; i < factor.size(); ++i) {
        factor.data()[i] = (rng.Uniform() - 0.5) * (1.0 + 1e3 * (i % 3));
      }
      factors.push_back(std::move(factor));
    }
    const CoreEntryList list(core);
    const std::vector<FactorView> views = MakeFactorViews(factors);
    for (std::int64_t count : {0, 1, 15, 16, 17, 53}) {
      std::vector<std::int64_t> coords(
          static_cast<std::size_t>(count * order));
      std::vector<const std::int64_t*> indices;
      for (std::int64_t e = 0; e < count; ++e) {
        for (std::int64_t k = 0; k < order; ++k) {
          coords[static_cast<std::size_t>(e * order + k)] =
              static_cast<std::int64_t>(
                  rng.UniformInt(static_cast<std::uint64_t>(
                      dims[static_cast<std::size_t>(k)])));
        }
      }
      for (std::int64_t e = 0; e < count; ++e) {
        indices.push_back(coords.data() + e * order);
      }
      std::vector<double> batch(static_cast<std::size_t>(count), -1.0);
      ReconstructFromList(list, views, count, indices.data(), batch.data());
      for (std::int64_t e = 0; e < count; ++e) {
        const double scalar = ReconstructFromList(
            list, views, indices[static_cast<std::size_t>(e)]);
        const double batched = batch[static_cast<std::size_t>(e)];
        EXPECT_EQ(std::memcmp(&scalar, &batched, sizeof(double)), 0)
            << "order " << order << ", count " << count << ", entry " << e
            << ": " << scalar << " vs " << batched;
      }
    }
  }
}

}  // namespace
}  // namespace ptucker
