#include "core/cache_table.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "util/random.h"

namespace ptucker {
namespace {

struct Ctx {
  SparseTensor x;
  DenseTensor core;
  CoreEntryList list;
  std::vector<Matrix> factors;
};

Ctx MakeCtx(std::uint64_t seed) {
  Rng rng(seed);
  Ctx s;
  s.x = UniformSparseTensor({6, 5, 4}, 40, rng);
  s.core = DenseTensor({2, 3, 2});
  s.core.FillUniform(rng);
  s.list = CoreEntryList(s.core);
  for (std::int64_t k = 0; k < 3; ++k) {
    Matrix factor(s.x.dim(k), s.core.dim(k));
    factor.FillUniform(rng);
    s.factors.push_back(std::move(factor));
  }
  return s;
}

TEST(CacheTableTest, EntriesMatchDirectProducts) {
  Ctx s = MakeCtx(1);
  CacheTable cache(s.x, s.list, MakeFactorViews(s.factors), nullptr);
  for (std::int64_t e = 0; e < s.x.nnz(); ++e) {
    const std::int64_t* idx = s.x.index(e);
    for (std::int64_t b = 0; b < s.list.size(); ++b) {
      double expected = s.list.value(b);
      for (std::int64_t k = 0; k < 3; ++k) {
        expected *= s.factors[static_cast<std::size_t>(k)](
            idx[k], s.list.index(b)[k]);
      }
      EXPECT_NEAR(cache.Row(e)[b], expected, 1e-12);
    }
  }
}

TEST(CacheTableTest, CachedDeltaMatchesDirectDelta) {
  Ctx s = MakeCtx(2);
  CacheTable cache(s.x, s.list, MakeFactorViews(s.factors), nullptr);
  for (std::int64_t e = 0; e < s.x.nnz(); ++e) {
    const std::int64_t* idx = s.x.index(e);
    for (std::int64_t mode = 0; mode < 3; ++mode) {
      const std::int64_t rank = s.core.dim(mode);
      std::vector<double> cached(static_cast<std::size_t>(rank));
      std::vector<double> direct(static_cast<std::size_t>(rank));
      cache.ComputeDeltaCached(s.list, MakeFactorViews(s.factors), e, idx,
                               mode, cached.data());
      ComputeDelta(s.list, MakeFactorViews(s.factors), idx, mode,
                   direct.data());
      for (std::int64_t j = 0; j < rank; ++j) {
        EXPECT_NEAR(cached[static_cast<std::size_t>(j)],
                    direct[static_cast<std::size_t>(j)], 1e-9);
      }
    }
  }
}

TEST(CacheTableTest, ZeroCoefficientFallback) {
  Ctx s = MakeCtx(3);
  // Zero an entire factor row touched by entry 0 so the division path is
  // impossible for it.
  const std::int64_t row = s.x.index(0, 1);
  for (std::int64_t j = 0; j < s.factors[1].cols(); ++j) {
    s.factors[1](row, j) = 0.0;
  }
  CacheTable cache(s.x, s.list, MakeFactorViews(s.factors), nullptr);
  const std::int64_t rank = s.core.dim(1);
  std::vector<double> cached(static_cast<std::size_t>(rank));
  std::vector<double> direct(static_cast<std::size_t>(rank));
  cache.ComputeDeltaCached(s.list, MakeFactorViews(s.factors), 0,
                           s.x.index(0), 1, cached.data());
  ComputeDelta(s.list, MakeFactorViews(s.factors), s.x.index(0), 1,
               direct.data());
  for (std::int64_t j = 0; j < rank; ++j) {
    EXPECT_NEAR(cached[static_cast<std::size_t>(j)],
                direct[static_cast<std::size_t>(j)], 1e-12);
  }
}

TEST(CacheTableTest, UpdateAfterModeTracksNewFactor) {
  Ctx s = MakeCtx(4);
  CacheTable cache(s.x, s.list, MakeFactorViews(s.factors), nullptr);
  // Change mode 2's factor, then rescale the table.
  Matrix old_factor = s.factors[2];
  Rng rng(99);
  s.factors[2].FillUniform(rng);
  cache.UpdateAfterMode(s.x, s.list, MakeFactorViews(s.factors), 2, old_factor);
  // Table must now equal a fresh build against the new factors.
  CacheTable fresh(s.x, s.list, MakeFactorViews(s.factors), nullptr);
  for (std::int64_t e = 0; e < s.x.nnz(); ++e) {
    for (std::int64_t b = 0; b < s.list.size(); ++b) {
      EXPECT_NEAR(cache.Row(e)[b], fresh.Row(e)[b], 1e-9);
    }
  }
}

TEST(CacheTableTest, UpdateAfterModeWithZeroOldCoefficient) {
  Ctx s = MakeCtx(5);
  Matrix old_factor = s.factors[0];
  const std::int64_t row = s.x.index(0, 0);
  for (std::int64_t j = 0; j < old_factor.cols(); ++j) {
    old_factor(row, j) = 0.0;
  }
  // Build the cache against the zeroed old factor, then restore.
  std::vector<Matrix> old_factors = s.factors;
  old_factors[0] = old_factor;
  CacheTable cache(s.x, s.list, MakeFactorViews(old_factors), nullptr);
  cache.UpdateAfterMode(s.x, s.list, MakeFactorViews(s.factors), 0, old_factor);
  CacheTable fresh(s.x, s.list, MakeFactorViews(s.factors), nullptr);
  for (std::int64_t e = 0; e < s.x.nnz(); ++e) {
    for (std::int64_t b = 0; b < s.list.size(); ++b) {
      EXPECT_NEAR(cache.Row(e)[b], fresh.Row(e)[b], 1e-9);
    }
  }
}

TEST(CacheTableTest, ChargesOmegaTimesCoreBytes) {
  Ctx s = MakeCtx(6);
  MemoryTracker tracker;
  {
    CacheTable cache(s.x, s.list, MakeFactorViews(s.factors), &tracker);
    EXPECT_EQ(tracker.current_bytes(),
              s.x.nnz() * s.list.size() *
                  static_cast<std::int64_t>(sizeof(double)));
  }
  EXPECT_EQ(tracker.current_bytes(), 0);  // released on destruction
}

TEST(CacheTableTest, BudgetTriggersOom) {
  Ctx s = MakeCtx(7);
  MemoryTracker tracker(64);  // tiny budget
  EXPECT_THROW(CacheTable(s.x, s.list, MakeFactorViews(s.factors), &tracker),
               OutOfMemoryBudget);
}

}  // namespace
}  // namespace ptucker
