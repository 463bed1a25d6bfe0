// P-TUCKER-CACHE's Pres table (§III-C) through CachedDeltaEngine's public
// interface: δ against the direct Eq. 12 scan (the zero-coefficient
// fallback included), the after-mode rescale against a freshly built
// table, and the |Ω|·|G|·8-byte charge the table holds for its lifetime.
#include <vector>

#include <gtest/gtest.h>

#include "core/delta_engine.h"
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

// The bytes of a Pres table over `s`: |Ω|·|G| doubles.
std::int64_t TableBytes(const Ctx& s) {
  return s.x.nnz() * s.list.size() *
         static_cast<std::int64_t>(sizeof(double));
}

// `engine`'s δ equals `expected`'s within `tolerance` for every observed
// entry and mode.
void ExpectSameDeltas(const Ctx& s, const DeltaEngine& engine,
                      const DeltaEngine& expected, double tolerance) {
  for (std::int64_t e = 0; e < s.x.nnz(); ++e) {
    for (std::int64_t mode = 0; mode < 3; ++mode) {
      const std::int64_t rank = s.core.dim(mode);
      std::vector<double> got(static_cast<std::size_t>(rank));
      std::vector<double> want(static_cast<std::size_t>(rank));
      engine.ComputeDelta(e, s.x.index(e), mode, got.data());
      expected.ComputeDelta(e, s.x.index(e), mode, want.data());
      for (std::int64_t j = 0; j < rank; ++j) {
        EXPECT_NEAR(got[static_cast<std::size_t>(j)],
                    want[static_cast<std::size_t>(j)], tolerance)
            << "entry " << e << " mode " << mode << " lane " << j;
      }
    }
  }
}

TEST(CachedDeltaEngineTest, DeltaMatchesDirectDelta) {
  Ctx s = MakeCtx(2);
  CachedDeltaEngine cached(s.x, s.list, s.factors, nullptr);
  NaiveDeltaEngine direct(s.list, s.factors);
  ExpectSameDeltas(s, cached, direct, 1e-9);
}

TEST(CachedDeltaEngineTest, ZeroCoefficientFallback) {
  Ctx s = MakeCtx(3);
  // Zero an entire factor row touched by entry 0 so the division path is
  // impossible for it.
  const std::int64_t row = s.x.index(0, 1);
  for (std::int64_t j = 0; j < s.factors[1].cols(); ++j) {
    s.factors[1](row, j) = 0.0;
  }
  CachedDeltaEngine cached(s.x, s.list, s.factors, nullptr);
  const std::int64_t rank = s.core.dim(1);
  std::vector<double> got(static_cast<std::size_t>(rank));
  std::vector<double> want(static_cast<std::size_t>(rank));
  cached.ComputeDelta(0, s.x.index(0), 1, got.data());
  ComputeDelta(s.list, MakeFactorViews(s.factors), s.x.index(0), 1,
               want.data());
  for (std::int64_t j = 0; j < rank; ++j) {
    EXPECT_NEAR(got[static_cast<std::size_t>(j)],
                want[static_cast<std::size_t>(j)], 1e-12);
  }
}

TEST(CachedDeltaEngineTest, OnFactorUpdatedMatchesFreshEngine) {
  Ctx s = MakeCtx(4);
  CachedDeltaEngine cached(s.x, s.list, s.factors, nullptr);
  // Change mode 2's factor in place, then rescale the table.
  const Matrix old_factor = s.factors[2];
  Rng rng(99);
  s.factors[2].FillUniform(rng);
  cached.OnFactorUpdated(2, old_factor);
  CachedDeltaEngine fresh(s.x, s.list, s.factors, nullptr);
  ExpectSameDeltas(s, cached, fresh, 1e-9);
}

TEST(CachedDeltaEngineTest, OnFactorUpdatedWithZeroOldCoefficient) {
  Ctx s = MakeCtx(5);
  const Matrix new_factor = s.factors[0];
  const std::int64_t row = s.x.index(0, 0);
  // Build the table against a zeroed row, then restore the row in place.
  for (std::int64_t j = 0; j < s.factors[0].cols(); ++j) {
    s.factors[0](row, j) = 0.0;
  }
  CachedDeltaEngine cached(s.x, s.list, s.factors, nullptr);
  const Matrix old_factor = s.factors[0];
  for (std::int64_t j = 0; j < s.factors[0].cols(); ++j) {
    s.factors[0](row, j) = new_factor(row, j);
  }
  cached.OnFactorUpdated(0, old_factor);
  CachedDeltaEngine fresh(s.x, s.list, s.factors, nullptr);
  ExpectSameDeltas(s, cached, fresh, 1e-9);
}

TEST(CachedDeltaEngineTest, ChargesOmegaTimesCoreBytes) {
  Ctx s = MakeCtx(6);
  MemoryTracker tracker;
  CachedDeltaEngine cached(s.x, s.list, s.factors, &tracker);
  const std::int64_t full = TableBytes(s);
  EXPECT_EQ(tracker.current_bytes(), full);
  EXPECT_EQ(cached.ByteSize(), full);

  // Dropping core entries shrinks the table and its charge.
  std::vector<char> remove(static_cast<std::size_t>(s.list.size()), 0);
  for (std::int64_t b = 0; b < s.list.size(); b += 3) {
    remove[static_cast<std::size_t>(b)] = 1;
  }
  s.list.Remove(remove, &s.core);
  cached.OnCoreEntriesRemoved(remove);
  EXPECT_LT(TableBytes(s), full);
  EXPECT_EQ(tracker.current_bytes(), TableBytes(s));
  EXPECT_EQ(cached.ByteSize(), TableBytes(s));
  EXPECT_EQ(tracker.peak_bytes(), full);
}

TEST(CachedDeltaEngineTest, ReleasesChargeOnDestruction) {
  Ctx s = MakeCtx(8);
  MemoryTracker tracker;
  {
    CachedDeltaEngine cached(s.x, s.list, s.factors, &tracker);
    EXPECT_EQ(tracker.current_bytes(), TableBytes(s));
  }
  EXPECT_EQ(tracker.current_bytes(), 0);
  EXPECT_EQ(tracker.peak_bytes(), TableBytes(s));
}

TEST(CachedDeltaEngineTest, BudgetTriggersOom) {
  Ctx s = MakeCtx(7);
  MemoryTracker short_budget(TableBytes(s) - 1);
  EXPECT_THROW(CachedDeltaEngine(s.x, s.list, s.factors, &short_budget),
               OutOfMemoryBudget);
  EXPECT_EQ(short_budget.current_bytes(), 0);  // nothing stays charged

  MemoryTracker exact_budget(TableBytes(s));
  CachedDeltaEngine cached(s.x, s.list, s.factors, &exact_budget);
  EXPECT_EQ(exact_budget.current_bytes(), TableBytes(s));
}

}  // namespace
}  // namespace ptucker
