// The shared row-subset entry point (core/row_update.h) that both the
// ALS sweep and the streaming ingest pipeline solve through. Pins the
// contracts the pipeline's determinism rests on: rows == nullptr is
// bit-identical to passing every row explicitly, a subset call touches
// only the listed rows, results are independent of thread count and
// scheduling, and the full-sweep path is exactly what PTuckerDecompose
// runs (the golden-trajectory tests in ptucker_test.cc cover that end
// to end).
#include "core/row_update.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>
#include <omp.h>

#include "core/delta_engine.h"
#include "data/synthetic.h"
#include "tensor/dense_tensor.h"
#include "util/random.h"

namespace ptucker {
namespace {

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~ThreadCountGuard() { omp_set_num_threads(saved_); }

 private:
  int saved_;
};

struct Ctx {
  SparseTensor x;
  DenseTensor core;
  std::unique_ptr<CoreEntryList> list;
  std::vector<Matrix> factors;
};

Ctx MakeCtx(std::uint64_t seed) {
  Rng rng(seed);
  Ctx s;
  s.x = UniformSparseTensor({14, 11, 9}, 180, rng);
  s.x.BuildModeIndex();
  s.core = DenseTensor({4, 3, 3});
  s.core.FillUniform(rng);
  s.list = std::make_unique<CoreEntryList>(s.core);
  for (std::int64_t n = 0; n < 3; ++n) {
    Matrix factor(s.x.dim(n), s.core.dim(n));
    factor.FillUniform(rng);
    s.factors.push_back(std::move(factor));
  }
  return s;
}

void ExpectSameMatrix(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << "flat index " << i;
  }
}

TEST(RowUpdateTest, NullRowsEqualsExplicitAllRows) {
  for (const DeltaEngineChoice choice :
       {DeltaEngineChoice::kNaive, DeltaEngineChoice::kModeMajor,
        DeltaEngineChoice::kCached}) {
    Ctx ctx = MakeCtx(11);
    const auto engine = MakeDeltaEngine(choice, ctx.x, *ctx.list,
                                        ctx.factors, nullptr);
    for (std::int64_t mode = 0; mode < 3; ++mode) {
      Matrix full = ctx.factors[static_cast<std::size_t>(mode)];
      Matrix listed = full;
      std::vector<std::int64_t> all(
          static_cast<std::size_t>(ctx.x.dim(mode)));
      std::iota(all.begin(), all.end(), 0);
      RowUpdateOptions options;
      {
        OmpEnvironmentGuard omp(1, Scheduling::kDynamic);
        UpdateFactorRows(ctx.x, mode, nullptr, 0, *engine, &full, options);
        UpdateFactorRows(ctx.x, mode, all.data(),
                         static_cast<std::int64_t>(all.size()), *engine,
                         &listed, options);
      }
      ExpectSameMatrix(full, listed);
    }
  }
}

TEST(RowUpdateTest, SubsetTouchesOnlyListedRows) {
  Ctx ctx = MakeCtx(12);
  const auto engine = MakeDeltaEngine(DeltaEngineChoice::kModeMajor, ctx.x,
                                      *ctx.list, ctx.factors, nullptr);
  const Matrix before = ctx.factors[0];
  Matrix updated = before;
  const std::vector<std::int64_t> rows = {2, 5, 7};
  RowUpdateOptions options;
  {
    OmpEnvironmentGuard omp(2, Scheduling::kDynamic);
    UpdateFactorRows(ctx.x, 0, rows.data(),
                     static_cast<std::int64_t>(rows.size()), *engine,
                     &updated, options);
  }
  // Listed rows with observed entries change; everything else is
  // bit-untouched.
  for (std::int64_t i = 0; i < before.rows(); ++i) {
    const bool listed =
        std::find(rows.begin(), rows.end(), i) != rows.end();
    for (std::int64_t j = 0; j < before.cols(); ++j) {
      if (!listed) {
        EXPECT_EQ(updated(i, j), before(i, j)) << "row " << i;
      }
    }
  }
  // And a full sweep restricted to those rows agrees with re-solving
  // them out of a fresh full sweep's result.
  Matrix full = before;
  {
    OmpEnvironmentGuard omp(2, Scheduling::kDynamic);
    UpdateFactorRows(ctx.x, 0, nullptr, 0, *engine, &full, options);
  }
  for (const std::int64_t row : rows) {
    for (std::int64_t j = 0; j < before.cols(); ++j) {
      EXPECT_EQ(updated(row, j), full(row, j)) << "row " << row;
    }
  }
}

TEST(RowUpdateTest, DeterministicAcrossThreadCountsAndScheduling) {
  const std::vector<std::int64_t> rows = {0, 3, 4, 8, 10};
  Matrix reference;
  for (const int threads : {1, 4, 13}) {
    for (const Scheduling scheduling :
         {Scheduling::kDynamic, Scheduling::kStatic}) {
      Ctx ctx = MakeCtx(13);
      const auto engine = MakeDeltaEngine(DeltaEngineChoice::kModeMajor,
                                          ctx.x, *ctx.list, ctx.factors,
                                          nullptr);
      Matrix factor = ctx.factors[0];
      RowUpdateOptions options;
      ThreadCountGuard ambient(threads);
      {
        OmpEnvironmentGuard omp(threads, scheduling);
        UpdateFactorRows(ctx.x, 0, rows.data(),
                         static_cast<std::int64_t>(rows.size()), *engine,
                         &factor, options);
      }
      if (reference.rows() == 0) {
        reference = factor;
      } else {
        ExpectSameMatrix(factor, reference);
      }
    }
  }
}

TEST(RowUpdateTest, RejectsBadArguments) {
  Ctx ctx = MakeCtx(14);
  const auto engine = MakeDeltaEngine(DeltaEngineChoice::kModeMajor, ctx.x,
                                      *ctx.list, ctx.factors, nullptr);
  Matrix factor = ctx.factors[0];
  RowUpdateOptions options;
  EXPECT_THROW(
      UpdateFactorRows(ctx.x, 3, nullptr, 0, *engine, &factor, options),
      std::invalid_argument);
  EXPECT_THROW(
      UpdateFactorRows(ctx.x, 0, nullptr, 0, *engine, nullptr, options),
      std::invalid_argument);
  const std::int64_t bad_row = ctx.x.dim(0);
  EXPECT_THROW(UpdateFactorRows(ctx.x, 0, &bad_row, 1, *engine, &factor,
                                options),
               std::invalid_argument);
}

}  // namespace
}  // namespace ptucker
