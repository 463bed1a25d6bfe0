#include "baselines/cp_als.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/reconstruction.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "util/random.h"

namespace ptucker {
namespace {

// Samples observed entries from a planted rank-R CP model (no clamping,
// so exact recovery is possible).
SparseTensor SampleCpModel(const std::vector<std::int64_t>& dims,
                           std::int64_t rank, std::int64_t nnz, double noise,
                           Rng& rng, std::vector<Matrix>* factors_out) {
  std::vector<Matrix> factors;
  for (std::int64_t d : dims) {
    Matrix factor(d, rank);
    factor.FillUniform(rng);
    factors.push_back(std::move(factor));
  }
  SparseTensor x(dims);
  std::vector<std::int64_t> index(dims.size());
  for (std::int64_t e = 0; e < nnz; ++e) {
    for (std::size_t k = 0; k < dims.size(); ++k) {
      index[k] = static_cast<std::int64_t>(
          rng.UniformInt(static_cast<std::uint64_t>(dims[k])));
    }
    double value = 0.0;
    for (std::int64_t r = 0; r < rank; ++r) {
      double product = 1.0;
      for (std::size_t k = 0; k < dims.size(); ++k) {
        product *= factors[k](index[k], r);
      }
      value += product;
    }
    x.AddEntry(index, value + rng.Normal(0.0, noise));
  }
  x.BuildModeIndex();
  if (factors_out != nullptr) *factors_out = std::move(factors);
  return x;
}

TEST(CpAlsValidationTest, RejectsBadInputs) {
  SparseTensor empty({4, 4});
  empty.BuildModeIndex();
  CpOptions options;
  options.rank = 2;
  EXPECT_THROW(CpAlsDecompose(empty, options), std::invalid_argument);

  SparseTensor no_index({4, 4});
  no_index.AddEntry({0, 0}, 1.0);
  EXPECT_THROW(CpAlsDecompose(no_index, options), std::invalid_argument);

  Rng rng(1);
  SparseTensor x = UniformSparseTensor({4, 4}, 8, rng);
  options.rank = 0;
  EXPECT_THROW(CpAlsDecompose(x, options), std::invalid_argument);

  options.rank = 2;
  for (const double lambda : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    options.lambda = lambda;
    EXPECT_THROW(CpAlsDecompose(x, options), std::invalid_argument) << lambda;
  }
}

TEST(CpAlsTest, ErrorMonotoneNonIncreasing) {
  Rng rng(2);
  SparseTensor x = UniformSparseTensor({15, 12, 10}, 400, rng);
  CpOptions options;
  options.rank = 3;
  options.max_iterations = 8;
  CpResult result = CpAlsDecompose(x, options);
  for (std::size_t i = 1; i < result.iterations.size(); ++i) {
    EXPECT_LE(result.iterations[i].error,
              result.iterations[i - 1].error + 1e-9);
  }
}

TEST(CpAlsTest, RecoversPlantedCpModel) {
  Rng rng(3);
  SparseTensor x = SampleCpModel({20, 18, 16}, 3, 4000, 0.0, rng, nullptr);
  CpOptions options;
  options.rank = 3;
  // ALS on CP converges slowly near the solution ("swamps"), so allow
  // plenty of iterations and assert recovery to 1% of the data norm.
  options.max_iterations = 150;
  options.lambda = 1e-8;
  options.tolerance = 1e-10;
  CpResult result = CpAlsDecompose(x, options);
  EXPECT_LT(result.final_error, 1e-2 * x.FrobeniusNorm());
}

TEST(CpAlsTest, PredictMatchesToTuckerModel) {
  // The superdiagonal-core conversion must reproduce CP predictions
  // exactly (CP ⊂ Tucker, paper §II).
  Rng rng(4);
  SparseTensor x = UniformSparseTensor({10, 9, 8}, 200, rng);
  CpOptions options;
  options.rank = 3;
  options.max_iterations = 5;
  CpResult result = CpAlsDecompose(x, options);
  TuckerFactorization tucker = result.ToTucker();
  for (std::int64_t e = 0; e < 20; ++e) {
    EXPECT_NEAR(result.Predict(x.index(e)), tucker.Predict(x.index(e)),
                1e-10);
  }
  // And the error metrics agree through the shared tooling.
  EXPECT_NEAR(result.final_error,
              ReconstructionError(x, tucker.core, tucker.factors), 1e-8);
}

TEST(CpAlsTest, PredictsMissingEntriesOnCpData) {
  Rng rng(5);
  SparseTensor all = SampleCpModel({15, 15, 15}, 2, 2000, 0.01, rng, nullptr);
  auto split = SplitObservedEntries(all, 0.1, rng);
  CpOptions options;
  options.rank = 2;
  options.max_iterations = 25;
  CpResult result = CpAlsDecompose(split.train, options);
  TuckerFactorization model = result.ToTucker();
  const double rmse = TestRmse(split.test, model.core, model.factors);
  double zero_sq = 0.0;
  for (std::int64_t e = 0; e < split.test.nnz(); ++e) {
    zero_sq += split.test.value(e) * split.test.value(e);
  }
  const double zero_rmse =
      std::sqrt(zero_sq / static_cast<double>(split.test.nnz()));
  EXPECT_LT(rmse, 0.5 * zero_rmse);
}

TEST(CpAlsTest, EmptySlicesZeroed) {
  SparseTensor x({5, 4});
  x.AddEntry({1, 1}, 1.0);
  x.AddEntry({2, 3}, 2.0);
  x.BuildModeIndex();
  CpOptions options;
  options.rank = 2;
  options.max_iterations = 3;
  CpResult result = CpAlsDecompose(x, options);
  for (std::int64_t r = 0; r < 2; ++r) {
    EXPECT_EQ(result.factors[0](0, r), 0.0);  // row 0 unobserved
    EXPECT_EQ(result.factors[0](4, r), 0.0);  // row 4 unobserved
  }
}

TEST(CpAlsTest, TracksScratchMemory) {
  Rng rng(6);
  SparseTensor x = UniformSparseTensor({10, 10, 10}, 200, rng);
  MemoryTracker tracker;
  CpOptions options;
  options.rank = 4;
  options.max_iterations = 2;
  options.tracker = &tracker;
  CpAlsDecompose(x, options);
  EXPECT_GT(tracker.peak_bytes(), 0);
  EXPECT_EQ(tracker.current_bytes(), 0);
}

}  // namespace
}  // namespace ptucker
