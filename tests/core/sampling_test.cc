// Tests of the entry-sampling extension (the paper's future-work
// direction): each row update uses a Bernoulli(sample_rate) subsample of
// its slice.
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/ptucker.h"
#include "core/reconstruction.h"
#include "data/lowrank.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "util/random.h"

namespace ptucker {
namespace {

TEST(SamplingTest, RejectsInvalidRate) {
  Rng rng(1);
  SparseTensor x = UniformSparseTensor({10, 10, 10}, 100, rng);
  PTuckerOptions options;
  options.core_dims = {2, 2, 2};
  options.sample_rate = 0.0;
  EXPECT_THROW(PTuckerDecompose(x, options), std::invalid_argument);
  options.sample_rate = 1.5;
  EXPECT_THROW(PTuckerDecompose(x, options), std::invalid_argument);
  // NaN fails every comparison, so a range check alone lets it through
  // to a silent full-rate run.
  options.sample_rate = std::numeric_limits<double>::quiet_NaN();
  try {
    PTuckerDecompose(x, options);
    ADD_FAILURE() << "accepted a NaN sample_rate";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("sample_rate"),
              std::string::npos)
        << error.what();
  }
}

TEST(SamplingTest, FullRateIsExactAlgorithm) {
  Rng rng(2);
  SparseTensor x = UniformSparseTensor({15, 12, 10}, 400, rng);
  PTuckerOptions options;
  options.core_dims = {3, 3, 3};
  options.max_iterations = 5;
  PTuckerResult exact = PTuckerDecompose(x, options);
  options.sample_rate = 1.0;  // explicit full rate
  PTuckerResult full = PTuckerDecompose(x, options);
  EXPECT_DOUBLE_EQ(exact.final_error, full.final_error);
}

TEST(SamplingTest, SampledRunStaysFiniteAndUseful) {
  Rng rng(3);
  PlantedTucker model = RandomTuckerModel({25, 20, 15}, {3, 3, 3}, rng);
  SparseTensor x = SampleFromModel(model, 3000, 0.02, rng);
  PTuckerOptions options;
  options.core_dims = {3, 3, 3};
  options.max_iterations = 10;
  options.sample_rate = 0.5;
  PTuckerResult result = PTuckerDecompose(x, options);
  EXPECT_TRUE(std::isfinite(result.final_error));
  // Still a real model: beats predicting zero by a wide margin.
  EXPECT_LT(result.final_error, 0.5 * x.FrobeniusNorm());
}

TEST(SamplingTest, AccuracyDegradesGracefully) {
  // "Sacrificing little accuracy": half-rate sampling should stay within a
  // modest factor of the exact solve on well-conditioned data.
  Rng rng(4);
  PlantedTucker model = RandomTuckerModel({30, 25, 20}, {3, 3, 3}, rng);
  SparseTensor x = SampleFromModel(model, 5000, 0.02, rng);
  auto split = SplitObservedEntries(x, 0.1, rng);

  PTuckerOptions options;
  options.core_dims = {3, 3, 3};
  options.max_iterations = 10;
  PTuckerResult exact = PTuckerDecompose(split.train, options);
  options.sample_rate = 0.5;
  PTuckerResult sampled = PTuckerDecompose(split.train, options);

  const double exact_rmse =
      TestRmse(split.test, exact.model.core, exact.model.factors);
  const double sampled_rmse =
      TestRmse(split.test, sampled.model.core, sampled.model.factors);
  EXPECT_LT(sampled_rmse, 2.0 * exact_rmse + 1e-6);
}

TEST(SamplingTest, DeterministicForSeed) {
  Rng rng(5);
  SparseTensor x = UniformSparseTensor({15, 15, 15}, 500, rng);
  PTuckerOptions options;
  options.core_dims = {2, 2, 2};
  options.max_iterations = 4;
  options.sample_rate = 0.4;
  PTuckerResult a = PTuckerDecompose(x, options);
  PTuckerResult b = PTuckerDecompose(x, options);
  EXPECT_DOUBLE_EQ(a.final_error, b.final_error);
  options.seed += 1;
  PTuckerResult c = PTuckerDecompose(x, options);
  EXPECT_NE(a.final_error, c.final_error);
}

TEST(SamplingTest, TinyRateStillAnchorsEveryObservedRow) {
  // Even at a vanishing rate, rows with observations must not collapse to
  // zero (the at-least-one-entry guarantee).
  Rng rng(6);
  SparseTensor x = UniformSparseTensor({12, 12, 12}, 300, rng);
  PTuckerOptions options;
  options.core_dims = {2, 2, 2};
  options.max_iterations = 3;
  options.sample_rate = 1e-6;
  options.orthogonalize_output = false;
  PTuckerResult result = PTuckerDecompose(x, options);
  for (std::int64_t row = 0; row < x.dim(0); ++row) {
    if (x.SliceSize(0, row) == 0) continue;
    double norm = 0.0;
    for (std::int64_t j = 0; j < 2; ++j) {
      norm += std::fabs(result.model.factors[0](row, j));
    }
    EXPECT_GT(norm, 0.0) << "row " << row;
  }
}

TEST(SamplingTest, WorksWithCacheVariant) {
  Rng rng(7);
  SparseTensor x = UniformSparseTensor({12, 10, 8}, 300, rng);
  PTuckerOptions options;
  options.core_dims = {2, 2, 2};
  options.max_iterations = 4;
  options.sample_rate = 0.5;
  PTuckerResult plain = PTuckerDecompose(x, options);
  options.variant = PTuckerVariant::kCache;
  PTuckerResult cached = PTuckerDecompose(x, options);
  // Same subsample stream (seeded by iteration/mode/row) -> same result.
  EXPECT_NEAR(plain.final_error, cached.final_error, 1e-7);
}

}  // namespace
}  // namespace ptucker
