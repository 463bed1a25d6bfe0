#include "baselines/hooi.h"

#include <gtest/gtest.h>

#include "core/reconstruction.h"
#include "data/lowrank.h"
#include "data/synthetic.h"
#include "linalg/qr.h"
#include "tensor/index.h"
#include "tensor/nmode.h"
#include "util/random.h"

namespace ptucker {
namespace {

HooiOptions SmallOptions() {
  HooiOptions options;
  options.core_dims = {3, 3, 3};
  options.max_iterations = 8;
  return options;
}

TEST(HooiValidationTest, RejectsBadInputs) {
  SparseTensor empty({4, 4});
  HooiOptions options;
  options.core_dims = {2, 2};
  EXPECT_THROW(HooiDecompose(empty, options), std::invalid_argument);

  Rng rng(1);
  SparseTensor x = UniformSparseTensor({4, 4}, 8, rng);
  options.core_dims = {2, 5};  // 5 > dim 4
  EXPECT_THROW(HooiDecompose(x, options), std::invalid_argument);
  options.core_dims = {2};
  EXPECT_THROW(HooiDecompose(x, options), std::invalid_argument);
  options.core_dims = {0, 2};
  EXPECT_THROW(HooiDecompose(x, options), std::invalid_argument);
  options.core_dims = {2, 2, 2};
  EXPECT_THROW(HooiDecompose(x, options), std::invalid_argument);
  options.core_dims = {2, 2};
  options.max_iterations = 0;
  EXPECT_THROW(HooiDecompose(x, options), std::invalid_argument);
}

TEST(HooiTest, FactorsOrthonormal) {
  Rng rng(2);
  SparseTensor x = UniformSparseTensor({10, 9, 8}, 200, rng);
  PTuckerResult result = HooiDecompose(x, SmallOptions());
  for (const auto& factor : result.model.factors) {
    EXPECT_LT(OrthonormalityDefect(factor), 1e-8);
  }
}

TEST(HooiTest, ExactRecoveryOfFullyObservedLowRankTensor) {
  // A fully observed tensor with exact multilinear rank (2,2,2) must be
  // reconstructed to machine precision: HOOI's home turf.
  Rng rng(3);
  PlantedTucker model = RandomTuckerModel({7, 6, 5}, {2, 2, 2}, rng);
  DenseTensor dense = ReconstructDense(model.core, model.factors);
  SparseTensor x(dense.dims());
  std::vector<std::int64_t> index(3);
  for (std::int64_t linear = 0; linear < dense.size(); ++linear) {
    dense.IndexOf(linear, index.data());
    x.AddEntry(index, dense[linear]);
  }
  HooiOptions options;
  options.core_dims = {2, 2, 2};
  options.max_iterations = 15;
  PTuckerResult result = HooiDecompose(x, options);
  EXPECT_LT(result.final_error, 1e-6 * dense.FrobeniusNorm() + 1e-9);
}

TEST(HooiTest, ZeroImputationHurtsOnSparseData) {
  // On sparse partially observed data HOOI drags predictions toward zero;
  // its observed-entry error stays near the data norm.
  Rng rng(4);
  PlantedTucker model = RandomTuckerModel({15, 15, 15}, {2, 2, 2}, rng);
  SparseTensor x = SampleFromModel(model, 300, 0.01, rng);  // ~9% dense
  HooiOptions options;
  options.core_dims = {2, 2, 2};
  options.max_iterations = 10;
  PTuckerResult result = HooiDecompose(x, options);
  EXPECT_GT(result.final_error, 0.3 * x.FrobeniusNorm());
}

TEST(HooiTest, TrackerSeesIntermediateDataExplosion) {
  Rng rng(5);
  SparseTensor x = UniformSparseTensor({50, 40, 30}, 100, rng);
  MemoryTracker tracker;
  HooiOptions options = SmallOptions();
  options.max_iterations = 1;
  options.tracker = &tracker;
  HooiDecompose(x, options);
  // Y(0) alone is 50 x 9 doubles.
  EXPECT_GE(tracker.peak_bytes(), 50 * 9 * 8);
}

TEST(HooiTest, OomOnBudget) {
  Rng rng(6);
  SparseTensor x = UniformSparseTensor({2000, 2000, 2000}, 100, rng);
  MemoryTracker tracker(16 * 1024);
  HooiOptions options = SmallOptions();
  options.tracker = &tracker;
  EXPECT_THROW(HooiDecompose(x, options), OutOfMemoryBudget);
}

TEST(HooiTest, IterationStatsRecorded) {
  Rng rng(7);
  SparseTensor x = UniformSparseTensor({8, 8, 8}, 100, rng);
  PTuckerResult result = HooiDecompose(x, SmallOptions());
  ASSERT_FALSE(result.iterations.empty());
  EXPECT_GT(result.SecondsPerIteration(), 0.0);
  EXPECT_EQ(result.iterations.front().iteration, 1);
}

}  // namespace
}  // namespace ptucker
