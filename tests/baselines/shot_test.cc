#include "baselines/shot.h"

#include <cmath>
#include <gtest/gtest.h>

#include "baselines/hooi.h"
#include "data/lowrank.h"
#include "data/synthetic.h"
#include "linalg/qr.h"
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

TEST(ShotValidationTest, RejectsBadInputs) {
  SparseTensor no_index({4, 4});
  no_index.AddEntry({0, 0}, 1.0);
  HooiOptions options;
  options.core_dims = {2, 2};
  EXPECT_THROW(ShotDecompose(no_index, options), std::invalid_argument);

  Rng rng(1);
  SparseTensor x = UniformSparseTensor({4, 4}, 8, rng);
  options.core_dims = {0, 2};
  EXPECT_THROW(ShotDecompose(x, options), std::invalid_argument);
  options.core_dims = {2};
  EXPECT_THROW(ShotDecompose(x, options), std::invalid_argument);
  options.core_dims = {2, 2};
  options.max_iterations = 0;
  EXPECT_THROW(ShotDecompose(x, options), std::invalid_argument);
}

TEST(ShotTest, FactorsOrthonormal) {
  Rng rng(1);
  SparseTensor x = UniformSparseTensor({10, 9, 8}, 150, rng);
  PTuckerResult result = ShotDecompose(x, SmallOptions());
  for (const auto& factor : result.model.factors) {
    EXPECT_LT(OrthonormalityDefect(factor), 1e-8);
  }
}

TEST(ShotTest, MatchesHooiFixedPointOnFullyObservedData) {
  // S-HOT computes the same decomposition as HOOI (both fit the
  // zero-filled tensor); on a fully observed exact-rank tensor both must
  // reach ~zero error.
  Rng rng(2);
  PlantedTucker model = RandomTuckerModel({6, 6, 5}, {2, 2, 2}, rng);
  DenseTensor dense = ReconstructDense(model.core, model.factors);
  SparseTensor x(dense.dims());
  std::vector<std::int64_t> index(3);
  for (std::int64_t linear = 0; linear < dense.size(); ++linear) {
    dense.IndexOf(linear, index.data());
    x.AddEntry(index, dense[linear]);
  }
  x.BuildModeIndex();
  HooiOptions options;
  options.core_dims = {2, 2, 2};
  options.max_iterations = 20;
  PTuckerResult result = ShotDecompose(x, options);
  EXPECT_LT(result.final_error, 1e-5 * dense.FrobeniusNorm() + 1e-8);
}

TEST(ShotTest, CloseToHooiErrorOnSparseData) {
  Rng rng(3);
  SparseTensor x = UniformSparseTensor({12, 10, 8}, 250, rng);
  HooiOptions hooi_options;
  hooi_options.core_dims = {3, 3, 3};
  hooi_options.max_iterations = 10;
  PTuckerResult hooi = HooiDecompose(x, hooi_options);
  HooiOptions shot_options = SmallOptions();
  shot_options.max_iterations = 10;
  PTuckerResult shot = ShotDecompose(x, shot_options);
  // Same objective, same fixed point family: errors within a few percent.
  EXPECT_NEAR(shot.final_error, hooi.final_error,
              0.05 * hooi.final_error + 1e-9);
}

TEST(ShotTest, AvoidsMaterializingY) {
  // Intermediate memory must stay far below the In x Π Jk matrix HOOI
  // builds — the whole point of S-HOT.
  Rng rng(4);
  SparseTensor x = UniformSparseTensor({4000, 50, 50}, 500, rng);
  MemoryTracker shot_tracker;
  HooiOptions options;
  options.core_dims = {4, 4, 4};
  options.max_iterations = 1;
  options.tracker = &shot_tracker;
  ShotDecompose(x, options);
  const std::int64_t hooi_y_bytes = 4000 * 16 * 8;
  EXPECT_LT(shot_tracker.peak_bytes(), hooi_y_bytes);
}

TEST(ShotTest, HigherOrderTensor) {
  Rng rng(5);
  SparseTensor x = UniformCubicTensor(6, 6, 100, rng);
  HooiOptions options;
  options.core_dims.assign(6, 2);
  options.max_iterations = 3;
  PTuckerResult result = ShotDecompose(x, options);
  EXPECT_TRUE(std::isfinite(result.final_error));
  for (const auto& factor : result.model.factors) {
    EXPECT_LT(OrthonormalityDefect(factor), 1e-8);
  }
}

}  // namespace
}  // namespace ptucker
