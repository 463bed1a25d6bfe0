#include "baselines/tucker_wopt.h"

#include <cmath>
#include <gtest/gtest.h>

#include "core/reconstruction.h"
#include "data/lowrank.h"
#include "data/synthetic.h"
#include "util/random.h"

namespace ptucker {
namespace {

HooiOptions SmallOptions() {
  HooiOptions options;
  options.core_dims = {2, 2, 2};
  options.max_iterations = 15;
  return options;
}

TEST(WoptValidationTest, RejectsBadInputs) {
  SparseTensor empty({4, 4});
  HooiOptions options;
  options.core_dims = {2, 2};
  EXPECT_THROW(TuckerWoptDecompose(empty, options), std::invalid_argument);

  Rng rng(1);
  SparseTensor x = UniformSparseTensor({4, 4}, 8, rng);
  options.core_dims = {5, 2};
  EXPECT_THROW(TuckerWoptDecompose(x, options), std::invalid_argument);
  options.core_dims = {0, 2};
  EXPECT_THROW(TuckerWoptDecompose(x, options), std::invalid_argument);
  options.core_dims = {2};
  EXPECT_THROW(TuckerWoptDecompose(x, options), std::invalid_argument);
  options.core_dims = {2, 2};
  options.max_iterations = 0;
  EXPECT_THROW(TuckerWoptDecompose(x, options), std::invalid_argument);
}

TEST(WoptTest, ErrorDecreasesMonotonically) {
  Rng rng(2);
  SparseTensor x = UniformSparseTensor({8, 7, 6}, 100, rng);
  PTuckerResult result = TuckerWoptDecompose(x, SmallOptions());
  ASSERT_GE(result.iterations.size(), 2u);
  for (std::size_t i = 1; i < result.iterations.size(); ++i) {
    EXPECT_LE(result.iterations[i].error,
              result.iterations[i - 1].error + 1e-9);
  }
}

TEST(WoptTest, FitsObservedEntriesOfLowRankData) {
  // wOpt optimizes over observed entries only, so — unlike HOOI — it must
  // reach a small observed-entry error on sparse low-rank data.
  Rng rng(3);
  PlantedTucker model = RandomTuckerModel({10, 10, 10}, {2, 2, 2}, rng);
  SparseTensor x = SampleFromModel(model, 400, 0.01, rng);
  HooiOptions options = SmallOptions();
  options.max_iterations = 40;
  PTuckerResult result = TuckerWoptDecompose(x, options);
  EXPECT_LT(result.final_error, 0.25 * x.FrobeniusNorm());
}

TEST(WoptTest, PredictsMissingEntriesBetterThanZero) {
  Rng rng(4);
  PlantedTucker model = RandomTuckerModel({10, 10, 10}, {2, 2, 2}, rng);
  SparseTensor all = SampleFromModel(model, 600, 0.01, rng);
  // Hold out 100 entries.
  SparseTensor train(all.dims()), test(all.dims());
  for (std::int64_t e = 0; e < all.nnz(); ++e) {
    (e < 500 ? train : test).AddEntry(all.index(e), all.value(e));
  }
  train.BuildModeIndex();
  HooiOptions options = SmallOptions();
  options.max_iterations = 40;
  PTuckerResult result = TuckerWoptDecompose(train, options);
  const double rmse = TestRmse(test, result.model.core, result.model.factors);
  // Zero prediction RMSE = sqrt(mean(x²)).
  double zero_sq = 0.0;
  for (std::int64_t e = 0; e < test.nnz(); ++e) {
    zero_sq += test.value(e) * test.value(e);
  }
  const double zero_rmse =
      std::sqrt(zero_sq / static_cast<double>(test.nnz()));
  EXPECT_LT(rmse, zero_rmse);
}

TEST(WoptTest, DenseAllocationHitsOomBudget) {
  // The defining failure mode: dense I^N working set (Table III).
  Rng rng(5);
  SparseTensor x = UniformSparseTensor({300, 300, 300}, 200, rng);
  MemoryTracker tracker(1024 * 1024);  // 1 MB << 300³ doubles
  HooiOptions options = SmallOptions();
  options.tracker = &tracker;
  EXPECT_THROW(TuckerWoptDecompose(x, options), OutOfMemoryBudget);
}

TEST(WoptTest, SmallTensorFitsInBudget) {
  Rng rng(6);
  SparseTensor x = UniformSparseTensor({10, 10, 10}, 100, rng);
  MemoryTracker tracker(64 * 1024 * 1024);
  HooiOptions options = SmallOptions();
  options.max_iterations = 3;
  options.tracker = &tracker;
  EXPECT_NO_THROW(TuckerWoptDecompose(x, options));
  EXPECT_EQ(tracker.current_bytes(), 0);
}

}  // namespace
}  // namespace ptucker
