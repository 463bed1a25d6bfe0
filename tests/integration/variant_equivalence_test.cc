// Cross-variant and cross-solver equivalences the paper's design rests
// on: the cache variant is an exact optimization, approx degrades
// gracefully, and the observed-entry methods beat zero-imputing methods.
#include <gtest/gtest.h>

#include "baselines/hooi.h"
#include "baselines/shot.h"
#include "baselines/tucker_csf.h"
#include "baselines/tucker_wopt.h"
#include "core/ptucker.h"
#include "core/reconstruction.h"
#include "data/lowrank.h"
#include "data/split.h"
#include "util/random.h"

namespace ptucker {
namespace {

struct Workload {
  SparseTensor train;
  SparseTensor test;
};

Workload MakeWorkload(std::uint64_t seed) {
  Rng rng(seed);
  PlantedTucker model = RandomTuckerModel({25, 20, 15}, {3, 3, 3}, rng);
  SparseTensor x = SampleFromModel(model, 2500, 0.02, rng);
  auto split = SplitObservedEntries(x, 0.1, rng);
  return {std::move(split.train), std::move(split.test)};
}

class VariantEquivalence : public ::testing::Test {
 protected:
  void SetUp() override { workload_ = MakeWorkload(1); }
  Workload workload_;
};

TEST_F(VariantEquivalence, CacheIsExactlyEquivalent) {
  PTuckerOptions options;
  options.core_dims = {3, 3, 3};
  options.max_iterations = 6;
  PTuckerResult memory_run = PTuckerDecompose(workload_.train, options);
  options.variant = PTuckerVariant::kCache;
  PTuckerResult cache_run = PTuckerDecompose(workload_.train, options);
  // Same iterates to fp tolerance across the whole trajectory.
  ASSERT_EQ(memory_run.iterations.size(), cache_run.iterations.size());
  for (std::size_t i = 0; i < memory_run.iterations.size(); ++i) {
    EXPECT_NEAR(memory_run.iterations[i].error,
                cache_run.iterations[i].error, 1e-7);
  }
}

TEST_F(VariantEquivalence, ApproxTradesAccuracyGracefully) {
  PTuckerOptions options;
  options.core_dims = {3, 3, 3};
  options.max_iterations = 8;
  PTuckerResult exact = PTuckerDecompose(workload_.train, options);
  options.variant = PTuckerVariant::kApprox;
  options.truncation_rate = 0.2;
  PTuckerResult approx = PTuckerDecompose(workload_.train, options);
  // Fig. 9: "almost the same accuracy" — allow a generous factor but
  // require the same order of magnitude.
  EXPECT_LT(approx.final_error, 3.0 * exact.final_error + 1e-9);
  // And it must actually have truncated.
  EXPECT_LT(approx.iterations.back().core_nnz, 27);
}

TEST_F(VariantEquivalence, ObservedEntryMethodsBeatZeroImputingOnTestRmse) {
  // The Fig. 11 ordering: P-Tucker and wOpt (observed-entry) must beat
  // HOOI/S-HOT/CSF (zero-imputing) on missing-entry prediction.
  PTuckerOptions popt;
  popt.core_dims = {3, 3, 3};
  popt.max_iterations = 10;
  PTuckerResult ptucker = PTuckerDecompose(workload_.train, popt);
  const double ptucker_rmse =
      TestRmse(workload_.test, ptucker.model.core, ptucker.model.factors);

  HooiOptions hopt;
  hopt.core_dims = {3, 3, 3};
  hopt.max_iterations = 10;
  PTuckerResult hooi = HooiDecompose(workload_.train, hopt);
  const double hooi_rmse =
      TestRmse(workload_.test, hooi.model.core, hooi.model.factors);

  PTuckerResult csf = TuckerCsfDecompose(workload_.train, hopt);
  const double csf_rmse =
      TestRmse(workload_.test, csf.model.core, csf.model.factors);

  EXPECT_LT(ptucker_rmse, hooi_rmse);
  EXPECT_LT(ptucker_rmse, csf_rmse);
}

TEST_F(VariantEquivalence, ZeroImputingBaselinesAgreeWithEachOther) {
  HooiOptions hopt;
  hopt.core_dims = {3, 3, 3};
  hopt.max_iterations = 8;
  PTuckerResult hooi = HooiDecompose(workload_.train, hopt);
  PTuckerResult csf = TuckerCsfDecompose(workload_.train, hopt);
  HooiOptions sopt;
  sopt.core_dims = {3, 3, 3};
  sopt.max_iterations = 8;
  PTuckerResult shot = ShotDecompose(workload_.train, sopt);
  EXPECT_NEAR(hooi.final_error, csf.final_error,
              0.01 * hooi.final_error + 1e-9);
  EXPECT_NEAR(hooi.final_error, shot.final_error,
              0.05 * hooi.final_error + 1e-9);
}

TEST_F(VariantEquivalence, SchedulingDoesNotChangeResults) {
  PTuckerOptions options;
  options.core_dims = {3, 3, 3};
  options.max_iterations = 5;
  options.scheduling = Scheduling::kDynamic;
  PTuckerResult dynamic_run = PTuckerDecompose(workload_.train, options);
  options.scheduling = Scheduling::kStatic;
  PTuckerResult static_run = PTuckerDecompose(workload_.train, options);
  EXPECT_NEAR(dynamic_run.final_error, static_run.final_error, 1e-8);
}

}  // namespace
}  // namespace ptucker
