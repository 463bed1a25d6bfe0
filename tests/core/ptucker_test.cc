#include "core/ptucker.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/delta_engine.h"
#include "core/reconstruction.h"
#include "core/row_update.h"
#include "data/lowrank.h"
#include "data/synthetic.h"
#include "linalg/qr.h"
#include "util/random.h"

namespace ptucker {
namespace {

SparseTensor SmallTensor(std::uint64_t seed, std::int64_t nnz = 300) {
  Rng rng(seed);
  return UniformSparseTensor({12, 10, 8}, nnz, rng);
}

PTuckerOptions SmallOptions() {
  PTuckerOptions options;
  options.core_dims = {3, 3, 3};
  options.max_iterations = 6;
  return options;
}

TEST(PTuckerValidationTest, RejectsEmptyTensor) {
  SparseTensor empty({4, 4});
  empty.BuildModeIndex();
  PTuckerOptions options;
  options.core_dims = {2, 2};
  EXPECT_THROW(PTuckerDecompose(empty, options), std::invalid_argument);
}

TEST(PTuckerValidationTest, RejectsMissingModeIndex) {
  SparseTensor x({4, 4});
  x.AddEntry({0, 0}, 1.0);
  PTuckerOptions options;
  options.core_dims = {2, 2};
  EXPECT_THROW(PTuckerDecompose(x, options), std::invalid_argument);
}

TEST(PTuckerValidationTest, RejectsWrongOrderCoreDims) {
  SparseTensor x = SmallTensor(1);
  PTuckerOptions options;
  options.core_dims = {2, 2};  // tensor is 3-order
  EXPECT_THROW(PTuckerDecompose(x, options), std::invalid_argument);
}

TEST(PTuckerValidationTest, RejectsRankAboveDimWithQr) {
  SparseTensor x = SmallTensor(2);
  PTuckerOptions options;
  options.core_dims = {3, 3, 20};  // 20 > dim 8
  EXPECT_THROW(PTuckerDecompose(x, options), std::invalid_argument);
  // Without orthogonalization the same config must be accepted.
  options.orthogonalize_output = false;
  options.max_iterations = 1;
  EXPECT_NO_THROW(PTuckerDecompose(x, options));
}

TEST(PTuckerValidationTest, RejectsBadScalarOptions) {
  SparseTensor x = SmallTensor(3);
  PTuckerOptions options = SmallOptions();
  for (const double lambda : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    options.lambda = lambda;
    try {
      PTuckerDecompose(x, options);
      ADD_FAILURE() << "accepted lambda " << lambda;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("lambda"), std::string::npos)
          << error.what();
    }
  }
  options = SmallOptions();
  options.max_iterations = 0;
  EXPECT_THROW(PTuckerDecompose(x, options), std::invalid_argument);
  options = SmallOptions();
  options.truncation_rate = 1.0;
  EXPECT_THROW(PTuckerDecompose(x, options), std::invalid_argument);
  // A NaN rate must be rejected up front, not abort the process inside
  // the truncation step.
  options = SmallOptions();
  options.variant = PTuckerVariant::kApprox;
  options.truncation_rate = std::numeric_limits<double>::quiet_NaN();
  try {
    PTuckerDecompose(x, options);
    ADD_FAILURE() << "accepted a NaN truncation_rate";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("truncation_rate"),
              std::string::npos)
        << error.what();
  }
  options = SmallOptions();
  options.num_threads = -2;
  EXPECT_THROW(PTuckerDecompose(x, options), std::invalid_argument);
}

TEST(PTuckerValidationTest, RejectsOrderAboveTheEngineLimit) {
  // One order past DeltaEngine::kMaxOrder throws instead of aborting.
  const std::int64_t order = DeltaEngine::kMaxOrder + 1;
  SparseTensor x(std::vector<std::int64_t>(static_cast<std::size_t>(order), 2));
  x.AddEntry(std::vector<std::int64_t>(static_cast<std::size_t>(order), 0),
             1.0);
  x.AddEntry(std::vector<std::int64_t>(static_cast<std::size_t>(order), 1),
             2.0);
  x.BuildModeIndex();
  PTuckerOptions options;
  options.core_dims.assign(static_cast<std::size_t>(order), 1);
  options.max_iterations = 1;
  EXPECT_THROW(PTuckerDecompose(x, options), std::invalid_argument);
}

TEST(PTuckerTest, ErrorMonotoneNonIncreasing) {
  // Theorem 2: the loss decreases monotonically, so the recorded
  // reconstruction errors must never increase.
  SparseTensor x = SmallTensor(4);
  PTuckerOptions options = SmallOptions();
  options.max_iterations = 8;
  PTuckerResult result = PTuckerDecompose(x, options);
  ASSERT_GE(result.iterations.size(), 2u);
  for (std::size_t i = 1; i < result.iterations.size(); ++i) {
    EXPECT_LE(result.iterations[i].error,
              result.iterations[i - 1].error + 1e-9);
  }
}

TEST(PTuckerTest, OutputShapes) {
  SparseTensor x = SmallTensor(5);
  PTuckerResult result = PTuckerDecompose(x, SmallOptions());
  ASSERT_EQ(result.model.factors.size(), 3u);
  EXPECT_EQ(result.model.factors[0].rows(), 12);
  EXPECT_EQ(result.model.factors[0].cols(), 3);
  EXPECT_EQ(result.model.factors[2].rows(), 8);
  EXPECT_EQ(result.model.core.dims(), (std::vector<std::int64_t>{3, 3, 3}));
}

TEST(PTuckerTest, OutputFactorsOrthonormal) {
  SparseTensor x = SmallTensor(6);
  PTuckerResult result = PTuckerDecompose(x, SmallOptions());
  for (const auto& factor : result.model.factors) {
    EXPECT_LT(OrthonormalityDefect(factor), 1e-9);
  }
}

// The engine and variant grid the wrap-up (orthogonalize, final error) is
// checked over, each at 1 and 2 threads.
struct WrapUpConfig {
  const char* name;
  DeltaEngineChoice engine;
  PTuckerVariant variant;
  bool update_core;
  bool orthogonalize;
};

constexpr WrapUpConfig kWrapUpConfigs[] = {
    {"auto", DeltaEngineChoice::kAuto, PTuckerVariant::kMemory, false, true},
    {"naive", DeltaEngineChoice::kNaive, PTuckerVariant::kMemory, false, true},
    {"modemajor", DeltaEngineChoice::kModeMajor, PTuckerVariant::kMemory,
     false, true},
    {"cache", DeltaEngineChoice::kCached, PTuckerVariant::kMemory, false,
     true},
    {"approx", DeltaEngineChoice::kAuto, PTuckerVariant::kApprox, false, true},
    {"approx+naive", DeltaEngineChoice::kNaive, PTuckerVariant::kApprox, false,
     true},
    {"update_core", DeltaEngineChoice::kAuto, PTuckerVariant::kMemory, true,
     true},
    {"no orthogonalize", DeltaEngineChoice::kAuto, PTuckerVariant::kMemory,
     false, false},
};

PTuckerOptions WrapUpOptions(const WrapUpConfig& config, int threads) {
  PTuckerOptions options = SmallOptions();
  options.delta_engine = config.engine;
  options.variant = config.variant;
  options.update_core = config.update_core;
  options.orthogonalize_output = config.orthogonalize;
  options.num_threads = threads;
  return options;
}

TEST(PTuckerTest, FinalErrorMatchesModel) {
  // Bit for bit the naive oracle's error of the returned model, whichever
  // engine ran the loop.
  SparseTensor x = SmallTensor(7);
  for (const WrapUpConfig& config : kWrapUpConfigs) {
    for (int threads : {1, 2}) {
      SCOPED_TRACE(std::string(config.name) + ", " +
                   std::to_string(threads) + " threads");
      const PTuckerResult result =
          PTuckerDecompose(x, WrapUpOptions(config, threads));
      EXPECT_EQ(result.final_error,
                ReconstructionError(x, result.model.core,
                                    result.model.factors));
    }
  }
}

TEST(PTuckerTest, WrapUpChargesNothingAboveTheLoop) {
  // The wrap-up scores the output model through the naive oracle, which
  // charges nothing, so the solve's tracked peak is the loop's, and
  // nothing stays charged.
  SparseTensor x = SmallTensor(23);
  for (const WrapUpConfig& config : kWrapUpConfigs) {
    for (int threads : {1, 2}) {
      SCOPED_TRACE(std::string(config.name) + ", " +
                   std::to_string(threads) + " threads");
      MemoryTracker tracker;
      PTuckerOptions options = WrapUpOptions(config, threads);
      options.tracker = &tracker;
      const PTuckerResult result = PTuckerDecompose(x, options);
      ASSERT_FALSE(result.iterations.empty());
      EXPECT_GT(tracker.peak_bytes(), 0);
      EXPECT_EQ(tracker.peak_bytes(),
                result.iterations.back().peak_intermediate_bytes);
      EXPECT_EQ(tracker.current_bytes(), 0);
    }
  }
}

TEST(PTuckerTest, RecoversPlantedLowRankStructure) {
  Rng rng(8);
  PlantedTucker model = RandomTuckerModel({20, 18, 16}, {3, 3, 3}, rng);
  SparseTensor x = SampleFromModel(model, 3000, 0.01, rng);
  PTuckerOptions options;
  options.core_dims = {3, 3, 3};
  options.max_iterations = 15;
  PTuckerResult result = PTuckerDecompose(x, options);
  // RMSE on the training entries ~ noise level.
  EXPECT_LT(TestRmse(x, result.model.core, result.model.factors), 0.05);
}

TEST(PTuckerTest, DeterministicAcrossThreadCounts) {
  // Rows are independent (the §III-B property), so results must be
  // identical regardless of the parallel schedule.
  SparseTensor x = SmallTensor(9);
  PTuckerOptions options = SmallOptions();
  options.num_threads = 1;
  PTuckerResult serial = PTuckerDecompose(x, options);
  options.num_threads = 2;
  options.scheduling = Scheduling::kStatic;
  PTuckerResult parallel = PTuckerDecompose(x, options);
  EXPECT_NEAR(serial.final_error, parallel.final_error, 1e-9);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_TRUE(AllClose(serial.model.factors[k],
                         parallel.model.factors[k], 1e-9));
  }
}

TEST(PTuckerTest, ConvergenceFlagOnTightTolerance) {
  SparseTensor x = SmallTensor(10);
  PTuckerOptions options = SmallOptions();
  options.max_iterations = 50;
  options.tolerance = 1e-3;
  PTuckerResult result = PTuckerDecompose(x, options);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations.size(), 50u);
}

TEST(PTuckerTest, RowsWithoutObservationsAreZero) {
  // Leave slice 0 of mode 0 empty; its factor row must be exactly zero
  // (the regularized minimizer) before orthogonalization.
  SparseTensor x({5, 4, 4});
  Rng rng(11);
  for (int e = 0; e < 30; ++e) {
    std::int64_t index[3] = {
        1 + static_cast<std::int64_t>(rng.UniformInt(4)),  // never 0
        static_cast<std::int64_t>(rng.UniformInt(4)),
        static_cast<std::int64_t>(rng.UniformInt(4))};
    x.AddEntry(index, rng.Uniform());
  }
  x.BuildModeIndex();
  PTuckerOptions options;
  options.core_dims = {2, 2, 2};
  options.max_iterations = 3;
  options.orthogonalize_output = false;
  PTuckerResult result = PTuckerDecompose(x, options);
  for (std::int64_t j = 0; j < 2; ++j) {
    EXPECT_EQ(result.model.factors[0](0, j), 0.0);
  }
}

TEST(PTuckerTest, PredictMatchesReconstruction) {
  SparseTensor x = SmallTensor(12);
  PTuckerResult result = PTuckerDecompose(x, SmallOptions());
  const std::vector<std::int64_t> index = {3, 5, 2};
  const double via_struct = result.model.Predict(index);
  CoreEntryList list(result.model.core);
  EXPECT_NEAR(via_struct,
              ReconstructFromList(list, MakeFactorViews(result.model.factors),
                                  index.data()),
              1e-10);
}

TEST(PTuckerTest, MemoryScratchTrackedAsTJ2) {
  SparseTensor x = SmallTensor(13);
  MemoryTracker tracker;
  PTuckerOptions options = SmallOptions();
  options.tracker = &tracker;
  options.num_threads = 2;
  PTuckerDecompose(x, options);
  // Theorem 4: intermediate data O(T J²) — tiny, and definitely far below
  // |Ω|·|G| (the cache table size).
  EXPECT_GT(tracker.peak_bytes(), 0);
  EXPECT_LT(tracker.peak_bytes(),
            x.nnz() * 27 * static_cast<std::int64_t>(sizeof(double)));
  EXPECT_EQ(tracker.current_bytes(), 0);
}

TEST(PTuckerTest, NaiveEngineChargesTheRowUpdateScratch) {
  // The naive engine keeps no derived state, so the tracked peak is the
  // row kernel's per-thread scratch alone.
  SparseTensor x = SmallTensor(24);
  for (const int threads : {1, 2}) {
    SCOPED_TRACE(threads);
    MemoryTracker tracker;
    PTuckerOptions options = SmallOptions();
    options.core_dims = {3, 5, 2};
    options.delta_engine = DeltaEngineChoice::kNaive;
    options.num_threads = threads;
    options.tracker = &tracker;
    PTuckerDecompose(x, options);
    EXPECT_EQ(tracker.peak_bytes(),
              RowUpdateScratchBytes(threads, x.order(), 5));
    EXPECT_EQ(tracker.current_bytes(), 0);
  }
}

TEST(PTuckerTest, SliceLayoutStaysOutOfTheIntermediateBudget) {
  // The row sweeps' slice-ordered Ω is a re-layout of the input, not
  // intermediate data: the result reports its bytes, and a budget that
  // fits Theorem 4's scratch but not the layout still runs, bit for bit.
  SparseTensor x = SmallTensor(17, 900);
  PTuckerOptions options = SmallOptions();
  options.num_threads = 2;
  MemoryTracker unlimited;
  options.tracker = &unlimited;
  const PTuckerResult free_run = PTuckerDecompose(x, options);
  EXPECT_EQ(free_run.slice_layout_bytes,
            SliceOrderedOmega::Bytes(x.dims(), x.nnz(), false));
  ASSERT_GT(free_run.slice_layout_bytes, unlimited.peak_bytes());
  MemoryTracker tight(unlimited.peak_bytes());
  options.tracker = &tight;
  const PTuckerResult budgeted = PTuckerDecompose(x, options);
  EXPECT_EQ(budgeted.final_error, free_run.final_error);
  EXPECT_EQ(tight.peak_bytes(), unlimited.peak_bytes());
}

TEST(PTuckerTest, TraceRecordsCoreNnzAndTimes) {
  SparseTensor x = SmallTensor(14);
  PTuckerResult result = PTuckerDecompose(x, SmallOptions());
  for (const auto& stats : result.iterations) {
    EXPECT_EQ(stats.core_nnz, 27);
    EXPECT_GE(stats.seconds, 0.0);
  }
  EXPECT_GT(result.SecondsPerIteration(), 0.0);
  EXPECT_GT(result.total_seconds, 0.0);
}

TEST(PTuckerTest, LambdaZeroStillRuns) {
  SparseTensor x = SmallTensor(15);
  PTuckerOptions options = SmallOptions();
  options.lambda = 0.0;  // exercises the LU fallback path
  PTuckerResult result = PTuckerDecompose(x, options);
  EXPECT_GT(result.final_error, 0.0);
  EXPECT_TRUE(std::isfinite(result.final_error));
}

TEST(PTuckerCacheTest, CacheVariantMatchesMemoryVariant) {
  // §III-C: the cache changes the cost, not the math. Same seed must give
  // the same factorization.
  SparseTensor x = SmallTensor(16);
  PTuckerOptions options = SmallOptions();
  PTuckerResult memory_result = PTuckerDecompose(x, options);
  options.variant = PTuckerVariant::kCache;
  PTuckerResult cache_result = PTuckerDecompose(x, options);
  EXPECT_NEAR(memory_result.final_error, cache_result.final_error, 1e-8);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_TRUE(AllClose(memory_result.model.factors[k],
                         cache_result.model.factors[k], 1e-7));
  }
}

TEST(PTuckerCacheTest, CacheChargesOmegaCoreMemory) {
  SparseTensor x = SmallTensor(17);
  MemoryTracker tracker;
  PTuckerOptions options = SmallOptions();
  options.variant = PTuckerVariant::kCache;
  options.tracker = &tracker;
  PTuckerDecompose(x, options);
  // Theorem 6: O(|Ω|·|G|) intermediate data.
  EXPECT_GE(tracker.peak_bytes(),
            x.nnz() * 27 * static_cast<std::int64_t>(sizeof(double)));
  EXPECT_EQ(tracker.current_bytes(), 0);
}

TEST(PTuckerCacheTest, CacheOverBudgetThrowsOom) {
  SparseTensor x = SmallTensor(18);
  MemoryTracker tracker(1024);
  PTuckerOptions options = SmallOptions();
  options.variant = PTuckerVariant::kCache;
  options.tracker = &tracker;
  EXPECT_THROW(PTuckerDecompose(x, options), OutOfMemoryBudget);
}

TEST(PTuckerApproxTest, CoreShrinksEachIteration) {
  SparseTensor x = SmallTensor(19);
  PTuckerOptions options = SmallOptions();
  options.variant = PTuckerVariant::kApprox;
  options.truncation_rate = 0.2;
  options.max_iterations = 5;
  options.tolerance = 0.0;  // force all iterations
  PTuckerResult result = PTuckerDecompose(x, options);
  ASSERT_GE(result.iterations.size(), 3u);
  for (std::size_t i = 1; i < result.iterations.size(); ++i) {
    EXPECT_LE(result.iterations[i].core_nnz,
              result.iterations[i - 1].core_nnz);
  }
  EXPECT_LT(result.iterations.back().core_nnz, 27);
}

TEST(PTuckerApproxTest, ZeroTruncationRateMatchesDefaultVariant) {
  SparseTensor x = SmallTensor(20);
  PTuckerOptions options = SmallOptions();
  PTuckerResult plain = PTuckerDecompose(x, options);
  options.variant = PTuckerVariant::kApprox;
  options.truncation_rate = 0.0;
  PTuckerResult approx = PTuckerDecompose(x, options);
  EXPECT_NEAR(plain.final_error, approx.final_error, 1e-9);
}

TEST(PTuckerCoreUpdateTest, ExtensionImprovesFit) {
  SparseTensor x = SmallTensor(21);
  PTuckerOptions options = SmallOptions();
  PTuckerResult fixed_core = PTuckerDecompose(x, options);
  options.update_core = true;
  PTuckerResult updated_core = PTuckerDecompose(x, options);
  EXPECT_LE(updated_core.final_error, fixed_core.final_error + 1e-9);
}

TEST(PTuckerCoreUpdateTest, WorksCombinedWithCacheVariant) {
  SparseTensor x = SmallTensor(22);
  PTuckerOptions options = SmallOptions();
  options.max_iterations = 3;
  options.update_core = true;
  PTuckerResult plain = PTuckerDecompose(x, options);
  options.variant = PTuckerVariant::kCache;
  PTuckerResult cached = PTuckerDecompose(x, options);
  EXPECT_NEAR(plain.final_error, cached.final_error, 1e-7);
}

// Property sweep: all variants on tensors of different orders stay finite
// and monotone.
class PTuckerVariantSweep
    : public ::testing::TestWithParam<std::tuple<int, PTuckerVariant>> {};

TEST_P(PTuckerVariantSweep, MonotoneAndFinite) {
  const auto [order, variant] = GetParam();
  Rng rng(100 + order);
  std::int64_t total = 1;
  for (int k = 0; k < order; ++k) total *= 8;
  SparseTensor x = UniformCubicTensor(
      order, 8, std::min<std::int64_t>(150, total), rng);
  PTuckerOptions options;
  options.core_dims.assign(static_cast<std::size_t>(order), 2);
  options.max_iterations = 4;
  options.variant = variant;
  PTuckerResult result = PTuckerDecompose(x, options);
  EXPECT_TRUE(std::isfinite(result.final_error));
  for (std::size_t i = 1; i < result.iterations.size(); ++i) {
    if (variant == PTuckerVariant::kApprox) continue;  // truncation may bump
    EXPECT_LE(result.iterations[i].error,
              result.iterations[i - 1].error + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndVariants, PTuckerVariantSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 5),
                       ::testing::Values(PTuckerVariant::kMemory,
                                         PTuckerVariant::kCache,
                                         PTuckerVariant::kApprox)));

}  // namespace
}  // namespace ptucker
