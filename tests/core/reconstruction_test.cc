#include "core/reconstruction.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/delta_engine.h"
#include "data/synthetic.h"
#include "tensor/nmode.h"
#include "util/random.h"

namespace ptucker {
namespace {

struct Ctx {
  SparseTensor x;
  DenseTensor core;
  std::vector<Matrix> factors;
};

Ctx MakeCtx(std::uint64_t seed) {
  Rng rng(seed);
  Ctx s;
  s.x = UniformSparseTensor({7, 6, 5}, 60, rng);
  s.core = DenseTensor({2, 2, 3});
  s.core.FillUniform(rng);
  for (std::int64_t k = 0; k < 3; ++k) {
    Matrix factor(s.x.dim(k), s.core.dim(k));
    factor.FillUniform(rng);
    s.factors.push_back(std::move(factor));
  }
  return s;
}

TEST(ReconstructionErrorTest, MatchesManualEq5) {
  Ctx s = MakeCtx(1);
  double expected_sq = 0.0;
  for (std::int64_t e = 0; e < s.x.nnz(); ++e) {
    const double diff =
        s.x.value(e) - ReconstructEntry(s.core, s.factors, s.x.index(e));
    expected_sq += diff * diff;
  }
  EXPECT_NEAR(ReconstructionError(s.x, s.core, s.factors),
              std::sqrt(expected_sq), 1e-10);
}

TEST(ReconstructionErrorTest, PerfectModelGivesZero) {
  // Build x directly from the model's reconstruction.
  Ctx s = MakeCtx(2);
  SparseTensor exact(s.x.dims());
  for (std::int64_t e = 0; e < s.x.nnz(); ++e) {
    exact.AddEntry(s.x.index(e),
                   ReconstructEntry(s.core, s.factors, s.x.index(e)));
  }
  EXPECT_NEAR(ReconstructionError(exact, s.core, s.factors), 0.0, 1e-10);
}

TEST(ReconstructionErrorTest, ZeroModelGivesInputNorm) {
  Ctx s = MakeCtx(3);
  s.core.Fill(0.0);
  EXPECT_NEAR(ReconstructionError(s.x, s.core, s.factors),
              s.x.FrobeniusNorm(), 1e-10);
}

TEST(ReconstructionErrorTest, ListAndDenseOverloadsAgree) {
  Ctx s = MakeCtx(4);
  CoreEntryList list(s.core);
  EXPECT_DOUBLE_EQ(ReconstructionError(s.x, list, s.factors),
                   ReconstructionError(s.x, s.core, s.factors));
}

TEST(TestRmseTest, MatchesManual) {
  Ctx s = MakeCtx(5);
  double sq = 0.0;
  for (std::int64_t e = 0; e < s.x.nnz(); ++e) {
    const double diff =
        s.x.value(e) - ReconstructEntry(s.core, s.factors, s.x.index(e));
    sq += diff * diff;
  }
  EXPECT_NEAR(TestRmse(s.x, s.core, s.factors),
              std::sqrt(sq / static_cast<double>(s.x.nnz())), 1e-10);
}

TEST(TestRmseTest, EmptyTestSetIsZero) {
  Ctx s = MakeCtx(6);
  SparseTensor empty(s.x.dims());
  EXPECT_EQ(TestRmse(empty, s.core, s.factors), 0.0);
}

TEST(PredictEntriesTest, MatchesPerEntryReconstruction) {
  Ctx s = MakeCtx(7);
  const auto predictions = PredictEntries(s.x, s.core, s.factors);
  ASSERT_EQ(predictions.size(), static_cast<std::size_t>(s.x.nnz()));
  for (std::int64_t e = 0; e < s.x.nnz(); ++e) {
    EXPECT_NEAR(predictions[static_cast<std::size_t>(e)],
                ReconstructEntry(s.core, s.factors, s.x.index(e)), 1e-11);
  }
}

TEST(PredictEntriesTest, EngineOverloadMatchesDenseOverload) {
  // The engine overload predicts arbitrary query coordinates; predictions
  // must match the dense-core convenience overload exactly for the naive
  // engine and to rounding for the mode-major engine.
  Ctx s = MakeCtx(9);
  const auto expected = PredictEntries(s.x, s.core, s.factors);
  const CoreEntryList list(s.core);
  const NaiveDeltaEngine naive(list, s.factors);
  const auto via_naive = PredictEntries(s.x, naive);
  ASSERT_EQ(via_naive.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(via_naive[i], expected[i]);
  }
  const ModeMajorDeltaEngine mode_major(list, s.factors, nullptr);
  const auto via_mode_major = PredictEntries(s.x, mode_major);
  ASSERT_EQ(via_mode_major.size(), expected.size());
  for (std::size_t i = 0; i < via_mode_major.size(); ++i) {
    EXPECT_NEAR(via_mode_major[i], expected[i], 1e-11);
  }
}

TEST(ReconstructionErrorTest, ScalingLinearity) {
  // Scaling the core by t scales every prediction by t; with x = 0 the
  // error is t · ‖x̂‖.
  Ctx s = MakeCtx(8);
  SparseTensor zeros(s.x.dims());
  for (std::int64_t e = 0; e < s.x.nnz(); ++e) {
    zeros.AddEntry(s.x.index(e), 0.0);
  }
  const double base = ReconstructionError(zeros, s.core, s.factors);
  s.core.Scale(3.0);
  EXPECT_NEAR(ReconstructionError(zeros, s.core, s.factors), 3.0 * base,
              1e-8);
}

}  // namespace
}  // namespace ptucker
