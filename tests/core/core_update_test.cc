#include "core/core_update.h"

#include <gtest/gtest.h>

#include "core/reconstruction.h"
#include "tensor/nmode.h"
#include "data/lowrank.h"
#include "data/synthetic.h"
#include "util/parallel.h"
#include "util/random.h"

namespace ptucker {
namespace {

struct Ctx {
  SparseTensor x;
  DenseTensor core;
  CoreEntryList list;
  std::vector<Matrix> factors;
};

Ctx MakeCtx(std::uint64_t seed, std::int64_t nnz = 80) {
  Rng rng(seed);
  Ctx s;
  s.x = UniformSparseTensor({8, 7, 6}, nnz, rng);
  s.core = DenseTensor({2, 2, 2});
  s.core.FillUniform(rng);
  s.list = CoreEntryList(s.core);
  for (std::int64_t k = 0; k < 3; ++k) {
    Matrix factor(s.x.dim(k), s.core.dim(k));
    factor.FillUniform(rng);
    s.factors.push_back(std::move(factor));
  }
  return s;
}

double Objective(const Ctx& s, double lambda) {
  const double err = ReconstructionError(s.x, s.core, s.factors);
  return err * err + lambda * s.core.FrobeniusNorm() *
                         s.core.FrobeniusNorm();
}

TEST(CoreUpdateTest, ObjectiveNeverIncreases) {
  Ctx s = MakeCtx(1);
  const double lambda = 0.01;
  const double before = Objective(s, lambda);
  UpdateCoreTensor(s.x, &s.core, &s.list, s.factors, lambda, 10);
  EXPECT_LE(Objective(s, lambda), before + 1e-9);
}

TEST(CoreUpdateTest, ErrorStrictlyImprovesFromRandomCore) {
  Ctx s = MakeCtx(2);
  const double before = ReconstructionError(s.x, s.core, s.factors);
  UpdateCoreTensor(s.x, &s.core, &s.list, s.factors, 1e-6, 20);
  const double after = ReconstructionError(s.x, s.core, s.factors);
  EXPECT_LT(after, before * 0.9);
}

TEST(CoreUpdateTest, RecoversPlantedCoreOnNoiselessData) {
  // Data sampled exactly from a model; fitting the core with the true
  // factors should drive the error near zero (|Ω| >> |G| so the system is
  // overdetermined and consistent).
  Rng rng(3);
  PlantedTucker model = RandomTuckerModel({8, 8, 8}, {2, 2, 2}, rng);
  // Keep values unclamped: sample from the model's raw reconstruction.
  SparseTensor x(std::vector<std::int64_t>{8, 8, 8});
  for (int e = 0; e < 200; ++e) {
    std::int64_t index[3] = {
        static_cast<std::int64_t>(rng.UniformInt(8)),
        static_cast<std::int64_t>(rng.UniformInt(8)),
        static_cast<std::int64_t>(rng.UniformInt(8))};
    x.AddEntry(index, ReconstructEntry(model.core, model.factors, index));
  }
  x.BuildModeIndex();

  DenseTensor core({2, 2, 2});
  core.Fill(0.5);  // wrong start
  CoreEntryList list(core);
  UpdateCoreTensor(x, &core, &list, model.factors, 0.0, 40);
  EXPECT_LT(ReconstructionError(x, core, model.factors), 1e-6);
}

TEST(CoreUpdateTest, ListValuesStayInSyncWithCore) {
  Ctx s = MakeCtx(4);
  UpdateCoreTensor(s.x, &s.core, &s.list, s.factors, 0.01, 5);
  std::vector<std::int64_t> beta(3);
  for (std::int64_t b = 0; b < s.list.size(); ++b) {
    for (int k = 0; k < 3; ++k) {
      beta[static_cast<std::size_t>(k)] = s.list.index(b)[k];
    }
    EXPECT_EQ(s.list.value(b), s.core.at(beta.data()));
  }
}

TEST(CoreUpdateTest, PreservesSparsityPattern) {
  Ctx s = MakeCtx(5);
  // Truncate half the core first.
  std::vector<char> remove(8, 0);
  remove[0] = remove[2] = remove[5] = remove[7] = 1;
  s.list.Remove(remove, &s.core);
  ASSERT_EQ(s.core.CountNonZeros(), 4);
  UpdateCoreTensor(s.x, &s.core, &s.list, s.factors, 0.01, 10);
  // Removed positions stay zero (the update only refits live entries).
  EXPECT_LE(s.core.CountNonZeros(), 4);
  EXPECT_EQ(s.list.size(), 4);
}

TEST(CoreUpdateTest, ZeroIterationsIsNoop) {
  Ctx s = MakeCtx(6);
  DenseTensor before = s.core;
  UpdateCoreTensor(s.x, &s.core, &s.list, s.factors, 0.01, 0);
  EXPECT_LT(MaxAbsDiff(before, s.core), 1e-15);
}

// The design products' reference: per entry, y = Σ_b input[b]·P(α, β)
// with P the running product from 1.0 in ascending mode order, then
// local[b] += y·P(α, β) unless y is zero, entries in lane order.
std::vector<double> ReferenceLanePartials(const Ctx& s, bool residual_from_x,
                                          const std::vector<double>& input,
                                          std::int64_t lane_begin,
                                          std::int64_t lane_end) {
  const std::int64_t n_core = s.list.size();
  std::vector<double> lanes(
      static_cast<std::size_t>((lane_end - lane_begin) * n_core), 0.0);
  auto design = [&](const std::int64_t* index, std::int64_t b) {
    double product = 1.0;
    for (std::int64_t k = 0; k < 3; ++k) {
      product *= s.factors[static_cast<std::size_t>(k)](index[k],
                                                        s.list.index(b)[k]);
    }
    return product;
  };
  for (std::int64_t l = lane_begin; l < lane_end; ++l) {
    double* local = lanes.data() + (l - lane_begin) * n_core;
    for (std::int64_t e = ReductionLaneBegin(s.x.nnz(), l);
         e < ReductionLaneBegin(s.x.nnz(), l + 1); ++e) {
      double y = 0.0;
      for (std::int64_t b = 0; b < n_core; ++b) {
        y += input[static_cast<std::size_t>(b)] * design(s.x.index(e), b);
      }
      if (residual_from_x) y = s.x.value(e) - y;
      if (y == 0.0) continue;
      for (std::int64_t b = 0; b < n_core; ++b) {
        local[b] += y * design(s.x.index(e), b);
      }
    }
  }
  return lanes;
}

TEST(CoreUpdateTest, DesignLanePartialsAreTheEntryMajorScanBitwise) {
  Ctx s = MakeCtx(8, 300);
  std::vector<char> remove(8, 0);
  remove[1] = remove[6] = 1;
  s.list.Remove(remove, &s.core);
  // A zero factor row makes some entries' y exactly zero.
  for (std::int64_t j = 0; j < s.factors[1].cols(); ++j) {
    s.factors[1](3, j) = 0.0;
  }
  const std::vector<double> input = {0.5, -1.25, 0.0, 2.0, 0.75, -0.125};
  ASSERT_EQ(static_cast<std::int64_t>(input.size()), s.list.size());
  for (const bool residual_from_x : {true, false}) {
    for (const auto& [begin, end] :
         {std::pair<std::int64_t, std::int64_t>{0, kReductionLanes},
          std::pair<std::int64_t, std::int64_t>{5, 17}}) {
      const std::vector<double> expected =
          ReferenceLanePartials(s, residual_from_x, input, begin, end);
      std::vector<double> actual(expected.size(), -1.0);
      DesignLanePartials(s.x, s.list, s.factors, residual_from_x, input,
                         begin, end, actual.data());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i])
            << "residual " << residual_from_x << " lanes [" << begin << ", "
            << end << ") slot " << i;
      }
    }
  }
}

TEST(CoreUpdateTest, StrongRegularizationShrinksCore) {
  Ctx s = MakeCtx(7);
  const double norm_before = s.core.FrobeniusNorm();
  UpdateCoreTensor(s.x, &s.core, &s.list, s.factors, 1e6, 20);
  EXPECT_LT(s.core.FrobeniusNorm(), norm_before * 0.1);
}

}  // namespace
}  // namespace ptucker
