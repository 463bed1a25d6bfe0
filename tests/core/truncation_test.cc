#include "core/truncation.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>
#include <omp.h>

#include "core/als_driver.h"
#include "core/delta_engine.h"
#include "core/reconstruction.h"
#include "core/row_update.h"
#include "data/lowrank.h"
#include "data/movielens_sim.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "util/memory_tracker.h"
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

Ctx MakeCtx(std::uint64_t seed) {
  Rng rng(seed);
  Ctx s;
  s.x = UniformSparseTensor({6, 5, 4}, 50, rng);
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

double SquaredError(const SparseTensor& x, const DenseTensor& core,
                    const std::vector<Matrix>& factors) {
  const double err = ReconstructionError(x, core, factors);
  return err * err;
}

TEST(PartialErrorsTest, MatchEq13BruteForce) {
  // R(β) must equal err²(with β) − err²(without β) computed by actually
  // deleting the entry — the definition behind Eq. 13.
  Ctx s = MakeCtx(1);
  const auto partial = ComputePartialErrors(s.x, s.list, s.factors);
  ASSERT_EQ(static_cast<std::int64_t>(partial.size()), s.list.size());

  const double with_all = SquaredError(s.x, s.core, s.factors);
  std::vector<std::int64_t> beta(3);
  for (std::int64_t b = 0; b < s.list.size(); ++b) {
    DenseTensor without = s.core;
    for (int k = 0; k < 3; ++k) {
      beta[static_cast<std::size_t>(k)] = s.list.index(b)[k];
    }
    without.at(beta.data()) = 0.0;
    const double err_without = SquaredError(s.x, without, s.factors);
    EXPECT_NEAR(partial[static_cast<std::size_t>(b)],
                with_all - err_without, 1e-8)
        << "core entry " << b;
  }
}

TEST(TruncationTest, RemovesRequestedFraction) {
  Ctx s = MakeCtx(2);
  ASSERT_EQ(s.list.size(), 8);
  const std::int64_t removed =
      TruncateNoisyEntries(s.x, &s.core, &s.list, s.factors, 0.25);
  EXPECT_EQ(removed, 2);
  EXPECT_EQ(s.list.size(), 6);
  EXPECT_EQ(s.core.CountNonZeros(), 6);
}

TEST(TruncationTest, ZeroRateIsNoop) {
  Ctx s = MakeCtx(3);
  EXPECT_EQ(TruncateNoisyEntries(s.x, &s.core, &s.list, s.factors, 0.0), 0);
  EXPECT_EQ(s.list.size(), 8);
}

TEST(TruncationTest, NeverEmptiesCore) {
  Ctx s = MakeCtx(4);
  for (int round = 0; round < 50; ++round) {
    TruncateNoisyEntries(s.x, &s.core, &s.list, s.factors, 0.9);
  }
  EXPECT_GE(s.list.size(), 1);
}

TEST(TruncationTest, RemovesTheNoisiestEntries) {
  Ctx s = MakeCtx(5);
  const auto partial = ComputePartialErrors(s.x, s.list, s.factors);
  // Find the two largest R(β).
  std::vector<double> sorted = partial;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  const double cutoff = sorted[1];

  std::vector<std::vector<std::int32_t>> expected_removed;
  for (std::int64_t b = 0; b < s.list.size(); ++b) {
    if (partial[static_cast<std::size_t>(b)] >= cutoff) {
      expected_removed.push_back(
          {s.list.index(b)[0], s.list.index(b)[1], s.list.index(b)[2]});
    }
  }
  TruncateNoisyEntries(s.x, &s.core, &s.list, s.factors, 0.25);
  // The removed entries' core positions must now be zero.
  std::vector<std::int64_t> beta(3);
  for (const auto& idx : expected_removed) {
    for (int k = 0; k < 3; ++k) beta[static_cast<std::size_t>(k)] = idx[k];
    EXPECT_EQ(s.core.at(beta.data()), 0.0);
  }
}

TEST(TruncationTest, RemovingPositiveRBetaReducesError) {
  // By definition R(β) > 0 means the fit improves without β; removing all
  // positive-R entries must therefore not increase the error.
  Ctx s = MakeCtx(6);
  const auto partial = ComputePartialErrors(s.x, s.list, s.factors);
  double positive_fraction = 0.0;
  for (double r : partial) positive_fraction += (r > 0.0) ? 1.0 : 0.0;
  positive_fraction /= static_cast<double>(partial.size());
  if (positive_fraction == 0.0) GTEST_SKIP() << "no noisy entries drawn";

  const double before = ReconstructionError(s.x, s.core, s.factors);
  // Remove exactly the largest-R entry (rate chosen to drop 1 of 8).
  TruncateNoisyEntries(s.x, &s.core, &s.list, s.factors, 0.125);
  const double after = ReconstructionError(s.x, s.core, s.factors);
  const double max_r = *std::max_element(partial.begin(), partial.end());
  if (max_r > 0.0) {
    EXPECT_LE(after, before + 1e-10);
  }
}

// --- The fused scorer against the per-(α,β) oracle. ---

// Scopes omp_set_num_threads so a test can pin the team size.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~ThreadCountGuard() { omp_set_num_threads(saved_); }

 private:
  int saved_;
};

// c_αβ = G_β·Π_k A(k)(ik, βk), value first and modes ascending.
double Product(const CoreEntryList& list, const std::vector<Matrix>& factors,
               const std::int64_t* entry_index, std::int64_t b) {
  double product = list.value(b);
  for (std::int64_t k = 0; k < list.order(); ++k) {
    product *= factors[static_cast<std::size_t>(k)](entry_index[k],
                                                     list.index(b)[k]);
  }
  return product;
}

// The scorer the library used before the fused pass, kept as the oracle:
// every c_αβ of an entry, x̂_α as their sum in list order, then
// R(β) −= c·(c + 2r) per pair, in entry order within each of the 64 fixed
// reduction lanes and folded in lane order.
std::vector<double> OracleScores(const SparseTensor& x,
                                 const CoreEntryList& list,
                                 const std::vector<Matrix>& factors) {
  const std::size_t n_core = static_cast<std::size_t>(list.size());
  std::vector<double> scores(n_core, 0.0);
  DeterministicParallelVectorSum(x.nnz(), n_core, scores.data(), [&] {
    return [&, products = std::vector<double>(n_core)](
               std::int64_t e, double* local) mutable {
      double reconstruction = 0.0;
      for (std::size_t b = 0; b < n_core; ++b) {
        products[b] =
            Product(list, factors, x.index(e), static_cast<std::int64_t>(b));
        reconstruction += products[b];
      }
      const double residual = x.value(e) - reconstruction;
      for (std::size_t b = 0; b < n_core; ++b) {
        local[b] -= products[b] * (products[b] + 2.0 * residual);
      }
    };
  });
  return scores;
}

// M(β) = Σ_α |c_αβ|·(|c_αβ| + 2|X_α| + 2·Σ_β' |c_αβ'|), which bounds the
// magnitude of every term (and partial sum) of R(β) in either scorer.
std::vector<double> ScoreMagnitudes(const SparseTensor& x,
                                    const CoreEntryList& list,
                                    const std::vector<Matrix>& factors) {
  const std::size_t n_core = static_cast<std::size_t>(list.size());
  std::vector<double> magnitudes(n_core, 0.0);
  std::vector<double> products(n_core);
  for (std::int64_t e = 0; e < x.nnz(); ++e) {
    double total = 0.0;
    for (std::size_t b = 0; b < n_core; ++b) {
      products[b] = std::abs(
          Product(list, factors, x.index(e), static_cast<std::int64_t>(b)));
      total += products[b];
    }
    for (std::size_t b = 0; b < n_core; ++b) {
      magnitudes[b] += products[b] *
                       (products[b] + 2.0 * std::abs(x.value(e)) + 2.0 * total);
    }
  }
  return magnitudes;
}

// Exactness class of the fused scorer: reassociated. With u = 2⁻⁵³,
// γ_k = k·u/(1 − k·u), L = ⌈|Ω|/64⌉ (the longest reduction lane) and M(β)
// as above, count the relative roundings each term of R(β) carries:
//  - oracle: c_αβ takes N multiplies, x̂_α a |G|-term recursive sum, r_α
//    one subtraction; c·(c + 2r) two more (or 2N + 1 for c² alone); the
//    lane sum at most L additions and the lane fold 64. So
//    |R_oracle − R| ≤ γ_{2N+|G|+L+68}·M(β).
//  - fused: the TTM chain reaches x̂_α through N multiplies and Σ_n J_n
//    additions per term, r_α one more; an S1 term r_α·Π_n a multiplies N
//    times more and an S2 term takes 2N (square, then scale) roundings;
//    going up the tree a term meets at most one addition per later
//    sibling at each of the N levels, ≤ N·L in a lane; the projection
//    −G·(G·S2 + 2·S1) takes 4 and the lane fold 64. So
//    |R_fused − R| ≤ γ_{3N+ΣJ+N·L+69}·M(β).
// Together: |R_fused − R_oracle| ≤ γ_K·M(β) with
//   K = 5N + Σ_n J_n + |G| + (N + 1)·L + 140 (rounded up).
void ExpectWithinBound(const SparseTensor& x, const CoreEntryList& list,
                       const std::vector<Matrix>& factors,
                       const std::string& where) {
  const std::vector<double> fused = ComputePartialErrors(x, list, factors);
  const std::vector<double> oracle = OracleScores(x, list, factors);
  const std::vector<double> magnitudes = ScoreMagnitudes(x, list, factors);
  const std::int64_t order = x.order();
  std::int64_t rank_sum = 0;
  for (const Matrix& factor : factors) rank_sum += factor.cols();
  const std::int64_t longest_lane =
      (x.nnz() + kReductionLanes - 1) / kReductionLanes;
  const double k = static_cast<double>(5 * order + rank_sum + list.size() +
                                       (order + 1) * longest_lane + 140);
  const double u = std::ldexp(1.0, -53);
  const double gamma = k * u / (1.0 - k * u);
  ASSERT_EQ(fused.size(), oracle.size()) << where;
  for (std::size_t b = 0; b < fused.size(); ++b) {
    EXPECT_LE(std::abs(fused[b] - oracle[b]), gamma * magnitudes[b])
        << where << ", core entry " << b << ": fused " << fused[b]
        << " oracle " << oracle[b];
  }
}

// An order-dims.size() problem with per-mode ranks, a dense signed core
// and signed factors sprinkled with exact zeros.
Ctx MakeShapedCtx(const std::vector<std::int64_t>& dims,
                  const std::vector<std::int64_t>& ranks, std::int64_t nnz,
                  std::uint64_t seed) {
  Rng rng(seed);
  Ctx s;
  s.x = UniformSparseTensor(dims, nnz, rng);
  s.core = DenseTensor(ranks);
  for (std::int64_t i = 0; i < s.core.size(); ++i) {
    s.core[i] = rng.Uniform(-0.5, 0.5);
  }
  s.list = CoreEntryList(s.core);
  for (std::size_t k = 0; k < dims.size(); ++k) {
    Matrix factor(dims[k], ranks[k]);
    for (std::int64_t i = 0; i < factor.size(); ++i) {
      factor.data()[i] = rng.Uniform(0.0, 1.0) < 0.1 ? 0.0
                                                      : rng.Uniform(-1.0, 1.0);
    }
    s.factors.push_back(std::move(factor));
  }
  return s;
}

// The same entries as `list`, rebuilt in a seeded random order through the
// snapshot constructor.
CoreEntryList ShuffledList(const CoreEntryList& list, std::uint64_t seed) {
  std::vector<std::int64_t> perm(static_cast<std::size_t>(list.size()));
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(seed);
  rng.Shuffle(perm);
  std::vector<std::int32_t> indices;
  std::vector<double> values;
  for (const std::int64_t b : perm) {
    indices.insert(indices.end(), list.index(b), list.index(b) + list.order());
    values.push_back(list.value(b));
  }
  return CoreEntryList(list.order(),
                       Span<const std::int32_t>(indices.data(), indices.size()),
                       Span<const double>(values.data(), values.size()));
}

TEST(PartialErrorsTest, FusedPassWithinBoundOfPerPairOracle) {
  struct Shape {
    std::vector<std::int64_t> dims;
    std::vector<std::int64_t> ranks;
    std::int64_t nnz;
  };
  const Shape shapes[] = {
      {{7, 5}, {3, 2}, 30},                        // order 2, < 64 entries
      {{6, 6, 4}, {2, 3, 4}, 120},                 // tied dims
      {{9, 1, 5, 4}, {3, 1, 2, 2}, 150},           // a dim-1 mode
      {{11, 7, 1, 5}, {2, 3, 2, 3}, 200},          // dim 1 with rank 2
      {{5, 4, 5, 3, 6}, {2, 3, 2, 2, 3}, 400},     // order 5
      {{4, 3, 4, 2, 3, 3}, {2, 2, 1, 2, 3, 2}, 300},  // order 6
  };
  std::uint64_t seed = 300;
  for (const Shape& shape : shapes) {
    Ctx s = MakeShapedCtx(shape.dims, shape.ranks, shape.nnz, ++seed);
    const std::string name = "order " + std::to_string(shape.dims.size()) +
                             " seed " + std::to_string(seed);
    ExpectWithinBound(s.x, s.list, s.factors, name + " dense");
    ExpectWithinBound(s.x, ShuffledList(s.list, seed), s.factors,
                      name + " shuffled");

    // All-zero factor rows: the rows of the first entry's coordinates.
    std::vector<Matrix> zeroed = s.factors;
    for (std::size_t k = 0; k < zeroed.size(); k += 2) {
      double* row = zeroed[k].Row(s.x.index(0)[k]);
      std::fill(row, row + zeroed[k].cols(), 0.0);
    }
    ExpectWithinBound(s.x, s.list, zeroed, name + " zero rows");

    // Two truncation rounds, then the truncated list shuffled.
    for (int round = 0; round < 2; ++round) {
      TruncateNoisyEntries(s.x, &s.core, &s.list, s.factors, 0.3);
      ExpectWithinBound(s.x, s.list, s.factors,
                        name + " truncated x" + std::to_string(round + 1));
    }
    ExpectWithinBound(s.x, ShuffledList(s.list, seed + 1), s.factors,
                      name + " truncated shuffled");
  }
}

TEST(PartialErrorsTest, ScoresFollowTheListNotItsOrder) {
  // A shuffled list scores each entry exactly as the original list does:
  // the pass runs over Ω, and the list only picks positions out of S1/S2.
  Ctx s = MakeShapedCtx({8, 6, 5, 4}, {3, 2, 2, 3}, 250, 71);
  const CoreEntryList shuffled = ShuffledList(s.list, 72);
  const std::vector<double> scores =
      ComputePartialErrors(s.x, s.list, s.factors);
  const std::vector<double> shuffled_scores =
      ComputePartialErrors(s.x, shuffled, s.factors);
  for (std::int64_t b = 0; b < shuffled.size(); ++b) {
    bool found = false;
    for (std::int64_t c = 0; c < s.list.size() && !found; ++c) {
      if (!std::equal(s.list.index(c), s.list.index(c) + 4,
                      shuffled.index(b))) {
        continue;
      }
      found = true;
      EXPECT_EQ(shuffled_scores[static_cast<std::size_t>(b)],
                scores[static_cast<std::size_t>(c)])
          << "shuffled entry " << b;
    }
    EXPECT_TRUE(found);
  }
}

TEST(PartialErrorsTest, ChargesAllScratchBeforeAllocating) {
  ThreadCountGuard guard(3);
  Ctx s = MakeShapedCtx({9, 7, 6}, {3, 2, 4}, 200, 81);
  MemoryTracker unlimited;
  const std::vector<double> expected =
      ComputePartialErrors(s.x, s.list, s.factors, &unlimited);
  const std::int64_t charge = unlimited.peak_bytes();
  // At least the sorted order and the 64 lane partials.
  EXPECT_GE(charge, static_cast<std::int64_t>(sizeof(double)) *
                        (s.x.nnz() + kReductionLanes * s.list.size()));
  EXPECT_EQ(unlimited.current_bytes(), 0);

  MemoryTracker exact(charge);
  EXPECT_EQ(ComputePartialErrors(s.x, s.list, s.factors, &exact), expected);
  EXPECT_EQ(exact.current_bytes(), 0);

  MemoryTracker short_by_one(charge - 1);
  EXPECT_THROW(ComputePartialErrors(s.x, s.list, s.factors, &short_by_one),
               OutOfMemoryBudget);
  EXPECT_EQ(short_by_one.current_bytes(), 0);

  // Through TruncateNoisyEntries: the throw leaves the list untouched.
  const std::int64_t before = s.list.size();
  EXPECT_THROW(TruncateNoisyEntries(s.x, &s.core, &s.list, s.factors, 0.25,
                                    nullptr, &short_by_one),
               OutOfMemoryBudget);
  EXPECT_EQ(short_by_one.current_bytes(), 0);
  EXPECT_EQ(s.list.size(), before);
}

TEST(TruncationTest, TiedScoresRemoveTheLowestListIndices) {
  // All-zero factors make every c_αβ, and so every R(β), exactly 0: the
  // tie-break alone decides, and it must pick list indices 0 and 1.
  Ctx s = MakeCtx(7);
  for (Matrix& factor : s.factors) {
    std::fill(factor.data(), factor.data() + factor.size(), 0.0);
  }
  for (const double r : ComputePartialErrors(s.x, s.list, s.factors)) {
    ASSERT_EQ(r, 0.0);
  }
  const CoreEntryList before = s.list;
  ASSERT_EQ(TruncateNoisyEntries(s.x, &s.core, &s.list, s.factors, 0.25), 2);
  ASSERT_EQ(s.list.size(), before.size() - 2);
  for (std::int64_t b = 0; b < s.list.size(); ++b) {
    EXPECT_TRUE(std::equal(s.list.index(b), s.list.index(b) + 3,
                           before.index(b + 2)))
        << "kept entry " << b;
    EXPECT_EQ(s.list.value(b), before.value(b + 2));
  }
}

TEST(TruncationTest, NonFiniteScoreNamesTheCoreEntry) {
  Ctx s = MakeCtx(8);
  s.factors[1](s.x.index(0)[1], 0) = std::nan("");
  const std::int64_t before = s.list.size();
  try {
    TruncateNoisyEntries(s.x, &s.core, &s.list, s.factors, 0.25);
    FAIL() << "a NaN factor value must stop the truncation";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("core entry 0 ("),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(s.list.size(), before);
}

// --- The removed set equals the oracle's on every approx configuration
// the tests, the perfbench workload and the paper benches run. ---

struct ApproxConfig {
  std::string name;
  std::function<SparseTensor()> make;
  std::vector<std::int64_t> ranks;
  int iterations;
};

void PrintTo(const ApproxConfig& config, std::ostream* os) {
  *os << config.name;
}

// The top-k list indices by (score descending, list index ascending).
std::vector<char> TopScores(const std::vector<double>& scores,
                            std::int64_t k) {
  std::vector<std::int64_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::int64_t a, std::int64_t b) {
                     return scores[static_cast<std::size_t>(a)] >
                            scores[static_cast<std::size_t>(b)];
                   });
  std::vector<char> top(scores.size(), 0);
  for (std::int64_t r = 0; r < k; ++r) {
    top[static_cast<std::size_t>(order[static_cast<std::size_t>(r)])] = 1;
  }
  return top;
}

class OracleRemovalSet : public ::testing::TestWithParam<ApproxConfig> {};

TEST_P(OracleRemovalSet, EveryTruncationRemovesTheOraclesSet) {
  // The solver's approx loop (row updates through the default engine,
  // then a truncation after every iteration but the last), checking each
  // truncation against the oracle's ranking.
  const ApproxConfig& config = GetParam();
  SparseTensor x = config.make();
  if (!x.has_mode_index()) x.BuildModeIndex();
  PTuckerOptions options;
  options.core_dims = config.ranks;
  options.max_iterations = config.iterations;
  options.variant = PTuckerVariant::kApprox;
  AlsModel model = InitAlsModel(x, options);
  const std::unique_ptr<DeltaEngine> engine =
      MakeDeltaEngine(options.delta_engine, x, model.core_list, model.factors,
                      nullptr);
  RowUpdateOptions row_options;
  row_options.lambda = options.lambda;
  row_options.seed = options.seed;
  for (int iteration = 1; iteration < config.iterations; ++iteration) {
    row_options.iteration = iteration;
    for (std::int64_t mode = 0; mode < x.order(); ++mode) {
      Matrix& factor = model.factors[static_cast<std::size_t>(mode)];
      Matrix old_factor;
      if (engine->WantsFactorSnapshot()) old_factor = factor;
      UpdateFactorRows(x, mode, nullptr, 0, *engine, &factor, row_options);
      engine->OnFactorUpdated(mode, old_factor);
    }
    const std::int64_t n_core = model.core_list.size();
    const std::int64_t k = std::min<std::int64_t>(
        static_cast<std::int64_t>(options.truncation_rate *
                                  static_cast<double>(n_core)),
        n_core - 1);
    const std::vector<char> expected = TopScores(
        OracleScores(x, model.core_list, model.factors), k);
    EXPECT_EQ(TopScores(ComputePartialErrors(x, model.core_list,
                                             model.factors),
                        k),
              expected)
        << config.name << ", iteration " << iteration;

    const CoreEntryList before = model.core_list;
    EXPECT_EQ(TruncateNoisyEntries(x, &model.core, &model.core_list,
                                   model.factors, options.truncation_rate,
                                   engine.get()),
              k);
    std::int64_t kept = 0;
    for (std::int64_t b = 0; b < before.size(); ++b) {
      if (expected[static_cast<std::size_t>(b)] != 0) continue;
      ASSERT_LT(kept, model.core_list.size());
      EXPECT_TRUE(std::equal(before.index(b), before.index(b) + x.order(),
                             model.core_list.index(kept)))
          << config.name << ", iteration " << iteration << ", entry " << b;
      ++kept;
    }
    EXPECT_EQ(kept, model.core_list.size());
  }
}

SparseTensor Planted(const std::vector<std::int64_t>& dims,
                     const std::vector<std::int64_t>& ranks, std::int64_t nnz,
                     double noise, std::uint64_t seed) {
  Rng rng(seed);
  const PlantedTucker model = RandomTuckerModel(dims, ranks, rng);
  return SampleFromModel(model, nnz, noise, rng);
}

// The 90% training split, drawn from `rng`.
SparseTensor TrainSplit(const SparseTensor& x, Rng rng) {
  return SplitObservedEntries(x, 0.1, rng).train;
}

SparseTensor MovieLensShape(std::int64_t users, std::int64_t movies,
                            std::int64_t years, std::int64_t nnz,
                            std::uint64_t seed) {
  MovieLensConfig config;
  config.num_users = users;
  config.num_movies = movies;
  config.num_years = years;
  config.num_hours = 24;
  config.nnz = nnz;
  config.seed = seed;
  return SimulateMovieLens(config).tensor;
}

std::vector<ApproxConfig> ApproxConfigs() {
  std::vector<ApproxConfig> configs = {
      // DeltaEngineTrajectories (delta_engine_test.cc).
      {"engine_trajectories",
       [] {
         Rng rng(21);
         return UniformSparseTensor({14, 12, 10}, 400, rng);
       },
       {3, 3, 3}, 5},
      // PTuckerApproxTest.CoreShrinksEachIteration (ptucker_test.cc).
      {"core_shrinks",
       [] {
         Rng rng(19);
         return UniformSparseTensor({12, 10, 8}, 300, rng);
       },
       {3, 3, 3}, 5},
      // VariantEquivalence.ApproxTradesAccuracyGracefully
      // (variant_equivalence_test.cc): the training split of workload 1.
      {"variant_equivalence",
       [] {
         Rng rng(1);
         const PlantedTucker model =
             RandomTuckerModel({25, 20, 15}, {3, 3, 3}, rng);
         const SparseTensor x = SampleFromModel(model, 2500, 0.02, rng);
         return TrainSplit(x, rng);
       },
       {3, 3, 3}, 8},
      // perfbench approx-serial, seed 1 and the holdout seed 900001.
      {"approx_serial_seed1",
       [] {
         return TrainSplit(Planted({80, 80, 80, 80, 80}, {4, 4, 4, 4, 4},
                                   8000, 0.05, 1),
                           Rng(1 ^ 0x5b1d5eedULL));
       },
       {4, 4, 4, 4, 4}, 6},
      {"approx_serial_seed900001",
       [] {
         return TrainSplit(Planted({80, 80, 80, 80, 80}, {4, 4, 4, 4, 4},
                                   8000, 0.05, 900001),
                           Rng(900001 ^ 0x5b1d5eedULL));
       },
       {4, 4, 4, 4, 4}, 6},
      // bench_fig9_approx.
      {"fig9", [] { return MovieLensShape(600, 200, 12, 12000, 9); },
       {5, 5, 5, 5}, 8},
      // bench_fig7_realworld's four tensors (2 iterations).
      {"fig7_yahoo",
       [] {
         return Planted({2000, 1250, 133, 24}, {4, 4, 4, 4}, 60000, 0.05,
                        0xA11CE);
       },
       {4, 4, 4, 4}, 2},
      {"fig7_movielens",
       [] { return MovieLensShape(1380, 270, 21, 20000, 0xB0B); },
       {4, 4, 4, 4}, 2},
      {"fig7_video",
       [] {
         return Planted({112, 160, 3, 32}, {3, 3, 3, 3}, 16000, 0.02,
                        0x51DE0);
       },
       {3, 3, 3, 3}, 2},
      {"fig7_image",
       [] { return Planted({256, 256, 3}, {3, 3, 3}, 20000, 0.02, 0x1E4A); },
       {3, 3, 3}, 2},
  };
  // PTuckerVariantSweep (ptucker_test.cc), orders 2–5.
  for (std::int64_t order = 2; order <= 5; ++order) {
    configs.push_back(
        {"variant_sweep_order" + std::to_string(order),
         [order] {
           Rng rng(100 + static_cast<std::uint64_t>(order));
           std::int64_t total = 1;
           for (std::int64_t k = 0; k < order; ++k) total *= 8;
           return UniformCubicTensor(
               order, 8, std::min<std::int64_t>(150, total), rng);
         },
         std::vector<std::int64_t>(static_cast<std::size_t>(order), 2), 4});
  }
  // bench_fig6_order: orders 3–7, In = 30, |Ω| = 1000, Jn = 3, 2 iterations.
  for (std::int64_t order = 3; order <= 7; ++order) {
    configs.push_back(
        {"fig6_order" + std::to_string(order),
         [order] {
           Rng rng(100 + static_cast<std::uint64_t>(order));
           return UniformCubicTensor(order, 30, 1000, rng);
         },
         std::vector<std::int64_t>(static_cast<std::size_t>(order), 3), 2});
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(
    ApproxConfigs, OracleRemovalSet, ::testing::ValuesIn(ApproxConfigs()),
    [](const ::testing::TestParamInfo<ApproxConfig>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace ptucker
