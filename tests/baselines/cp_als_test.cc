#include "baselines/cp_als.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/reconstruction.h"
#include "core/row_update.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "util/parallel.h"
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
  PTuckerResult result = CpAlsDecompose(x, options);
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
  PTuckerResult result = CpAlsDecompose(x, options);
  EXPECT_LT(result.final_error, 1e-2 * x.FrobeniusNorm());
}

TEST(CpAlsTest, PredictsMissingEntriesOnCpData) {
  Rng rng(5);
  SparseTensor all = SampleCpModel({15, 15, 15}, 2, 2000, 0.01, rng, nullptr);
  auto split = SplitObservedEntries(all, 0.1, rng);
  CpOptions options;
  options.rank = 2;
  options.max_iterations = 25;
  PTuckerResult result = CpAlsDecompose(split.train, options);
  const double rmse =
      TestRmse(split.test, result.model.core, result.model.factors);
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
  PTuckerResult result = CpAlsDecompose(x, options);
  for (std::int64_t r = 0; r < 2; ++r) {
    EXPECT_EQ(result.model.factors[0](0, r), 0.0);  // row 0 unobserved
    EXPECT_EQ(result.model.factors[0](4, r), 0.0);  // row 4 unobserved
  }
}

TEST(CpAlsTest, TracksScratchMemory) {
  // The naive engine keeps no derived state, so the tracked peak is the
  // row kernel's scratch alone.
  Rng rng(6);
  SparseTensor x = UniformSparseTensor({10, 10, 10}, 200, rng);
  for (const int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    OmpEnvironmentGuard guard(threads, Scheduling::kDynamic);
    MemoryTracker tracker;
    CpOptions options;
    options.rank = 4;
    options.max_iterations = 2;
    options.tracker = &tracker;
    CpAlsDecompose(x, options);
    EXPECT_EQ(tracker.peak_bytes(), RowUpdateScratchBytes(threads, 3, 4));
    EXPECT_EQ(tracker.current_bytes(), 0);
  }
}

TEST(CpAlsTest, NanObservedValueFailsLoudly) {
  // A NaN observation poisons the error; the solve stops at the first
  // iteration instead of returning a NaN model.
  Rng rng(7);
  SparseTensor x = UniformSparseTensor({8, 7, 6}, 120, rng);
  x.set_value(17, std::numeric_limits<double>::quiet_NaN());
  CpOptions options;
  options.rank = 3;
  options.max_iterations = 5;
  try {
    CpAlsDecompose(x, options);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "iteration 1: reconstruction error is NaN"),
              std::string::npos)
        << e.what();
  }
}

// CDTF's row update [24] entry by entry, with none of P-Tucker's row
// kernel or engines: for each entry of a row's slice, δ is the Hadamard
// product of the other modes' rows, B += δδᵀ and c += x·δ; then SolveRow
// on B + λI, and an empty slice zeroes its row. Factors are
// drawn as CpAlsDecompose draws them; each iteration's error is Eq. 5
// through DeterministicParallelSum. Runs every iteration and counts the
// row solves Cholesky declined (λ = 0 on a rank-deficient B).
struct CdtfRun {
  std::vector<Matrix> factors;
  std::vector<double> errors;
  std::int64_t cholesky_declined = 0;
};

CdtfRun CdtfOracle(const SparseTensor& x, const CpOptions& options) {
  const std::int64_t order = x.order();
  const std::int64_t rank = options.rank;
  CdtfRun run;
  Rng rng(options.seed);
  for (std::int64_t n = 0; n < order; ++n) {
    Matrix factor(x.dim(n), rank);
    factor.FillUniform(rng);
    run.factors.push_back(std::move(factor));
  }
  std::vector<Matrix>& factors = run.factors;
  Matrix b(rank, rank);
  std::vector<double> c(static_cast<std::size_t>(rank));
  std::vector<double> delta(static_cast<std::size_t>(rank));
  std::vector<double> cholesky_row(static_cast<std::size_t>(rank));
  for (int iteration = 0; iteration < options.max_iterations; ++iteration) {
    for (std::int64_t mode = 0; mode < order; ++mode) {
      Matrix& factor = factors[static_cast<std::size_t>(mode)];
      for (std::int64_t row = 0; row < x.dim(mode); ++row) {
        const auto slice = x.Slice(mode, row);
        if (slice.empty()) {
          for (std::int64_t r = 0; r < rank; ++r) factor(row, r) = 0.0;
          continue;
        }
        b.Fill(0.0);
        std::fill(c.begin(), c.end(), 0.0);
        for (const std::int64_t entry : slice) {
          const std::int64_t* index = x.index(entry);
          std::fill(delta.begin(), delta.end(), 1.0);
          for (std::int64_t k = 0; k < order; ++k) {
            if (k == mode) continue;
            const double* other = factors[static_cast<std::size_t>(k)].Row(
                index[k]);
            for (std::int64_t r = 0; r < rank; ++r) {
              delta[static_cast<std::size_t>(r)] *= other[r];
            }
          }
          SymmetricRank1Update(b, delta.data());
          Axpy(x.value(entry), delta.data(), c.data(), rank);
        }
        for (std::int64_t r = 0; r < rank; ++r) b(r, r) += options.lambda;
        if (!CholeskySolveRow(b, c.data(), cholesky_row.data())) {
          ++run.cholesky_declined;
        }
        SolveRow(b, c.data(), factor.Row(row), rank);
      }
    }
    const auto squared_residual = [&](std::int64_t e) {
      const std::int64_t* index = x.index(e);
      double x_hat = 0.0;
      for (std::int64_t r = 0; r < rank; ++r) {
        double product = 1.0;
        for (std::int64_t k = 0; k < order; ++k) {
          product *= factors[static_cast<std::size_t>(k)](index[k], r);
        }
        x_hat += product;
      }
      const double residual = x.value(e) - x_hat;
      return residual * residual;
    };
    const double squares =
        DeterministicParallelSum(x.nnz(), squared_residual);
    run.errors.push_back(std::sqrt(squares));
  }
  return run;
}

// Uniform entries over `dims` that never touch the last row of mode 0,
// so that row's slice is empty.
SparseTensor TensorWithEmptyRow(const std::vector<std::int64_t>& dims,
                                std::int64_t nnz, Rng& rng) {
  SparseTensor x(dims);
  std::vector<std::int64_t> index(dims.size());
  for (std::int64_t e = 0; e < nnz; ++e) {
    for (std::size_t k = 0; k < dims.size(); ++k) {
      const std::int64_t rows = k == 0 ? dims[k] - 1 : dims[k];
      index[k] = static_cast<std::int64_t>(
          rng.UniformInt(static_cast<std::uint64_t>(rows)));
    }
    x.AddEntry(index, rng.Uniform());
  }
  x.BuildModeIndex();
  return x;
}

void ExpectSameBits(const Matrix& expected, const Matrix& actual) {
  ASSERT_EQ(expected.rows(), actual.rows());
  ASSERT_EQ(expected.cols(), actual.cols());
  for (std::int64_t i = 0; i < expected.rows(); ++i) {
    for (std::int64_t j = 0; j < expected.cols(); ++j) {
      ASSERT_EQ(expected(i, j), actual(i, j)) << "at (" << i << ", " << j
                                              << ")";
    }
  }
}

TEST(CpAlsTest, CpAlsMatchesCdtfOracle) {
  // Rank 9 takes the row kernel's generic fold; λ = 0 at rank 9 leaves
  // rows with fewer than 9 entries rank-deficient, so Cholesky declines
  // and SolveRow falls back to LU.
  Rng rng(8);
  const std::vector<SparseTensor> tensors = {
      TensorWithEmptyRow({16, 12, 10}, 150, rng),
      TensorWithEmptyRow({10, 8, 7, 6}, 120, rng)};
  for (const SparseTensor& x : tensors) {
    for (const std::int64_t rank : {1, 4, 9}) {
      for (const double lambda : {0.01, 0.0}) {
        CpOptions options;
        options.rank = rank;
        options.lambda = lambda;
        options.max_iterations = 4;
        options.tolerance = 0.0;  // run every iteration
        options.seed = 11;
        const CdtfRun oracle = CdtfOracle(x, options);
        if (rank == 9 && lambda == 0.0) {
          EXPECT_GT(oracle.cholesky_declined, 0);
        }
        for (const int threads : {1, 4}) {
          SCOPED_TRACE("order " + std::to_string(x.order()) + ", rank " +
                       std::to_string(rank) + ", lambda " +
                       std::to_string(lambda) + ", " +
                       std::to_string(threads) + " threads");
          OmpEnvironmentGuard guard(threads, Scheduling::kDynamic);
          const PTuckerResult result = CpAlsDecompose(x, options);
          ASSERT_EQ(result.iterations.size(), oracle.errors.size());
          for (std::size_t i = 0; i < oracle.errors.size(); ++i) {
            EXPECT_EQ(result.iterations[i].error, oracle.errors[i]) << i;
          }
          for (std::int64_t n = 0; n < x.order(); ++n) {
            ExpectSameBits(oracle.factors[static_cast<std::size_t>(n)],
                           result.model.factors[static_cast<std::size_t>(n)]);
          }
          EXPECT_EQ(result.final_error, oracle.errors.back());
          EXPECT_EQ(result.final_error,
                    ReconstructionError(x, result.model.core,
                                        result.model.factors));
        }
      }
    }
  }
}

}  // namespace
}  // namespace ptucker
