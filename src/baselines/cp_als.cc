#include "baselines/cp_als.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include <omp.h>

#include "baselines/common.h"
#include "core/row_update.h"
#include "linalg/blas.h"
#include "util/parallel.h"
#include "util/random.h"
#include "obs/stopwatch.h"

namespace ptucker {

namespace {

// δ for CP (the Hadamard of the other modes' rows):
// delta[r] = Π_{k≠mode} A(k)(ik, r).
void CpDelta(const std::vector<Matrix>& factors, const std::int64_t* idx,
             std::int64_t mode, std::int64_t rank, double* delta) {
  for (std::int64_t r = 0; r < rank; ++r) delta[r] = 1.0;
  for (std::size_t k = 0; k < factors.size(); ++k) {
    if (static_cast<std::int64_t>(k) == mode) continue;
    const double* row = factors[k].Row(idx[k]);
    for (std::int64_t r = 0; r < rank; ++r) delta[r] *= row[r];
  }
}

double CpReconstruct(const std::vector<Matrix>& factors,
                     const std::int64_t* idx, std::int64_t rank) {
  double sum = 0.0;
  for (std::int64_t r = 0; r < rank; ++r) {
    double product = 1.0;
    for (std::size_t k = 0; k < factors.size(); ++k) {
      product *= factors[k](idx[k], r);
    }
    sum += product;
  }
  return sum;
}

double CpError(const SparseTensor& x, const std::vector<Matrix>& factors,
               std::int64_t rank) {
  // Deterministic combine order so fixed-seed solves are bit-reproducible.
  const double total = DeterministicParallelSum(x.nnz(), [&](std::int64_t e) {
    const double residual =
        x.value(e) - CpReconstruct(factors, x.index(e), rank);
    return residual * residual;
  });
  return std::sqrt(total);
}

}  // namespace

double CpResult::SecondsPerIteration() const {
  if (iterations.empty()) return 0.0;
  double total = 0.0;
  for (const auto& stats : iterations) total += stats.seconds;
  return total / static_cast<double>(iterations.size());
}

double CpResult::Predict(const std::int64_t* index) const {
  return CpReconstruct(factors, index,
                       factors.empty() ? 0 : factors.front().cols());
}

TuckerFactorization CpResult::ToTucker() const {
  TuckerFactorization model;
  model.factors = factors;
  const std::int64_t rank = factors.empty() ? 0 : factors.front().cols();
  std::vector<std::int64_t> core_dims(factors.size(), rank);
  model.core = DenseTensor(core_dims);
  std::vector<std::int64_t> index(factors.size());
  for (std::int64_t r = 0; r < rank; ++r) {
    for (auto& i : index) i = r;
    model.core.at(index.data()) = 1.0;
  }
  return model;
}

CpResult CpAlsDecompose(const SparseTensor& x, const CpOptions& options) {
  if (x.nnz() == 0) {
    throw std::invalid_argument("CP-ALS: tensor has no observed entries");
  }
  if (!x.has_mode_index()) {
    throw std::invalid_argument(
        "CP-ALS: call SparseTensor::BuildModeIndex() first");
  }
  if (options.rank < 1) {
    throw std::invalid_argument("CP-ALS: rank must be >= 1");
  }
  if (!std::isfinite(options.lambda) || options.lambda < 0.0) {
    throw std::invalid_argument(
        "CP-ALS: lambda must be a finite non-negative number, got " +
        std::to_string(options.lambda));
  }
  if (options.max_iterations < 1) {
    throw std::invalid_argument("CP-ALS: max_iterations must be >= 1");
  }

  const std::int64_t order = x.order();
  const std::int64_t rank = options.rank;
  Stopwatch total_clock;

  Rng rng(options.seed);
  CpResult result;
  result.factors.reserve(static_cast<std::size_t>(order));
  for (std::int64_t n = 0; n < order; ++n) {
    Matrix factor(x.dim(n), rank);
    factor.FillUniform(rng);
    result.factors.push_back(std::move(factor));
  }

  // Per-thread B (R x R), c, δ and the solved row: O(T·R²).
  const std::int64_t scratch_bytes =
      static_cast<std::int64_t>(omp_get_max_threads()) *
      static_cast<std::int64_t>(sizeof(double)) * (rank * rank + 3 * rank);
  ScopedCharge scratch_charge(options.tracker, scratch_bytes);

  const auto sweep = [&](int) {
    for (std::int64_t mode = 0; mode < order; ++mode) {
      Matrix& factor = result.factors[static_cast<std::size_t>(mode)];
#pragma omp parallel
      {
        Matrix b(rank, rank);
        std::vector<double> c(static_cast<std::size_t>(rank));
        std::vector<double> delta(static_cast<std::size_t>(rank));
        std::vector<double> new_row(static_cast<std::size_t>(rank));
#pragma omp for schedule(dynamic, 8)
        for (std::int64_t row = 0; row < x.dim(mode); ++row) {
          const auto slice = x.Slice(mode, row);
          if (slice.empty()) {
            for (std::int64_t r = 0; r < rank; ++r) factor(row, r) = 0.0;
            continue;
          }
          b.Fill(0.0);
          std::fill(c.begin(), c.end(), 0.0);
          for (const std::int64_t entry : slice) {
            CpDelta(result.factors, x.index(entry), mode, rank,
                    delta.data());
            SymmetricRank1Update(b, delta.data());
            Axpy(x.value(entry), delta.data(), c.data(), rank);
          }
          for (std::int64_t r = 0; r < rank; ++r) b(r, r) += options.lambda;
          SolveRow(b, c.data(), new_row.data(), rank);
          for (std::int64_t r = 0; r < rank; ++r) {
            factor(row, r) = new_row[static_cast<std::size_t>(r)];
          }
        }
      }
    }

    // The core is superdiagonal: |G| = R.
    return BaselineIteration{CpError(x, result.factors, rank), rank};
  };
  result.converged =
      RunBaselineIterations("CP-ALS", options.max_iterations,
                            options.tolerance, options.tracker,
                            options.verbose, sweep, &result.iterations);

  result.final_error = CpError(x, result.factors, rank);
  result.total_seconds = total_clock.ElapsedSeconds();
  return result;
}

}  // namespace ptucker
