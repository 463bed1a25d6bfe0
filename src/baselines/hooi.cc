#include "baselines/hooi.h"

#include <functional>

#include "baselines/tucker_csf.h"
#include "core/reconstruction.h"
#include "linalg/blas.h"
#include "linalg/svd.h"
#include "obs/stopwatch.h"
#include "tensor/csf.h"
#include "tensor/index.h"
#include "tensor/matricize.h"
#include "tensor/nmode.h"
#include "util/random.h"

namespace ptucker {

namespace {

// Y(n) = X ×_{k≠n} A(k)ᵀ for the current factors, materialized as the
// In × Π_{k≠n} Jk matrix of Algorithm 1 line 4 (the M-bottleneck).
using TtmcFunction = std::function<Matrix(
    std::int64_t mode, const std::vector<Matrix>& factors)>;

// Algorithm 1 with Y(n) from `ttmc`: the one driver of HOOI and
// TUCKER-CSF, which differ only in how they evaluate the TTMc. The
// caller validated the inputs and started `total_clock` before its own
// setup.
PTuckerResult RunHooi(const char* method, const SparseTensor& x,
                      const HooiOptions& options, const TtmcFunction& ttmc,
                      const Stopwatch& total_clock) {
  const std::int64_t order = x.order();

  Rng rng(options.seed);
  std::vector<Matrix> factors;
  factors.reserve(static_cast<std::size_t>(order));
  for (std::int64_t n = 0; n < order; ++n) {
    Matrix factor(x.dim(n), options.core_dims[static_cast<std::size_t>(n)]);
    factor.FillUniform(rng);
    // Algorithm 1 expects orthonormal factors throughout; orthogonalize
    // the random initialization.
    factor = LeadingLeftSingularVectors(factor, factor.cols());
    factors.push_back(std::move(factor));
  }

  PTuckerResult result;
  DenseTensor core(options.core_dims);
  result.converged = RunBaselineIterations(
      method, options.max_iterations, options.tolerance, options.tracker,
      options.verbose,
      [&](int) {
        Matrix last_y;
        for (std::int64_t mode = 0; mode < order; ++mode) {
          Matrix y = ttmc(mode, factors);  // line 4
          // Line 5: Jn leading left singular vectors of Y(n).
          factors[static_cast<std::size_t>(mode)] =
              ExactSvdLeftSingularVectors(
                  y, options.core_dims[static_cast<std::size_t>(mode)]);
          if (mode == order - 1) last_y = std::move(y);
        }
        // Line 7 equivalent: G = X ×1 A(1)ᵀ ··· ×N A(N)ᵀ. Reuse the last
        // Y: G(N) = A(N)ᵀ Y(N).
        const Matrix core_unfolded =
            MatTMul(factors[static_cast<std::size_t>(order - 1)], last_y);
        core = Dematricize(core_unfolded, options.core_dims, order - 1);
        return BaselineIteration{ReconstructionError(x, core, factors),
                                 core.CountNonZeros()};
      },
      &result.iterations);

  result.final_error = ReconstructionError(x, core, factors);
  result.model.factors = std::move(factors);
  result.model.core = std::move(core);
  result.total_seconds = total_clock.ElapsedSeconds();
  return result;
}

// Mode order rooted at `root` with the remaining modes ascending, so
// TtmcRoot's column ordering matches SparseTtmChain / Eq. 1.
std::vector<std::int64_t> RootedModeOrder(std::int64_t order,
                                          std::int64_t root) {
  std::vector<std::int64_t> result;
  result.reserve(static_cast<std::size_t>(order));
  result.push_back(root);
  for (std::int64_t k = 0; k < order; ++k) {
    if (k != root) result.push_back(k);
  }
  return result;
}

}  // namespace

PTuckerResult HooiDecompose(const SparseTensor& x,
                            const HooiOptions& options) {
  ValidateBaselineInputs("HOOI", x, options);
  const Stopwatch total_clock;
  return RunHooi(
      "HOOI", x, options,
      [&](std::int64_t mode, const std::vector<Matrix>& factors) {
        return SparseTtmChain(x, factors, mode, options.tracker);
      },
      total_clock);
}

PTuckerResult TuckerCsfDecompose(const SparseTensor& x,
                                 const HooiOptions& options) {
  ValidateBaselineInputs("Tucker-CSF", x, options);
  const Stopwatch total_clock;

  // One CSF allocation per mode (built once; factor-independent).
  std::vector<CsfTensor> trees;
  trees.reserve(static_cast<std::size_t>(x.order()));
  for (std::int64_t n = 0; n < x.order(); ++n) {
    trees.emplace_back(x, RootedModeOrder(x.order(), n));
  }

  return RunHooi(
      "Tucker-CSF", x, options,
      [&](std::int64_t mode, const std::vector<Matrix>& factors) {
        // Y(n) from the CSF tree, still materialized: Table III's
        // O(I Jᴺ⁻¹) memory row for TUCKER-CSF. The SVD that consumes Y
        // charges nothing, so releasing Y's charge on return leaves the
        // tracker's peak and budget checks where they were.
        const std::int64_t y_bytes =
            static_cast<std::int64_t>(sizeof(double)) * x.dim(mode) *
            (NumElements(options.core_dims) /
             options.core_dims[static_cast<std::size_t>(mode)]);
        const ScopedCharge y_charge(options.tracker, y_bytes);
        return trees[static_cast<std::size_t>(mode)].TtmcRoot(
            factors, options.tracker);
      },
      total_clock);
}

}  // namespace ptucker
