#include "baselines/tucker_wopt.h"

#include <cmath>

#include "linalg/blas.h"
#include "tensor/index.h"
#include "tensor/matricize.h"
#include "tensor/nmode.h"
#include "util/random.h"
#include "obs/stopwatch.h"

namespace ptucker {

namespace {

// The NCG variable block: the core plus every factor matrix.
struct Params {
  DenseTensor core;
  std::vector<Matrix> factors;
};

double ParamsDot(const Params& a, const Params& b) {
  double sum = Dot(a.core.data(), b.core.data(), a.core.size());
  for (std::size_t k = 0; k < a.factors.size(); ++k) {
    sum += Dot(a.factors[k].data(), b.factors[k].data(), a.factors[k].size());
  }
  return sum;
}

// a += scale * b.
void ParamsAxpy(double scale, const Params& b, Params* a) {
  Axpy(scale, b.core.data(), a->core.data(), a->core.size());
  for (std::size_t k = 0; k < b.factors.size(); ++k) {
    Axpy(scale, b.factors[k].data(), a->factors[k].data(),
         b.factors[k].size());
  }
}

void ParamsScale(double scale, Params* a) {
  a->core.Scale(scale);
  for (auto& factor : a->factors) factor.Scale(scale);
}

}  // namespace

PTuckerResult TuckerWoptDecompose(const SparseTensor& x,
                                  const HooiOptions& options) {
  ValidateBaselineInputs("wOpt", x, options);

  const std::int64_t order = x.order();
  const std::int64_t total = NumElements(x.dims());
  MemoryTracker* tracker = options.tracker;
  Stopwatch total_clock;

  // Dense working set, the hallmark of wOpt: the zero-filled observation
  // tensor, the observation mask, the dense residual, plus one dense
  // reconstruction buffer. Charged for the whole solve: this is the
  // allocation that reproduces the paper's O.O.M. columns.
  const std::int64_t dense_bytes =
      total * static_cast<std::int64_t>(3 * sizeof(double) + sizeof(char));
  ScopedCharge dense_charge(tracker, dense_bytes);

  DenseTensor x_dense(x.dims());
  std::vector<char> observed(static_cast<std::size_t>(total), 0);
  const auto strides = ComputeStrides(x.dims());
  for (std::int64_t e = 0; e < x.nnz(); ++e) {
    const std::int64_t linear = Linearize(x.index(e), strides, order);
    x_dense[linear] = x.value(e);
    observed[static_cast<std::size_t>(linear)] = 1;
  }

  Rng rng(options.seed);
  Params params;
  params.core = DenseTensor(options.core_dims);
  params.core.FillUniform(rng);
  params.factors.reserve(static_cast<std::size_t>(order));
  for (std::int64_t n = 0; n < order; ++n) {
    Matrix factor(x.dim(n), options.core_dims[static_cast<std::size_t>(n)]);
    factor.FillUniform(rng);
    params.factors.push_back(std::move(factor));
  }

  // f(θ) = Σ_Ω (X − X̂)²; also emits the dense masked residual
  // E = W ⊛ (X̂ − X) when requested.
  auto evaluate = [&](const Params& p, DenseTensor* residual_out) {
    DenseTensor reconstruction = ReconstructDense(p.core, p.factors);
    double loss = 0.0;
    for (std::int64_t linear = 0; linear < total; ++linear) {
      if (!observed[static_cast<std::size_t>(linear)]) {
        reconstruction[linear] = 0.0;
        continue;
      }
      const double residual = reconstruction[linear] - x_dense[linear];
      reconstruction[linear] = residual;
      loss += residual * residual;
    }
    if (residual_out != nullptr) *residual_out = std::move(reconstruction);
    return loss;
  };

  // ∇f: ∂G = 2 E ×1 A(1)ᵀ ··· ×N A(N)ᵀ and
  //     ∂A(n) = 2 [E ×_{k≠n} A(k)ᵀ](n) G(n)ᵀ.
  auto gradient = [&](const Params& p, const DenseTensor& residual) {
    Params grad;
    std::vector<Matrix> transposed;
    transposed.reserve(static_cast<std::size_t>(order));
    for (const auto& factor : p.factors) {
      transposed.push_back(factor.Transposed());
    }
    // The chain's first product is the O(Iᴺ⁻¹J) dense intermediate of
    // Table III; charge its peak per evaluation.
    std::int64_t peak_chain_bytes = 0;
    for (std::int64_t mode = 0; mode < order; ++mode) {
      peak_chain_bytes = std::max(
          peak_chain_bytes,
          static_cast<std::int64_t>(sizeof(double)) * (total / x.dim(mode)) *
              options.core_dims[static_cast<std::size_t>(mode)]);
    }
    ScopedCharge chain_charge(tracker, peak_chain_bytes);

    grad.core = ModeProductChain(residual, transposed, -1);
    grad.core.Scale(2.0);
    grad.factors.reserve(static_cast<std::size_t>(order));
    for (std::int64_t mode = 0; mode < order; ++mode) {
      DenseTensor chain = ModeProductChain(residual, transposed, mode);
      const Matrix unfolded = Matricize(chain, mode);
      const Matrix core_unfolded = Matricize(p.core, mode);
      Matrix g = MatMulT(unfolded, core_unfolded);  // In x Jn
      g.Scale(2.0);
      grad.factors.push_back(std::move(g));
    }
    return grad;
  };

  PTuckerResult result;
  DenseTensor residual;
  double loss = evaluate(params, &residual);
  Params grad = gradient(params, residual);
  Params direction = grad;
  ParamsScale(-1.0, &direction);
  double grad_norm_sq = ParamsDot(grad, grad);
  double step = 1.0;

  const auto ncg_iteration = [&](int) {
    // Backtracking Armijo line search along `direction`.
    const double directional = ParamsDot(grad, direction);
    double slope = directional;
    Params trial = params;
    if (slope >= 0.0) {
      // Not a descent direction (PR restarts can do this): steepest
      // descent restart.
      direction = grad;
      ParamsScale(-1.0, &direction);
      slope = -grad_norm_sq;
      trial = params;
    }
    double alpha = step;
    double trial_loss = loss;
    bool accepted = false;
    for (int backtrack = 0; backtrack < 30; ++backtrack) {
      trial = params;
      ParamsAxpy(alpha, direction, &trial);
      trial_loss = evaluate(trial, nullptr);
      if (trial_loss <= loss + 1e-4 * alpha * slope) {
        accepted = true;
        break;
      }
      alpha *= 0.5;
    }
    if (!accepted) {
      // Stuck: stop without a record (converged to numerical precision).
      BaselineIteration stalled;
      stalled.stalled = true;
      return stalled;
    }
    params = std::move(trial);
    step = std::max(alpha * 2.0, 1e-8);  // warm-start the next search
    loss = trial_loss;

    // New gradient + Polak-Ribière update.
    loss = evaluate(params, &residual);
    Params new_grad = gradient(params, residual);
    const double new_norm_sq = ParamsDot(new_grad, new_grad);
    double beta =
        (new_norm_sq - ParamsDot(new_grad, grad)) / std::max(grad_norm_sq,
                                                             1e-300);
    beta = std::max(0.0, beta);  // PR+ restart
    ParamsScale(beta, &direction);
    ParamsAxpy(-1.0, new_grad, &direction);
    grad = std::move(new_grad);
    grad_norm_sq = new_norm_sq;

    return BaselineIteration{std::sqrt(loss), params.core.CountNonZeros()};
  };
  result.converged =
      RunBaselineIterations("wOpt", options.max_iterations, options.tolerance,
                            tracker, options.verbose, ncg_iteration,
                            &result.iterations);

  result.final_error = std::sqrt(evaluate(params, nullptr));
  result.model.factors = std::move(params.factors);
  result.model.core = std::move(params.core);
  result.total_seconds = total_clock.ElapsedSeconds();
  return result;
}

}  // namespace ptucker
