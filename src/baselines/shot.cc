#include "baselines/shot.h"

#include <stdexcept>

#include "core/delta_engine.h"
#include "core/reconstruction.h"
#include "linalg/blas.h"
#include "linalg/qr.h"
#include "tensor/index.h"
#include "util/parallel.h"
#include "util/random.h"
#include "obs/stopwatch.h"

namespace ptucker {

namespace {

// Orthogonal-iteration steps that refresh the leading left singular
// subspace of the implicit Y(n) per mode per sweep. Warm-started from the
// previous sweep, a few steps suffice.
constexpr int kSubspaceIterations = 3;

// Writes the Kronecker vector ⊗_{k≠skip} A(k)(idx[k], :) · scale into
// `out` (size Π_{k≠skip} Jk), lowest mode fastest — the SparseTtmChain /
// Eq. 1 column ordering. Pass skip = -1 to include every mode.
void ExpandKron(const std::vector<Matrix>& factors, const std::int64_t* idx,
                std::int64_t skip, double scale, double* out) {
  out[0] = scale;
  std::int64_t length = 1;
  for (std::size_t k = 0; k < factors.size(); ++k) {
    if (static_cast<std::int64_t>(k) == skip) continue;
    const Matrix& a = factors[k];
    const double* row = a.Row(idx[k]);
    // In-place expansion: fill blocks for j = Jk-1 .. 1 from the current
    // prefix, then scale the j = 0 block last so reads stay valid.
    for (std::int64_t j = a.cols() - 1; j >= 1; --j) {
      double* dst = out + j * length;
      for (std::int64_t t = 0; t < length; ++t) dst[t] = row[j] * out[t];
    }
    for (std::int64_t t = 0; t < length; ++t) out[t] *= row[0];
    length *= a.cols();
  }
}

}  // namespace

PTuckerResult ShotDecompose(const SparseTensor& x,
                            const HooiOptions& options) {
  ValidateBaselineInputs("S-HOT", x, options);
  if (!x.has_mode_index()) {
    throw std::invalid_argument(
        "S-HOT: call SparseTensor::BuildModeIndex() first");
  }

  const std::int64_t order = x.order();
  MemoryTracker* tracker = options.tracker;
  Stopwatch total_clock;

  Rng rng(options.seed);
  std::vector<Matrix> factors;
  factors.reserve(static_cast<std::size_t>(order));
  for (std::int64_t n = 0; n < order; ++n) {
    Matrix factor(x.dim(n), options.core_dims[static_cast<std::size_t>(n)]);
    factor.FillUniform(rng);
    factor = HouseholderQr(factor).q;  // orthonormal start
    factors.push_back(std::move(factor));
  }

  const std::int64_t core_size = NumElements(options.core_dims);

  PTuckerResult result;
  DenseTensor core(options.core_dims);

  // Per-entry reconstruction error through the mode-major δ-engine
  // (docs/architecture.md), whose lane kernel is bit-identical to the
  // entry-major scan for finite factor values. The core is recomputed
  // from scratch every iteration (its sparsity pattern may change), so
  // the engine cannot be kept alive across iterations via the mutation
  // hooks; a fresh build is Θ(N·|G|) and cheap next to the
  // scan itself. The engine's transient view bytes are NOT charged to the
  // tracker: the benches report this baseline's "required memory" as
  // S-HOT was published, and an error metric must not trip the budget.
  const auto model_error = [&]() {
    const CoreEntryList core_list(core);
    const ModeMajorDeltaEngine engine(core_list, factors, nullptr);
    return ReconstructionError(x, engine);
  };

  const auto sweep = [&](int) {
    for (std::int64_t mode = 0; mode < order; ++mode) {
      const std::int64_t rank =
          options.core_dims[static_cast<std::size_t>(mode)];
      std::int64_t k_cols = 1;
      for (std::int64_t k = 0; k < order; ++k) {
        if (k != mode) {
          k_cols *= options.core_dims[static_cast<std::size_t>(k)];
        }
      }

      // On-the-fly intermediate data: W (K x Jn), Z (In x Jn), and a
      // per-entry Kronecker scratch (K). No In x K matrix ever exists.
      const std::int64_t scratch_bytes =
          static_cast<std::int64_t>(sizeof(double)) *
          (k_cols * rank + x.dim(mode) * rank + k_cols);
      ScopedCharge charge(tracker, scratch_bytes);

      Matrix u = factors[static_cast<std::size_t>(mode)];  // warm start
      std::vector<double> kron(static_cast<std::size_t>(k_cols));

      for (int step = 0; step < kSubspaceIterations; ++step) {
        // W = Yᵀ U, streamed: each nonzero contributes
        // x_α · kron_α ⊗ U(in, :).
        Matrix w(k_cols, rank);
        for (std::int64_t e = 0; e < x.nnz(); ++e) {
          const std::int64_t* idx = x.index(e);
          ExpandKron(factors, idx, mode, x.value(e), kron.data());
          const double* u_row = u.Row(idx[mode]);
          for (std::int64_t t = 0; t < k_cols; ++t) {
            const double scale = kron[static_cast<std::size_t>(t)];
            if (scale == 0.0) continue;
            Axpy(scale, u_row, w.Row(t), rank);
          }
        }
        // Z = Y W, streamed over mode-n slices (rows are independent).
        Matrix z(x.dim(mode), rank);
#pragma omp parallel
        {
          std::vector<double> local_kron(static_cast<std::size_t>(k_cols));
#pragma omp for schedule(dynamic, 8)
          for (std::int64_t row = 0; row < x.dim(mode); ++row) {
            double* z_row = z.Row(row);
            for (const std::int64_t e : x.Slice(mode, row)) {
              const std::int64_t* idx = x.index(e);
              ExpandKron(factors, idx, mode, x.value(e), local_kron.data());
              for (std::int64_t t = 0; t < k_cols; ++t) {
                const double scale = local_kron[static_cast<std::size_t>(t)];
                if (scale == 0.0) continue;
                Axpy(scale, w.Row(t), z_row, rank);
              }
            }
          }
        }
        u = HouseholderQr(z).q;
      }
      factors[static_cast<std::size_t>(mode)] = std::move(u);
    }

    // Core: G = X ×1 A(1)ᵀ ··· ×N A(N)ᵀ, streamed with per-thread
    // accumulators merged in thread order (deterministic, per the ROADMAP
    // determinism note).
    {
      const std::int64_t scratch_bytes =
          static_cast<std::int64_t>(sizeof(double)) * 2 * core_size;
      ScopedCharge charge(tracker, scratch_bytes);
      DeterministicParallelVectorSum(
          x.nnz(), static_cast<std::size_t>(core_size), core.data(), [&] {
            std::vector<double> kron(static_cast<std::size_t>(core_size));
            return [&factors, &x, core_size,
                    kron = std::move(kron)](std::int64_t e,
                                            double* local) mutable {
              ExpandKron(factors, x.index(e), -1, x.value(e), kron.data());
              for (std::int64_t t = 0; t < core_size; ++t) {
                local[t] += kron[static_cast<std::size_t>(t)];
              }
            };
          });
    }

    return BaselineIteration{model_error(), core.CountNonZeros()};
  };
  result.converged =
      RunBaselineIterations("S-HOT", options.max_iterations,
                            options.tolerance, tracker, options.verbose,
                            sweep, &result.iterations);

  result.final_error = model_error();
  result.model.factors = std::move(factors);
  result.model.core = std::move(core);
  result.total_seconds = total_clock.ElapsedSeconds();
  return result;
}

}  // namespace ptucker
