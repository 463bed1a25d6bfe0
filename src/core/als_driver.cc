#include "core/als_driver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include <omp.h>

#include "core/core_update.h"
#include "core/orthogonalize.h"
#include "core/reconstruction.h"
#include "core/row_update.h"
#include "core/truncation.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"

namespace ptucker {

namespace {

// Throws std::invalid_argument, naming the option, unless `x` and
// `options` are a valid P-Tucker input: a non-empty tensor with its mode
// index built, one rank 1 <= Jn per mode (Jn <= In when orthogonalizing),
// λ >= 0, max_iterations >= 1, truncation_rate in [0, 1), num_threads
// >= 0, sample_rate in (0, 1], adaptive_epsilon 0, tile_width >= 1, and
// an init_snapshot (when set) of matching shape.
void ValidateAlsInputs(const SparseTensor& x, const PTuckerOptions& options) {
  if (x.nnz() == 0) {
    throw std::invalid_argument("P-Tucker: tensor has no observed entries");
  }
  if (!x.has_mode_index()) {
    throw std::invalid_argument(
        "P-Tucker: call SparseTensor::BuildModeIndex() before decomposing");
  }
  if (static_cast<std::int64_t>(options.core_dims.size()) != x.order()) {
    throw std::invalid_argument(
        "P-Tucker: core_dims order does not match tensor order");
  }
  for (std::int64_t n = 0; n < x.order(); ++n) {
    const std::int64_t rank = options.core_dims[static_cast<std::size_t>(n)];
    if (rank < 1) {
      throw std::invalid_argument("P-Tucker: core dimensionality must be >= 1");
    }
    if (options.orthogonalize_output && rank > x.dim(n)) {
      throw std::invalid_argument(
          "P-Tucker: Jn > In is incompatible with QR orthogonalization");
    }
  }
  if (options.lambda < 0.0) {
    throw std::invalid_argument("P-Tucker: lambda must be non-negative");
  }
  if (options.max_iterations < 1) {
    throw std::invalid_argument("P-Tucker: max_iterations must be >= 1");
  }
  if (options.truncation_rate < 0.0 || options.truncation_rate >= 1.0) {
    throw std::invalid_argument(
        "P-Tucker: truncation_rate must be in [0, 1)");
  }
  if (options.num_threads < 0) {
    throw std::invalid_argument("P-Tucker: num_threads must be >= 0");
  }
  if (options.sample_rate <= 0.0 || options.sample_rate > 1.0) {
    throw std::invalid_argument("P-Tucker: sample_rate must be in (0, 1]");
  }
  if (options.adaptive_epsilon != 0.0) {
    throw std::invalid_argument(
        "P-Tucker: adaptive_epsilon must be 0: the lossy adaptive "
        "delta-engine was removed");
  }
  if (options.tile_width < 1) {
    throw std::invalid_argument("P-Tucker: tile_width must be >= 1");
  }
  if (options.init_snapshot != nullptr) {
    const TuckerFactorization& init = *options.init_snapshot;
    if (static_cast<std::int64_t>(init.factors.size()) != x.order() ||
        init.core.order() != x.order()) {
      throw std::invalid_argument(
          "P-Tucker: init_snapshot order does not match the tensor");
    }
    for (std::int64_t n = 0; n < x.order(); ++n) {
      const Matrix& factor = init.factors[static_cast<std::size_t>(n)];
      const std::int64_t rank = options.core_dims[static_cast<std::size_t>(n)];
      if (factor.rows() != x.dim(n) || factor.cols() != rank ||
          init.core.dim(n) != rank) {
        throw std::invalid_argument(
            "P-Tucker: init_snapshot shape mismatch in mode " +
            std::to_string(n) + " (want factor " + std::to_string(x.dim(n)) +
            "x" + std::to_string(rank) + ", got " +
            std::to_string(factor.rows()) + "x" +
            std::to_string(factor.cols()) + ", core dim " +
            std::to_string(init.core.dim(n)) + ")");
      }
    }
  }
}

}  // namespace

AlsModel InitAlsModel(const SparseTensor& x, const PTuckerOptions& options) {
  AlsModel model;
  if (options.init_snapshot != nullptr) {
    model.factors = options.init_snapshot->factors;
    model.core = options.init_snapshot->core;
  } else {
    Rng rng(options.seed);
    for (std::int64_t n = 0; n < x.order(); ++n) {
      Matrix factor(x.dim(n), options.core_dims[static_cast<std::size_t>(n)]);
      factor.FillUniform(rng);
      model.factors.push_back(std::move(factor));
    }
    model.core = DenseTensor(options.core_dims);
    model.core.FillUniform(rng);
  }
  model.core_list = CoreEntryList(model.core);
  return model;
}

PTuckerResult RunAls(const SparseTensor& x, const PTuckerOptions& options,
                     const AlsBackendFactory& make_backend) {
  ValidateAlsInputs(x, options);
  MemoryTracker* tracker = options.tracker;
  Stopwatch total_clock;

  const int threads = options.num_threads > 0 ? options.num_threads
                                              : omp_get_max_threads();
  OmpEnvironmentGuard omp_guard(threads, options.scheduling);

  AlsModel model = InitAlsModel(x, options);
  const std::unique_ptr<AlsBackend> backend = make_backend(&model);

  // Intermediate data of the default variant: per-thread B, c, δ and the
  // solved row (J²+3J) — the O(T J²) of Theorem 4. (The truncation
  // scorer charges its own scratch — sorted order, dense core, per-thread
  // contraction buffers, lane partials — inside ComputePartialErrors.)
  const std::int64_t max_rank = *std::max_element(options.core_dims.begin(),
                                                  options.core_dims.end());
  const std::int64_t scratch_bytes =
      static_cast<std::int64_t>(threads) *
      static_cast<std::int64_t>(sizeof(double)) *
      (max_rank * max_rank + 3 * max_rank);
  ScopedCharge scratch_charge(tracker, scratch_bytes);

  PTuckerResult result;
  double previous_error = std::numeric_limits<double>::infinity();

  for (int iteration = 1; iteration <= options.max_iterations; ++iteration) {
    Stopwatch iteration_clock;
    PTUCKER_TRACE_SPAN("als.iteration");

    // --- Update factor matrices (Algorithm 3), mode by mode. ---
    for (std::int64_t mode = 0; mode < x.order(); ++mode) {
      PTUCKER_TRACE_SPAN("als.factor_update");
      backend->SolveMode(mode, iteration);
    }

    // --- Optional extension: re-fit the core to the observations. ---
    if (options.update_core) {
      PTUCKER_TRACE_SPAN("als.core_update");
      const std::vector<double> g = RunCoreCg(
          [&](bool residual_from_x, const std::vector<double>& input,
              double* lane_sums) {
            backend->DesignLaneSums(residual_from_x, input, iteration,
                                    lane_sums);
          },
          options.lambda, options.core_update_cg_iterations, &model.core,
          &model.core_list);
      backend->CommitCore(g, iteration);
    }

    // --- Reconstruction error (Algorithm 2 line 4, Eq. 5). ---
    const double error = [&] {
      PTUCKER_TRACE_SPAN("als.error");
      double lane_sums[kReductionLanes];
      backend->ErrorLaneSums(iteration, lane_sums);
      return std::sqrt(FoldLaneSums(lane_sums, kReductionLanes));
    }();
    if (!std::isfinite(error)) {
      throw std::runtime_error(
          "P-Tucker: iteration " + std::to_string(iteration) +
          (std::isnan(error) ? ": reconstruction error is NaN"
                             : ": reconstruction error is Inf") +
          " (a non-finite observed value or a diverged row solve)");
    }

    IterationStats stats;
    stats.iteration = iteration;
    stats.error = error;
    stats.core_nnz = model.core_list.size();
    stats.peak_intermediate_bytes =
        tracker != nullptr ? tracker->peak_bytes() : 0;

    // --- Convergence (Algorithm 2 line 7). ---
    const double change =
        std::fabs(previous_error - error) / std::max(previous_error, 1e-12);
    previous_error = error;
    const bool is_last_iteration =
        change < options.tolerance || iteration == options.max_iterations;

    // --- P-TUCKER-APPROX: drop noisy core entries (lines 5-6). The
    // truncation pays off by making *subsequent* iterations cheaper, so it
    // is skipped once no row update is left to re-fit the factors to the
    // smaller core. Its cost (dominated by R(β)) is part of the iteration
    // time, matching the paper's Fig. 9 accounting. ---
    if (options.variant == PTuckerVariant::kApprox && !is_last_iteration) {
      PTUCKER_TRACE_SPAN("als.truncate");
      const std::int64_t removed = TruncateNoisyEntries(
          x, &model.core, &model.core_list, model.factors,
          options.truncation_rate, backend->engine(), tracker);
      stats.core_nnz = model.core_list.size();
      if (options.verbose && removed > 0) {
        PTUCKER_LOG(kInfo) << "iteration " << iteration << ": truncated "
                           << removed << " core entries, |G|="
                           << model.core_list.size();
      }
    }

    stats.seconds = iteration_clock.ElapsedSeconds();
    result.iterations.push_back(stats);
    if (options.verbose) {
      PTUCKER_LOG(kInfo) << "iteration " << iteration << ": error=" << error
                         << " (" << stats.seconds << "s)";
    }
    if (change < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  // --- Orthogonalize and fold R into the core (lines 8-11). ---
  if (options.orthogonalize_output) {
    OrthogonalizeFactors(&model.factors, &model.core);
    model.core_list = CoreEntryList(model.core);
  }
  result.final_error = ReconstructionError(x, model.core_list, model.factors);
  result.model.factors = std::move(model.factors);
  result.model.core = std::move(model.core);
  result.total_seconds = total_clock.ElapsedSeconds();
  return result;
}

}  // namespace ptucker
