#include "core/ptucker.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include <omp.h>

#include "core/core_update.h"
#include "core/delta.h"
#include "core/delta_engine.h"
#include "core/orthogonalize.h"
#include "core/reconstruction.h"
#include "core/row_update.h"
#include "core/truncation.h"
#include "tensor/nmode.h"
#include "util/logging.h"
#include "util/random.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"

namespace ptucker {

namespace {

void ValidateInputs(const SparseTensor& x, const PTuckerOptions& options) {
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

double TuckerFactorization::Predict(const std::int64_t* index) const {
  return ReconstructEntry(core, factors, index);
}

double TuckerFactorization::Predict(
    const std::vector<std::int64_t>& index) const {
  PTUCKER_CHECK(static_cast<std::int64_t>(index.size()) == core.order());
  return Predict(index.data());
}

double PTuckerResult::SecondsPerIteration() const {
  if (iterations.empty()) return 0.0;
  double total = 0.0;
  for (const auto& stats : iterations) total += stats.seconds;
  return total / static_cast<double>(iterations.size());
}

PTuckerResult PTuckerDecompose(const SparseTensor& x,
                               const PTuckerOptions& options) {
  ValidateInputs(x, options);
  const std::int64_t order = x.order();
  MemoryTracker* tracker = options.tracker;
  Stopwatch total_clock;

  const int threads = options.num_threads > 0 ? options.num_threads
                                              : omp_get_max_threads();
  OmpEnvironmentGuard omp_guard(threads, options.scheduling);

  // --- Initialization (Algorithm 2 line 1): Uniform[0, 1), or the
  // factors/core of options.init_snapshot when warm-starting from a
  // checkpoint (shapes validated above). ---
  Rng rng(options.seed);
  std::vector<Matrix> factors;
  factors.reserve(static_cast<std::size_t>(order));
  std::int64_t max_rank = 1;
  for (std::int64_t n = 0; n < order; ++n) {
    const std::int64_t rank = options.core_dims[static_cast<std::size_t>(n)];
    if (options.init_snapshot != nullptr) {
      factors.push_back(
          options.init_snapshot->factors[static_cast<std::size_t>(n)]);
    } else {
      Matrix factor(x.dim(n), rank);
      factor.FillUniform(rng);
      factors.push_back(std::move(factor));
    }
    max_rank = std::max(max_rank, rank);
  }
  DenseTensor core(options.core_dims);
  if (options.init_snapshot != nullptr) {
    core = options.init_snapshot->core;
  } else {
    core.FillUniform(rng);
  }
  CoreEntryList core_list(core);

  // The δ-computation engine (derived state charged inside): mode-major
  // views by default, the §III-C Pres table for P-TUCKER-CACHE, or
  // whatever options.delta_engine pins explicitly.
  std::unique_ptr<DeltaEngine> engine = MakeDeltaEngine(
      ResolveDeltaEngineChoice(options), x, core_list, factors, tracker);

  // Intermediate data of the default variant: per-thread B, c, δ and the
  // solved row (J²+3J) — the O(T J²) of Theorem 4. (The truncation
  // scorer's |G| products scratch is charged inside ComputePartialErrors,
  // where |G| is current.)
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

    // --- Update factor matrices (Algorithm 3), every row of every mode
    // through the shared row-subset entry point (row_update.h). ---
    RowUpdateOptions row_options;
    row_options.lambda = options.lambda;
    row_options.sample_rate = options.sample_rate;
    row_options.seed = options.seed;
    row_options.iteration = iteration;
    for (std::int64_t mode = 0; mode < order; ++mode) {
      PTUCKER_TRACE_SPAN("als.factor_update");
      Matrix old_factor;
      if (engine->WantsFactorSnapshot()) {
        old_factor = factors[static_cast<std::size_t>(mode)];
      }
      UpdateFactorRows(x, mode, /*rows=*/nullptr, /*num_rows=*/0, *engine,
                       &factors[static_cast<std::size_t>(mode)], row_options);
      engine->OnFactorUpdated(mode, old_factor);
    }

    // --- Optional extension: re-fit the core to the observations. ---
    if (options.update_core) {
      PTUCKER_TRACE_SPAN("als.core_update");
      UpdateCoreTensor(x, &core, &core_list, factors, options.lambda,
                       options.core_update_cg_iterations, engine.get());
      engine->OnCoreValuesChanged();
    }

    // --- Reconstruction error (Algorithm 2 line 4, Eq. 5). ---
    const double error = [&] {
      PTUCKER_TRACE_SPAN("als.error");
      return ReconstructionError(x, *engine);
    }();

    IterationStats stats;
    stats.iteration = iteration;
    stats.error = error;
    stats.core_nnz = core_list.size();
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
          x, &core, &core_list, factors, options.truncation_rate,
          engine.get(), tracker);
      stats.core_nnz = core_list.size();
      if (options.verbose && removed > 0) {
        PTUCKER_LOG(kInfo) << "iteration " << iteration << ": truncated "
                           << removed << " core entries, |G|="
                           << core_list.size();
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
    OrthogonalizeFactors(&factors, &core);
    core_list = CoreEntryList(core);
  }
  result.final_error = ReconstructionError(x, core_list, factors);
  result.model.factors = std::move(factors);
  result.model.core = std::move(core);
  result.total_seconds = total_clock.ElapsedSeconds();
  return result;
}

}  // namespace ptucker
