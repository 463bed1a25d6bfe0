#include "core/ptucker.h"

#include <memory>

#include "core/als_driver.h"
#include "core/core_update.h"
#include "core/delta.h"
#include "core/delta_engine.h"
#include "core/reconstruction.h"
#include "core/row_update.h"
#include "tensor/nmode.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace ptucker {

namespace {

// The single-process backend: every row of a mode through UpdateFactorRows
// over Ω in slice order (built once per solve) with the engine's factor
// hooks, the CG design products over all 64 reduction lanes of the
// model, and the error partials over all 64 lanes of this process's
// engine.
class LocalAlsBackend : public AlsBackend {
 public:
  LocalAlsBackend(const SparseTensor& x, const PTuckerOptions& options,
                  AlsModel* model)
      : x_(&x),
        model_(model),
        // The δ-computation engine (derived state charged inside):
        // contraction trees by default, the §III-C Pres table for
        // P-TUCKER-CACHE (kCached), or whatever options.delta_engine pins.
        engine_(MakeDeltaEngine(options.delta_engine, x, model->core_list,
                                model->factors, options.tracker)),
        // Ω in slice order, read by every row sweep of the solve. A
        // re-layout of the input, so not charged to options.tracker.
        omega_(x, engine_->UsesEntryIds()) {
    row_options_.lambda = options.lambda;
    row_options_.sample_rate = options.sample_rate;
    row_options_.seed = options.seed;
  }

  void SolveMode(std::int64_t mode, int iteration) override {
    Matrix& factor = model_->factors[static_cast<std::size_t>(mode)];
    Matrix old_factor;
    if (engine_->WantsFactorSnapshot()) old_factor = factor;
    row_options_.iteration = iteration;
    UpdateFactorRows(omega_, mode, /*rows=*/nullptr, /*num_rows=*/0, *engine_,
                     &factor, row_options_);
    engine_->OnFactorUpdated(mode, old_factor);
  }

  void DesignLaneSums(bool residual_from_x, const std::vector<double>& input,
                      int /*iteration*/, double* lane_sums) override {
    DesignLanePartials(*x_, model_->core_list, model_->factors,
                       residual_from_x, input, 0, kReductionLanes, lane_sums);
  }

  void CommitCore(const std::vector<double>& /*g*/,
                  int /*iteration*/) override {
    engine_->OnCoreValuesChanged();
  }

  void ErrorLaneSums(int /*iteration*/, double* lane_sums) override {
    SquaredResidualLaneSums(*x_, *engine_, 0, kReductionLanes, lane_sums);
  }

  DeltaEngine* engine() override { return engine_.get(); }

  /// Bytes of the solve's slice-ordered Ω.
  std::int64_t slice_layout_bytes() const { return omega_.bytes(); }

 private:
  const SparseTensor* x_;
  AlsModel* model_;
  std::unique_ptr<DeltaEngine> engine_;
  const SliceOrderedOmega omega_;
  RowUpdateOptions row_options_;
};

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
  std::int64_t slice_layout_bytes = 0;
  PTuckerResult result = RunAls(x, options, [&](AlsModel* model) {
    auto backend = std::make_unique<LocalAlsBackend>(x, options, model);
    slice_layout_bytes = backend->slice_layout_bytes();
    return backend;
  });
  result.slice_layout_bytes = slice_layout_bytes;
  return result;
}

}  // namespace ptucker
