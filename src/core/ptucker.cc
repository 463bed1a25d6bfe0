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
// with the engine's factor hooks, and the CG design products and error
// partials over all 64 reduction lanes of this process's engine.
class LocalAlsBackend : public AlsBackend {
 public:
  LocalAlsBackend(const SparseTensor& x, const PTuckerOptions& options,
                  AlsModel* model)
      : x_(&x),
        model_(model),
        // The δ-computation engine (derived state charged inside):
        // mode-major views by default, the §III-C Pres table for
        // P-TUCKER-CACHE, or whatever options.delta_engine pins.
        engine_(MakeDeltaEngine(ResolveDeltaEngineChoice(options), x,
                                model->core_list, model->factors,
                                options.tracker)) {
    row_options_.lambda = options.lambda;
    row_options_.sample_rate = options.sample_rate;
    row_options_.seed = options.seed;
  }

  void SolveMode(std::int64_t mode, int iteration) override {
    Matrix& factor = model_->factors[static_cast<std::size_t>(mode)];
    Matrix old_factor;
    if (engine_->WantsFactorSnapshot()) old_factor = factor;
    row_options_.iteration = iteration;
    UpdateFactorRows(*x_, mode, /*rows=*/nullptr, /*num_rows=*/0, *engine_,
                     &factor, row_options_);
    engine_->OnFactorUpdated(mode, old_factor);
  }

  void DesignLaneSums(bool residual_from_x, const std::vector<double>& input,
                      int /*iteration*/, double* lane_sums) override {
    DesignLanePartials(*x_, *engine_, residual_from_x, input, 0,
                       kReductionLanes, lane_sums);
  }

  void CommitCore(const std::vector<double>& /*g*/,
                  int /*iteration*/) override {
    engine_->OnCoreValuesChanged();
  }

  void ErrorLaneSums(int /*iteration*/, double* lane_sums) override {
    SquaredResidualLaneSums(*x_, *engine_, 0, kReductionLanes, lane_sums);
  }

  DeltaEngine* engine() override { return engine_.get(); }

 private:
  const SparseTensor* x_;
  AlsModel* model_;
  std::unique_ptr<DeltaEngine> engine_;
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
  return RunAls(x, options, [&](AlsModel* model) {
    return std::make_unique<LocalAlsBackend>(x, options, model);
  });
}

}  // namespace ptucker
