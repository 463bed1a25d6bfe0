/// \file
/// \brief RunAls, the one ALS loop behind PTuckerDecompose and
/// DistributedPTuckerDecompose (paper Algorithm 2). RunAls owns
/// everything that does not touch Ω: input validation, the seeded or
/// warm-start initialization, the iteration loop with its IterationStats
/// and line-7 convergence test, the `als.*` spans, the non-finite-error
/// stop, P-TUCKER-APPROX truncation and the lines 8–11 wrap-up. The
/// Ω-dependent work goes through an AlsBackend: LocalAlsBackend runs it
/// in this process, the frame backend (distributed/proc/dist_solver.cc)
/// ships it to worker processes, each of which runs a LocalAlsBackend over
/// its own row blocks and lanes. Both hand RunAls the same 64 reduction
/// lanes, so both produce the same trajectory bit for bit.
#ifndef PTUCKER_CORE_ALS_DRIVER_H_
#define PTUCKER_CORE_ALS_DRIVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <vector>

#include "core/core_update.h"
#include "core/delta.h"
#include "core/delta_engine.h"
#include "core/options.h"
#include "core/ptucker.h"
#include "core/reconstruction.h"
#include "core/row_update.h"
#include "linalg/matrix.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"
#include "util/parallel.h"

namespace ptucker {

/// The model state RunAls iterates on. Backends and engines keep
/// pointers into it, so it never moves while a backend is alive.
struct AlsModel {
  std::vector<Matrix> factors;  ///< A(n) ∈ R^{In×Jn}
  DenseTensor core;             ///< G ∈ R^{J1×…×JN}
  CoreEntryList core_list;      ///< the nonzeros of `core`, in list order
};

/// Algorithm 2 line 1: factors and core drawn Uniform[0, 1) from
/// options.seed (factors in mode order, then the core), or copied from
/// options.init_snapshot. Every caller that draws from the same options
/// (RunAls, each distributed worker) gets the same bits. Expects
/// validated inputs.
AlsModel InitAlsModel(const SparseTensor& x, const PTuckerOptions& options);

/// The Ω-dependent half of an ALS iteration. RunAls calls, per
/// iteration: SolveMode for every mode in order, then (with update_core)
/// DesignLaneSums inside one CG solve and CommitCore after it, then
/// ErrorLaneSums. RunAls folds every lane buffer in lane order.
/// `iteration` is the 1-based iteration number: it keys the subsample
/// streams and tags distributed frames.
class AlsBackend {
 public:
  virtual ~AlsBackend() = default;  ///< Owned by RunAls, as a base.

  /// Re-solves every row of factor `mode` of the model (Algorithm 3) and
  /// leaves the new factor in the model.
  virtual void SolveMode(std::int64_t mode, int iteration) = 0;

  /// Fills the per-lane partials of one of RunCoreCg's design products
  /// over the model's |G| core values (see DesignLaneFill).
  virtual void DesignLaneSums(bool residual_from_x,
                              const std::vector<double>& input, int iteration,
                              double* lane_sums) = 0;

  /// Publishes the core values `g` that RunAls's RunCoreCg has just
  /// stored into the model, so every derived state sees them.
  virtual void CommitCore(const std::vector<double>& g, int iteration) = 0;

  /// Fills `lane_sums[0, kReductionLanes)` with the per-lane partials of
  /// Σ (X_α − x̂_α)², exactly as SquaredResidualLaneSums lays them out.
  virtual void ErrorLaneSums(int iteration, double* lane_sums) = 0;

  /// The engine P-TUCKER-APPROX truncation scores through and notifies
  /// of removals. nullptr (the default) for a backend without a local
  /// engine; such a backend's front door must reject kApprox.
  virtual DeltaEngine* engine() { return nullptr; }
};

/// The one implementation of the Ω-dependent steps, run by rank `rank` of
/// `workers`. It owns the δ engine over `x` and the model, and a
/// SliceOrderedOmega of its own row block of each mode (WorkerBlockBegin
/// in util/parallel.h); it solves those rows and fills the reduction lanes
/// [WorkerLaneBegin(rank, W), WorkerLaneBegin(rank + 1, W)), first lane
/// first. The single process is rank 0 of 1: every row and all 64 lanes.
/// A distributed worker is rank r of W: it calls SolveOwnRows, ships its
/// rows, and calls FactorMerged once the merged factor is in the model.
class LocalAlsBackend : public AlsBackend {
 public:
  /// Builds options.delta_engine's engine (charged to options.tracker)
  /// and the row blocks' layout (a re-layout of the input, not charged).
  LocalAlsBackend(const SparseTensor& x, const PTuckerOptions& options,
                  AlsModel* model, std::int64_t rank = 0,
                  std::int64_t workers = 1)
      : x_(&x),
        model_(model),
        engine_(MakeDeltaEngine(options.delta_engine, x, model->core_list,
                                model->factors, options.tracker)),
        omega_(x, engine_->UsesEntryIds(), rank, workers),
        row_options_{options.lambda, options.sample_rate, options.seed},
        lane_begin_(WorkerLaneBegin(rank, workers)),
        lane_end_(WorkerLaneBegin(rank + 1, workers)) {}

  /// SolveOwnRows, then FactorMerged: at rank 0 of 1 the rows solved are
  /// the whole factor.
  void SolveMode(std::int64_t mode, int iteration) override {
    SolveOwnRows(mode, iteration);
    FactorMerged(mode);
  }

  /// Snapshots factor `mode` when the engine wants one, then re-solves
  /// this rank's rows of it: all of them through rows == nullptr, as
  /// PTuckerDecompose always has, or its block as a row list.
  void SolveOwnRows(std::int64_t mode, int iteration) {
    Matrix& factor = model_->factors[static_cast<std::size_t>(mode)];
    if (engine_->WantsFactorSnapshot()) old_factor_ = factor;
    row_options_.iteration = iteration;
    const std::int64_t begin = omega_.row_begin(mode);
    const std::int64_t count = omega_.row_end(mode) - begin;
    if (count == factor.rows()) {
      UpdateFactorRows(omega_, mode, /*rows=*/nullptr, /*num_rows=*/0,
                       *engine_, &factor, row_options_);
    } else if (count > 0) {  // an empty vector's data() may be null
      std::vector<std::int64_t> rows(static_cast<std::size_t>(count));
      std::iota(rows.begin(), rows.end(), begin);
      UpdateFactorRows(omega_, mode, rows.data(), count, *engine_, &factor,
                       row_options_);
    }
  }

  /// Tells the engine that factor `mode` in the model is the new one
  /// (OnFactorUpdated with SolveOwnRows' snapshot).
  void FactorMerged(std::int64_t mode) {
    engine_->OnFactorUpdated(mode, old_factor_);
    old_factor_ = Matrix();
  }

  /// DesignLanePartials over this rank's lanes.
  void DesignLaneSums(bool residual_from_x, const std::vector<double>& input,
                      int /*iteration*/, double* lane_sums) override {
    DesignLanePartials(*x_, model_->core_list, model_->factors,
                       residual_from_x, input, lane_begin_, lane_end_,
                       lane_sums);
  }

  /// Tells the engine that the model's core values changed.
  void CommitCore(const std::vector<double>& /*g*/,
                  int /*iteration*/) override {
    engine_->OnCoreValuesChanged();
  }

  /// SquaredResidualLaneSums over this rank's lanes.
  void ErrorLaneSums(int /*iteration*/, double* lane_sums) override {
    SquaredResidualLaneSums(*x_, *engine_, lane_begin_, lane_end_, lane_sums);
  }

  DeltaEngine* engine() override { return engine_.get(); }  ///< Its engine.

  /// Bytes of this rank's slice layout.
  std::int64_t slice_layout_bytes() const { return omega_.bytes(); }

 private:
  const SparseTensor* x_;
  AlsModel* model_;
  std::unique_ptr<DeltaEngine> engine_;
  const SliceOrderedOmega omega_;
  RowUpdateOptions row_options_;
  std::int64_t lane_begin_;
  std::int64_t lane_end_;
  Matrix old_factor_;  // SolveOwnRows' snapshot, until FactorMerged
};

/// Builds the backend over the freshly initialized model. Called once,
/// after validation and initialization and inside RunAls's OpenMP
/// environment.
using AlsBackendFactory =
    std::function<std::unique_ptr<AlsBackend>(AlsModel* model)>;

/// Runs P-Tucker (Algorithm 2) over the backend `make_backend` builds:
/// validates (std::invalid_argument), initializes, iterates until the
/// relative error change falls below options.tolerance or
/// options.max_iterations is reached, then wraps up. Each iteration's
/// error is √(FoldLaneSums of the backend's lanes), which is
/// ReconstructionError bit for bit. Throws std::runtime_error naming the
/// iteration when that error is NaN or Inf. The wrap-up releases the
/// backend, orthogonalizes (spans `als.orthogonalize`) and computes
/// final_error (`als.final_error`) as ReconstructionError(x, core,
/// factors) of the output model: the entry-major oracle's batched scan,
/// the same bits whichever engine ran the loop, with nothing charged to
/// options.tracker.
PTuckerResult RunAls(const SparseTensor& x, const PTuckerOptions& options,
                     const AlsBackendFactory& make_backend);

}  // namespace ptucker

#endif  // PTUCKER_CORE_ALS_DRIVER_H_
