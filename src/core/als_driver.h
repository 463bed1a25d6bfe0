/// \file
/// \brief RunAls, the one ALS loop behind PTuckerDecompose and
/// DistributedPTuckerDecompose (paper Algorithm 2). RunAls owns
/// everything that does not touch Ω: input validation, the seeded or
/// warm-start initialization, the iteration loop with its IterationStats
/// and line-7 convergence test, the `als.*` spans, the non-finite-error
/// stop, P-TUCKER-APPROX truncation and the lines 8–11 wrap-up. The
/// Ω-dependent work goes through an AlsBackend: the local backend
/// (core/ptucker.cc) runs it in this process, the frame backend
/// (distributed/proc/dist_solver.cc) ships it to worker processes. Both
/// hand RunAls the same 64 reduction lanes, so both produce the same
/// trajectory bit for bit.
#ifndef PTUCKER_CORE_ALS_DRIVER_H_
#define PTUCKER_CORE_ALS_DRIVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/delta.h"
#include "core/options.h"
#include "core/ptucker.h"
#include "linalg/matrix.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"

namespace ptucker {

class DeltaEngine;

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
