/// \file
/// \brief Core-tensor refit extension (the paper's future-work direction):
/// regularized least-squares update of the nonzero core values by
/// matrix-free conjugate gradients, with the design-row products streamed
/// through a DeltaEngine (DesignDot / DesignAccumulate).
#ifndef PTUCKER_CORE_CORE_UPDATE_H_
#define PTUCKER_CORE_CORE_UPDATE_H_

#include <functional>
#include <vector>

#include "core/delta.h"
#include "linalg/matrix.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"

namespace ptucker {

class DeltaEngine;

/// Extension of the paper (its future-work direction of improving the fit
/// beyond a fixed random core): re-fits the nonzero core entries to the
/// observed data by regularized least squares
///   min_g ‖x − P g‖² + λ‖g‖²,
/// where g stacks the nonzero core values and P(α, β) = Π_k A(k)(ik, jk).
///
/// Solved matrix-free with conjugate gradients on the normal equations
/// (Pᵀ P + λI) g = Pᵀ x; each CG step streams the observed entries twice,
/// so memory stays O(|Ω| + |G|) and no design matrix is materialized.
///
/// Updates `core` (values at the existing nonzero pattern) and refreshes
/// `core_list` in place. The loss (Eq. 6) never increases: CG starts from
/// the current g, so every accepted iterate is at least as good.
///
/// The design-row products stream through `engine` when given (else an
/// entry-major scan). The caller still owns the engine's consistency:
/// invoke OnCoreValuesChanged() after this returns, since the list's
/// values were refreshed.
void UpdateCoreTensor(const SparseTensor& x, DenseTensor* core,
                      CoreEntryList* core_list,
                      const std::vector<Matrix>& factors, double lambda,
                      int cg_iterations, const DeltaEngine* engine = nullptr);

/// Fills the kReductionLanes × |input| per-lane partials of a design
/// product, laid out like DesignLanePartials over every lane: of
/// Pᵀ(x − P·input) when `residual_from_x`, else of Pᵀ(P·input). The
/// single-process solver computes all lanes itself; the distributed
/// coordinator gathers them from its workers. RunCoreCg folds them in
/// lane order either way, so CG sees bit-identical vectors.
using DesignLaneFill =
    std::function<void(bool residual_from_x, const std::vector<double>& input,
                       double* lane_sums)>;

/// The conjugate-gradient loop of UpdateCoreTensor, extracted so the
/// single-process and multi-process solvers run the exact same control
/// flow and scalar arithmetic (step counts, curvature guard, stopping
/// threshold max(ρ₀·1e-16, 1e-28)) over any DesignLaneFill. Starts
/// from the values of `core_list` (warm start), stores the final iterate
/// into `core` and `core_list` (StoreCoreValues) and returns it; with no
/// core entries or no CG steps it changes nothing.
std::vector<double> RunCoreCg(const DesignLaneFill& fill_lanes, double lambda,
                              int cg_iterations, DenseTensor* core,
                              CoreEntryList* core_list);

/// Per-lane partials of a design-transposed product over the fixed
/// reduction-lane partition of the entry range [0, x.nnz()): for each
/// lane l in [lane_begin, lane_end), accumulates (in entry order)
/// Pᵀ diag-free contributions of y_e = x_e − (P·input)_e when
/// `residual_from_x`, else y_e = (P·input)_e, into the |G|-wide slot
/// `lane_sums + (l − lane_begin)·|G|`. Folding all lanes in lane order
/// reproduces the single-process product bit for bit, which is how a
/// distributed worker's gathered partials stay exact (the worker ships
/// raw lane partials, never a locally pre-folded sum).
void DesignLanePartials(const SparseTensor& x, const DeltaEngine& engine,
                        bool residual_from_x, const std::vector<double>& input,
                        std::int64_t lane_begin, std::int64_t lane_end,
                        double* lane_sums);

/// Writes the solved stacked values `g` back into `core` through the
/// list's nonzero pattern and refreshes `core_list` from the new core.
/// The engine-consistency contract of UpdateCoreTensor applies: call
/// OnCoreValuesChanged() on any engine holding the list.
void StoreCoreValues(const std::vector<double>& g, DenseTensor* core,
                     CoreEntryList* core_list);

}  // namespace ptucker

#endif  // PTUCKER_CORE_CORE_UPDATE_H_
