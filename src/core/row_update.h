/// \file
/// \brief The row-wise ALS update (Algorithm 3, Eqs. 9-11) as a shared,
/// row-subset-capable entry point. P-Tucker's Lemma 1 makes every row of
/// a mode's factor independent of the others within that mode's update,
/// so the same kernel serves two callers: the solver sweeps every row of
/// every mode per iteration, and the streaming ingest pipeline
/// (stream/ingest_pipeline.h) re-solves only the rows touched by changed
/// Ω entries. Both produce bit-identical rows for the same (tensor,
/// core, factors) state regardless of thread count, scheduling, or
/// which other rows the call covers.
#ifndef PTUCKER_CORE_ROW_UPDATE_H_
#define PTUCKER_CORE_ROW_UPDATE_H_

#include <cstdint>

#include <omp.h>

#include "core/options.h"
#include "linalg/matrix.h"
#include "tensor/sparse_tensor.h"

namespace ptucker {

class DeltaEngine;

/// Scopes the OpenMP thread-count and schedule ICVs so a solver honors
/// its options without leaking settings to the caller. Row updates use
/// schedule(runtime); §III-D prescribes dynamic scheduling because
/// |Ω(n,in)| is skewed. The dynamic chunk is one row: a single heavy row
/// can hold a tenth of Ω, and a chunk of several rows would pin its
/// neighbours to the same thread. Instantiate one around a batch of
/// UpdateFactorRows calls (the solver wraps a whole decomposition, the
/// ingest pipeline wraps each flush).
class OmpEnvironmentGuard {
 public:
  /// Applies `num_threads` (0 keeps the ambient setting) and the runtime
  /// schedule for `scheduling`, saving the previous ICVs.
  OmpEnvironmentGuard(int num_threads, Scheduling scheduling) {
    saved_threads_ = omp_get_max_threads();
    omp_get_schedule(&saved_schedule_, &saved_chunk_);
    if (num_threads > 0) omp_set_num_threads(num_threads);
    if (scheduling == Scheduling::kDynamic) {
      omp_set_schedule(omp_sched_dynamic, 1);
    } else {
      omp_set_schedule(omp_sched_static, 0);
    }
  }
  /// Restores the saved thread-count and schedule ICVs.
  ~OmpEnvironmentGuard() {
    omp_set_num_threads(saved_threads_);
    omp_set_schedule(saved_schedule_, saved_chunk_);
  }

  OmpEnvironmentGuard(const OmpEnvironmentGuard&) = delete;  ///< RAII only
  OmpEnvironmentGuard& operator=(const OmpEnvironmentGuard&) =
      delete;  ///< RAII only

 private:
  int saved_threads_;
  omp_sched_t saved_schedule_;
  int saved_chunk_;
};

/// Knobs of one UpdateFactorRows call — the subset of PTuckerOptions the
/// row update actually consumes.
struct RowUpdateOptions {
  /// L2 regularization λ of Eq. 6 (added to B's diagonal before the
  /// solve). Must be >= 0.
  double lambda = 0.01;

  /// Bernoulli subsample rate over each row's slice Ω(n,in) (the
  /// sampling extension; see PTuckerOptions::sample_rate). 1.0 (the
  /// default) uses every observed entry — the exact paper update.
  double sample_rate = 1.0;

  /// Base seed of the per-row subsample streams (unused at
  /// sample_rate = 1).
  std::uint64_t seed = 0;

  /// Iteration counter keying the subsample streams (unused at
  /// sample_rate = 1).
  int iteration = 1;
};

/// Re-solves factor rows of `mode` against the current (core, factors)
/// state seen through `engine`: for each requested row, accumulates the
/// Eq. 10/11 normal equations over the row's slice Ω(mode, in), one
/// DeltaEngine::ComputeDelta per entry in slice order, and solves Eq. 9
/// (Cholesky with an LU fallback), writing the row into `factor`.
///
/// `rows` selects the subset: `num_rows` row indices (each in
/// [0, x.dim(mode)), duplicates allowed but wasteful), or nullptr to
/// update every row of the mode (the full Algorithm 3 sweep; `num_rows`
/// is then ignored). A row whose slice is empty is set to zero (the
/// regularized minimum).
///
/// The caller owns the engine lifecycle hooks: snapshot the factor
/// first when `engine.WantsFactorSnapshot()` and fire
/// `OnFactorUpdated(mode, old)` after this returns, exactly like the
/// solver loop. The OpenMP environment is taken as-is — wrap calls in
/// an OmpEnvironmentGuard to pin threads/scheduling.
///
/// Rows are independent within a mode (Lemma 1), so the parallel loop
/// is bit-deterministic: the same state and row set produce identical
/// factor rows at every thread count.
void UpdateFactorRows(const SparseTensor& x, std::int64_t mode,
                      const std::int64_t* rows, std::int64_t num_rows,
                      const DeltaEngine& engine, Matrix* factor,
                      const RowUpdateOptions& options);

}  // namespace ptucker

#endif  // PTUCKER_CORE_ROW_UPDATE_H_
