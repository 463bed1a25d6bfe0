/// \file
/// \brief The row-wise ALS update (Algorithm 3, Eqs. 9-11) as a shared,
/// row-subset-capable entry point. P-Tucker's Lemma 1 makes every row of
/// a mode's factor independent of the others within that mode's update,
/// so the same kernel serves three callers: the solver sweeps every row of
/// every mode per iteration, the streaming ingest pipeline
/// (stream/ingest_pipeline.h) re-solves only the rows touched by changed
/// Ω entries, and each distributed worker solves the row block it owns.
///
/// **What the kernel reads.** Row i of A(n) depends on Ω(n, i) alone.
/// The kernel reads that slice as records, in ascending entry id: the
/// coordinates, the value and, only for an engine whose
/// DeltaEngine::UsesEntryIds() is true, the entry id. It stages the kept
/// records (their int64 coordinates, entry ids and values) in runs of up
/// to DeltaEngine::kDeltaChunk (64): one DeltaEngine::DeltaBatch
/// call computes a run's δ, then the run is folded into B += δδᵀ (Eq. 10)
/// and c += x·δ (Eq. 11) in record order, with the additions and the
/// bits of the per-record SymmetricRank1Update and Axpy. Then it solves
/// Eq. 9.
///
/// **How the rows are shared out.** Rows are independent (Lemma 1), so
/// the threads take them in blocks of consecutive rows under
/// schedule(runtime). A block closes once it holds at least
/// min(4·kDeltaChunk, ⌈R/(8T)⌉) records, R the records of the rows being
/// solved and T the thread count: a heavy row forms a block of its own,
/// light rows share one grab of the dynamic schedule's counter, and a
/// small subset still gives every thread about 8 blocks. Under a static
/// runtime schedule every block is one row, the paper's naive split.
///
/// **Two routes to the records.** The solver builds a SliceOrderedOmega
/// once per solve: every mode's records, stored in slice order, which
/// every sweep then reads front to back. A distributed worker builds one
/// over its own row block of each mode, so it holds its share of the
/// layout and not a copy of all of it. The SparseTensor overload of
/// UpdateFactorRows serves the other callers: the ingest pipeline, whose
/// Ω changes between flushes and which re-solves few rows, and
/// perfbench's traced solve. The layout's records hold the
/// other modes' coordinates as int32, which the kernel widens to int64 as
/// it stages them; the SparseTensor route reads each entry's int64
/// coordinates and value in place, through the mode index, and
/// prefetches the coordinates as it stages them. Both routes
/// hand the kernel the same records in the same order, so they
/// produce the same rows bit for bit, whatever the thread count, the
/// schedule or the other rows of the call.
#ifndef PTUCKER_CORE_ROW_UPDATE_H_
#define PTUCKER_CORE_ROW_UPDATE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include <omp.h>

#include "core/options.h"
#include "linalg/matrix.h"
#include "tensor/sparse_tensor.h"

namespace ptucker {

class DeltaEngine;

/// Scopes the OpenMP thread-count and schedule ICVs so a solver honors
/// its options without leaking settings to the caller. Row updates use
/// schedule(runtime); §III-D prescribes dynamic scheduling because
/// |Ω(n,in)| is skewed. The dynamic chunk is one block of rows, sized by
/// its records (see the file comment): a single heavy row, which can hold
/// a tenth of Ω, is a block of its own, and light rows are grabbed
/// together so they do not pay one grab each. Instantiate one around a
/// batch of UpdateFactorRows calls (the solver wraps a whole
/// decomposition, the ingest pipeline wraps each flush).
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

/// Solves Eq. 9's normal equations `b_plus_lambda` · row = `c` for the
/// `rank` entries of `row`: Cholesky first (B + λI is SPD for λ > 0,
/// Theorem 1), then LU, which covers λ = 0 with a rank-deficient B, and
/// as a last resort a zeroed row. The row-solve policy of every row-wise
/// ALS solve (P-Tucker's and CP-ALS's).
void SolveRow(const Matrix& b_plus_lambda, const double* c, double* row,
              std::int64_t rank);

/// Bytes of the row kernel's per-thread scratch over `threads` threads,
/// for a tensor of order `order` and factors of at most `max_rank`
/// columns: B and c, and one chunk of DeltaEngine::kDeltaChunk staged
/// records with their int64 coordinates (written only on the
/// SliceOrderedOmega route), coordinate pointers, entry ids, values and
/// δ. The solver charges it as Theorem 4's O(T·J²) intermediate data.
std::int64_t RowUpdateScratchBytes(int threads, std::int64_t order,
                                   std::int64_t max_rank);

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

/// The records of one slice Ω(n, i), in ascending entry id. Record r has
/// the coordinates `coords[r·(N−1) .. (r+1)·(N−1))` of the modes other
/// than n, in ascending mode order, and the value `values[r]`.
/// `entry_ids` is null unless the layout keeps the id column.
struct SliceRecords {
  const std::int32_t* coords = nullptr;     ///< count × (N−1) coordinates
  const double* values = nullptr;           ///< count observed values
  const std::int32_t* entry_ids = nullptr;  ///< count entry ids, or null
  std::int64_t count = 0;                   ///< |Ω(n, i)|
};

/// Ω stored once per mode in slice order: the row kernel's input for a
/// whole solve. Mode n holds its rows [row_begin(n), row_end(n)), all of
/// them unless the layout is one rank's share, with one record per
/// observed entry of those rows (see SliceRecords), grouped by the mode-n
/// coordinate with int64 slice offsets; inside a slice the records keep
/// ascending entry id, which is SparseTensor::Slice's order. The row's own
/// coordinate is the row index, so it is not stored.
///
/// The layout is O(N·|Ω|) state owned by the solve, bytes() of it. Like
/// the tensor's mode index it is a re-layout of the input, so it is not
/// intermediate data (Definition 7) and is not charged to a MemoryTracker:
/// P-Tucker's budgeted intermediate memory stays Theorem 4's O(T·J²).
/// Coordinates and entry ids are int32, so every mode dimension and |Ω|
/// must be at most INT32_MAX.
class SliceOrderedOmega {
 public:
  /// Builds the layout of `x` with one scatter pass per mode over `x` in
  /// entry order, the modes in parallel, after allocating every buffer on
  /// the calling thread. Keeps the entry-id column when `entry_ids`.
  /// Holds only the row block of each mode that rank `rank` of `workers`
  /// owns (WorkerBlockBegin). Throws std::invalid_argument, before
  /// allocating, when a dimension or |Ω| exceeds INT32_MAX, `x` has no
  /// mode index or `rank` is not in [0, workers).
  SliceOrderedOmega(const SparseTensor& x, bool entry_ids,
                    std::int64_t rank = 0, std::int64_t workers = 1);

  /// Bytes of the layout of a tensor with mode dimensions `dims` and
  /// `nnz` entries: N·nnz·(4(N−1) + 8) + 8·Σ(In + 1), plus N·nnz·4 with
  /// the entry-id column. Throws std::invalid_argument, naming the mode
  /// and its size, when a dimension exceeds INT32_MAX, and naming |Ω|
  /// when `nnz` does.
  static std::int64_t Bytes(const std::vector<std::int64_t>& dims,
                            std::int64_t nnz, bool entry_ids);

  /// Tensor order N.
  std::int64_t order() const { return static_cast<std::int64_t>(dims_.size()); }
  /// Mode dimension In (the row count of A(n)).
  std::int64_t dim(std::int64_t mode) const {
    return dims_[static_cast<std::size_t>(mode)];
  }
  /// First row of `mode` the layout holds.
  std::int64_t row_begin(std::int64_t mode) const {
    return modes_[static_cast<std::size_t>(mode)].row_begin;
  }
  /// One past the last row of `mode` the layout holds.
  std::int64_t row_end(std::int64_t mode) const {
    return modes_[static_cast<std::size_t>(mode)].row_end;
  }
  /// True when the records carry entry ids.
  bool has_entry_ids() const { return entry_ids_; }
  /// Bytes of this layout: its records plus 8·(rows + 1) offset bytes per
  /// mode. Bytes(dims, |Ω|, has_entry_ids()) when it holds every row.
  std::int64_t bytes() const { return bytes_; }

  /// The records of Ω(mode, i), for i in [row_begin(mode), row_end(mode)).
  SliceRecords Slice(std::int64_t mode, std::int64_t i) const;

 private:
  /// One mode's records, in slice order. The arrays are left
  /// uninitialized when allocated: the parallel fill writes every element.
  struct ModeRecords {
    std::int64_t row_begin = 0;               ///< first row held
    std::int64_t row_end = 0;                 ///< one past the last row held
    std::unique_ptr<std::int64_t[]> offsets;  ///< rows + 1 slice boundaries
    std::unique_ptr<std::int32_t[]> coords;   ///< records × (N−1) coordinates
    std::unique_ptr<double[]> values;         ///< record values
    std::unique_ptr<std::int32_t[]> ids;      ///< record entry ids, or null
  };

  bool entry_ids_;
  std::int64_t bytes_ = 0;
  std::vector<std::int64_t> dims_;
  std::vector<ModeRecords> modes_;
};

/// Re-solves factor rows of `mode` against the current (core, factors)
/// state seen through `engine`: for each requested row, accumulates the
/// Eq. 10/11 normal equations over the row's slice Ω(mode, in) in slice
/// order, one DeltaEngine::DeltaBatch call per run of up to kDeltaChunk
/// kept entries, and solves Eq. 9 with SolveRow, writing the row into
/// `factor`.
///
/// `rows` selects the subset: `num_rows` row indices, each in
/// [0, dim(mode)), or nullptr to update every row of the mode (the full
/// Algorithm 3 sweep; `num_rows` is then ignored). A row listed more than
/// once is solved once. A row whose slice is empty is set to zero (the
/// regularized minimum).
///
/// `omega` must be the layout of the tensor `engine` was built over, with
/// the entry-id column when `engine.UsesEntryIds()`. A row outside the
/// layout's row block of `mode`, or nullptr on a layout without every row,
/// throws std::invalid_argument naming the row and the block.
///
/// The caller owns the engine lifecycle hooks: snapshot the factor
/// first when `engine.WantsFactorSnapshot()` and fire
/// `OnFactorUpdated(mode, old)` after this returns, exactly like the
/// solver loop. The OpenMP environment is taken as-is — wrap calls in
/// an OmpEnvironmentGuard to pin threads/scheduling.
///
/// Rows are independent within a mode (Lemma 1), so the parallel loop
/// is bit-deterministic: the same state and row set produce identical
/// factor rows at every thread count, schedule and blocking. Throws
/// std::invalid_argument, naming it, when `rows` is set and `num_rows` is
/// negative.
void UpdateFactorRows(const SliceOrderedOmega& omega, std::int64_t mode,
                      const std::int64_t* rows, std::int64_t num_rows,
                      const DeltaEngine& engine, Matrix* factor,
                      const RowUpdateOptions& options);

/// The same update reading Ω straight from `x` (mode index required): the
/// kernel reads each entry of a row's slice in place, so no |Ω|-sized
/// state is built. Bit-identical to the SliceOrderedOmega
/// overload on the same tensor. Every dimension and |Ω| of `x` must be at
/// most INT32_MAX.
void UpdateFactorRows(const SparseTensor& x, std::int64_t mode,
                      const std::int64_t* rows, std::int64_t num_rows,
                      const DeltaEngine& engine, Matrix* factor,
                      const RowUpdateOptions& options);

}  // namespace ptucker

#endif  // PTUCKER_CORE_ROW_UPDATE_H_
