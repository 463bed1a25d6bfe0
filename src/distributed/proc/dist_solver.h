/// \file
/// \brief The multi-process P-Tucker solver: a coordinator forks N
/// worker processes, each on its own socketpair (transport.h), owning a
/// contiguous block of factor rows per mode (PartitionRowsBlock) and a
/// contiguous subrange of the fixed reduction lanes. Workers solve their
/// rows through the shared core/row_update.h kernel and ship raw
/// per-lane reduction partials (never locally pre-folded sums); the
/// coordinator merges rows and folds lanes in fixed rank/lane order, so
/// the N-process trajectory
/// — every factor row, core value, and per-iteration error — is
/// bit-identical to the single-process PTuckerDecompose for every
/// δ-engine and every N (a tested invariant). Any protocol failure (a
/// dead worker, a corrupt or truncated frame, a timeout) aborts the
/// cluster loudly: DistError names the worker and the violation, and
/// every worker is reaped before the throw.
#ifndef PTUCKER_DISTRIBUTED_PROC_DIST_SOLVER_H_
#define PTUCKER_DISTRIBUTED_PROC_DIST_SOLVER_H_

#include <cstdint>
#include <vector>

#include "core/options.h"
#include "core/ptucker.h"
#include "distributed/proc/transport.h"
#include "tensor/sparse_tensor.h"

namespace ptucker {

/// Deterministic fault injection for the distributed solver's failure
/// tests: makes one worker misbehave at an exact (iteration, mode) point
/// of the protocol so tests can assert the coordinator's loud, specific
/// error and the clean teardown that follows.
struct DistFaultInjection {
  /// What the faulty worker does when its trigger point is reached.
  enum class Kind {
    kNone,            ///< no fault (the default)
    kKillWorker,      ///< worker dies silently instead of solving
    kCorruptFrame,    ///< worker sends a frame with a corrupted magic byte
    kTruncatedFrame,  ///< worker sends half a frame, then closes the pipe
  };
  Kind kind = Kind::kNone;  ///< what to inject
  std::int64_t rank = 0;    ///< which worker misbehaves
  int iteration = 1;        ///< at which iteration (1-based, like stats)
  std::int64_t mode = 0;    ///< at which mode's solve step
};

/// Configuration of the cluster itself (everything that is not a
/// PTuckerOptions solver knob).
struct DistOptions {
  /// Number of workers N. Must be in [1, kReductionLanes]: each worker
  /// owns a contiguous subrange of the 64 reduction lanes, so more
  /// workers than lanes cannot all contribute partials.
  std::int64_t workers = 2;

  /// Bound on every blocking receive, coordinator and worker side. A
  /// hung peer is convicted with a timeout DistError instead of
  /// deadlocking the solve. Must be >= 1.
  int recv_timeout_ms = 120000;

  /// Fault injection for failure-path tests (none by default).
  DistFaultInjection fault;
};

/// Cluster-side accounting of one distributed solve: measured wire
/// traffic.
struct DistributedStats {
  std::int64_t workers = 1;  ///< cluster size N
  int iterations_run = 0;    ///< iterations the solve completed
  /// Bytes moved across the worker sockets in total, both directions.
  std::int64_t total_comm_bytes = 0;
};

/// A distributed solve's model (bit-identical to PTuckerDecompose's)
/// and its cluster stats.
struct DistributedPTuckerResult {
  PTuckerResult result;    ///< the fitted model and trajectory
  DistributedStats stats;  ///< wire bytes
};

/// Decomposes `x` with `dist.workers` forked worker processes and
/// returns the same result a single-process PTuckerDecompose(x, options)
/// produces, bit for bit, plus cluster stats (measured wire bytes).
/// Supports the kMemory variant with options.tracker == nullptr (the
/// tracker is a process-local memory model; the approx variant changes
/// |G| mid-flight, which would need re-planning); throws
/// std::invalid_argument for unsupported options and DistError when the
/// cluster fails mid-protocol (all workers are reaped first).
DistributedPTuckerResult DistributedPTuckerDecompose(const SparseTensor& x,
                                                     const PTuckerOptions& options,
                                                     const DistOptions& dist);

}  // namespace ptucker

#endif  // PTUCKER_DISTRIBUTED_PROC_DIST_SOLVER_H_
