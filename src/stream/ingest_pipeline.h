/// \file
/// \brief The streaming ingest pipeline: online append/update/delete of
/// Ω entries with touched-row re-solves, continuous snapshot-v2
/// checkpoints, and atomic hot swap into a live PredictionService.
///
/// P-Tucker's Lemma 1 makes factor rows independent within a mode, so a
/// changed entry at coordinate (i1..iN) only invalidates row i_n of each
/// factor A(n) — the pipeline buffers mutations, applies them to Ω in
/// arrival order, and re-solves exactly those rows through the shared
/// batched row update (core/row_update.h). Every flush is deterministic:
/// the resulting factors depend only on (initial state, event prefix,
/// options), never on thread count or flush timing, which is what makes
/// crash recovery bit-exact (replay the tail from the last durable
/// checkpoint and land on the same factors). See docs/streaming.md.
#ifndef PTUCKER_STREAM_INGEST_PIPELINE_H_
#define PTUCKER_STREAM_INGEST_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/delta_engine.h"
#include "core/ptucker.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "stream/event_log.h"
#include "tensor/sparse_tensor.h"

namespace ptucker {

/// Configuration of an IngestPipeline.
struct IngestOptions {
  /// L2 regularization λ of the row re-solves (matches the solve that
  /// produced the initial model).
  double lambda = 0.01;

  /// δ-engine for the re-solves, defaulting like the solvers' to
  /// kContraction. The engine is rebuilt whenever Ω changes
  /// structurally: the Pres table is keyed by entry ids and the
  /// contraction plan by |Ω|.
  DeltaEngineChoice delta_engine = DeltaEngineChoice::kContraction;

  /// Threads of the re-solves, which are dynamically scheduled like the
  /// solvers' (§III-D), and of the mode index builds; 0 = ambient,
  /// negative throws.
  int num_threads = 0;

  /// Buffered mutations before a flush applies them and re-solves. 1
  /// flushes every mutation immediately.
  std::int64_t flush_every = 64;

  /// Applied-mutation count between automatic checkpoints; 0 disables
  /// them (Checkpoint() can still be called explicitly). Checkpoints
  /// fire when ops_applied() crosses a multiple of this, so the cadence
  /// — and therefore the recovery cadence — is a pure function of the
  /// event prefix. Keep it a multiple of flush_every so boundaries land
  /// on flushes.
  std::int64_t checkpoint_every = 0;

  /// Directory for `ckpt-<seq>.ptks` snapshot-v2 files and the MANIFEST.
  /// Empty publishes in-memory snapshots only (nothing durable).
  std::string checkpoint_dir;

  /// When set, every checkpoint is published here via atomic hot reload
  /// (from the checkpoint file when checkpoint_dir is set, else from an
  /// in-memory copy of the model).
  PredictionService* service = nullptr;

  /// Fault-injection hook for crash tests: runs after the checkpoint
  /// file and MANIFEST are durable but before the snapshot is published.
  /// Throwing from it simulates a crash in that window.
  std::function<void()> fault_hook;

  /// Memory accounting for the engine's derived state (may be null).
  MemoryTracker* tracker = nullptr;

  /// Mutation count already folded into the initial model — set when
  /// resuming from a checkpoint's MANIFEST so the checkpoint cadence
  /// continues where the crashed run left off.
  std::int64_t ops_already_applied = 0;

  /// Registry the pipeline's telemetry records into (applied-event and
  /// checkpoint counters, pending-event and publish-staleness gauges,
  /// flush-duration histogram — docs/observability.md). nullptr
  /// disables stream telemetry entirely.
  obs::MetricsRegistry* metrics_registry = nullptr;
};

/// A durable checkpoint as recorded in a checkpoint directory MANIFEST.
struct CheckpointInfo {
  std::int64_t seq = 0;          ///< checkpoint sequence number
  std::string path;              ///< the snapshot-v2 file
  std::int64_t ops_applied = 0;  ///< mutations folded in at write time
};

/// Accepts append/update/delete mutations of Ω, re-solves only the
/// touched factor rows per mode, checkpoints the model to snapshot v2,
/// and hot-swaps each checkpoint into a PredictionService. Not
/// thread-safe: mutations come from one writer thread (readers query the
/// service, which is lock-free against the swap).
///
/// Mutation semantics are strict — Append of a live coordinate,
/// Update/Delete of an unobserved one, or an Append/Update value that is
/// NaN or Inf throws std::invalid_argument and leaves the pipeline
/// unchanged (duplicate Ω coordinates would silently double-count in
/// every engine; a non-finite value would poison every re-solved row).
class IngestPipeline {
 public:
  /// Takes ownership of the tensor (the live Ω) and the model fitted to
  /// it. The tensor's coordinates must be unique; its mode index is
  /// (re)built here. Throws std::invalid_argument on shape mismatch
  /// between model and tensor or on duplicate coordinates.
  IngestPipeline(SparseTensor tensor, TuckerFactorization model,
                 IngestOptions options);
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;             ///< has refs
  IngestPipeline& operator=(const IngestPipeline&) = delete;  ///< has refs

  /// Buffers a new observation at an unobserved coordinate. `value`
  /// must be finite.
  void Append(const std::vector<std::int64_t>& index, double value);
  /// Buffers a new finite value for a live coordinate.
  void Update(const std::vector<std::int64_t>& index, double value);
  /// Buffers removal of a live coordinate from Ω.
  void Delete(const std::vector<std::int64_t>& index);
  /// Dispatches one replay-log event to Append/Update/Delete.
  void Apply(const StreamEvent& event);

  /// Applies every buffered mutation to Ω in arrival order, re-solves
  /// the touched factor rows (one sweep per mode, modes in order), and
  /// fires any checkpoint whose boundary was crossed. No-op when nothing
  /// is buffered. Called automatically when the buffer reaches
  /// flush_every.
  void Flush();

  /// Flushes, then writes the next checkpoint (file + MANIFEST when
  /// checkpoint_dir is set, durable via temp-file + rename), runs the
  /// fault hook, and publishes to the service. Automatic checkpoints
  /// number themselves ops_applied() / checkpoint_every so a resumed run
  /// continues the sequence; explicit calls take the next number.
  /// Returns the checkpoint's sequence number.
  std::int64_t Checkpoint();

  /// The live Ω (buffered mutations not yet folded in).
  const SparseTensor& tensor() const { return tensor_; }
  /// The live model (buffered mutations not yet folded in).
  const TuckerFactorization& model() const { return model_; }
  /// Mutations applied to Ω so far (including ops_already_applied).
  std::int64_t ops_applied() const { return ops_applied_; }
  /// Mutations buffered but not yet applied.
  std::int64_t pending() const {
    return static_cast<std::int64_t>(pending_.size());
  }
  /// Checkpoints written by this pipeline (not counting a resumed-from
  /// run's — but sequence numbers continue from ops_already_applied).
  std::int64_t checkpoints_written() const { return checkpoints_written_; }

 private:
  // Throws unless `index` is in bounds; returns its linearized key.
  std::int64_t KeyOf(const std::vector<std::int64_t>& index) const;
  // Queues a validated mutation; flushes once flush_every are queued.
  void Buffer(StreamOp op, const std::vector<std::int64_t>& index,
              double value, std::int64_t handle);
  // Entry id of an applied entry's handle: its rank in entry_handle_.
  std::int64_t EntryOf(std::int64_t handle) const;
  // Builds the tensor's mode index at num_threads threads.
  void BuildModeIndex();
  void RebuildEngine();
  void SolveTouchedRows(const std::vector<std::vector<std::int64_t>>& rows);
  void WriteCheckpoint(std::int64_t seq);

  SparseTensor tensor_;
  TuckerFactorization model_;
  IngestOptions options_;

  std::vector<std::int64_t> strides_;
  // Linearized coordinate → handle of every coordinate live after all
  // buffered mutations run — what Append/Update/Delete validate against.
  // A handle is a counter value handed out per append in arrival order
  // (the constructor hands entry e handle e) and never reused.
  std::unordered_map<std::int64_t, std::int64_t> handle_of_;
  std::int64_t next_handle_ = 0;
  // Handle of each applied entry id of tensor_. Strictly ascending:
  // appends take fresh handles at the end of Ω and RemoveEntries
  // compacts stably, so an entry id is the rank of its handle here.
  std::vector<std::int64_t> entry_handle_;

  // A buffered mutation and the handle of the entry it targets.
  struct PendingEvent {
    StreamEvent event;
    std::int64_t handle = 0;
  };
  std::vector<PendingEvent> pending_;
  std::int64_t ops_applied_ = 0;
  std::int64_t checkpoints_written_ = 0;
  std::int64_t next_seq_ = 0;  // last sequence number handed out

  std::unique_ptr<CoreEntryList> core_list_;
  std::unique_ptr<DeltaEngine> engine_;

  // Telemetry handles, all null when options_.metrics_registry is null
  // (every update site null-checks, so telemetry off costs one branch).
  obs::Counter* metric_events_ = nullptr;
  obs::Counter* metric_checkpoints_ = nullptr;
  obs::Gauge* metric_pending_ = nullptr;
  obs::Gauge* metric_staleness_ = nullptr;
  obs::Histogram* metric_flush_seconds_ = nullptr;
  std::int64_t ops_at_last_publish_ = 0;
};

/// Reads the MANIFEST in `dir` into `info`. Returns false when no
/// MANIFEST exists; throws std::runtime_error on a malformed one.
bool LatestCheckpoint(const std::string& dir, CheckpointInfo* info);

/// Structurally replays `events[0..count)` onto a copy of `initial`
/// (no solving): appends add, updates overwrite, deletes remove. The
/// result has its mode index built — it is the Ω a pipeline that applied
/// the same prefix holds. Throws std::invalid_argument on a mutation
/// that violates the strict semantics, std::out_of_range when count
/// exceeds events.size().
SparseTensor ReplayOmega(const SparseTensor& initial,
                         const std::vector<StreamEvent>& events,
                         std::int64_t count);

}  // namespace ptucker

#endif  // PTUCKER_STREAM_INGEST_PIPELINE_H_
