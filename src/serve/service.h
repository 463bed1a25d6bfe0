/// \file
/// \brief The serving layer: an immutable ModelSnapshot (fitted model +
/// its mode-major DeltaEngine) behind an atomically swappable
/// shared_ptr, and a PredictionService exposing single/batched x̂
/// queries and deterministic parallel top-K recommendation. Queries in
/// flight keep the snapshot they started with alive, so ReloadSnapshot
/// is safe (and wait-free for readers) while predictions run. See
/// docs/serving.md.
#ifndef PTUCKER_SERVE_SERVICE_H_
#define PTUCKER_SERVE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/delta_engine.h"
#include "core/ptucker.h"
#include "linalg/factor_view.h"
#include "serve/snapshot_v2.h"

namespace ptucker {

/// An immutable, query-ready view of a fitted model: its factor views
/// plus the CoreEntryList and ModeMajorDeltaEngine built over them once at
/// load time, so every query amortizes the engine's lane views instead
/// of rebuilding them. Two backings share the interface:
/// Create() owns a TuckerFactorization, CreateFromFile() pins an
/// MmapSnapshot and serves the factors straight out of the mapping with
/// zero copies. Always heap-allocated behind shared_ptr — the engine
/// holds non-owning references into the snapshot, so the snapshot must
/// never move after construction, and shared ownership is what lets
/// in-flight queries outlive a hot reload.
class ModelSnapshot {
 public:
  /// Builds a query-ready snapshot over `model` (owning). The engine's
  /// derived state is charged to `tracker` when given. Throws
  /// std::invalid_argument when the factor shapes do not match the core.
  static std::shared_ptr<const ModelSnapshot> Create(
      TuckerFactorization model, MemoryTracker* tracker = nullptr);

  /// Builds a query-ready snapshot directly over the snapshot file at
  /// `path`, mmap-ed with zero factor copies (MmapSnapshot).
  /// `verify_payload` additionally checks the payload CRC — off by
  /// default so load time stays independent of model size. `tile_width`
  /// exists only for the repository benchmark (perfbench), which passes
  /// kDefaultTileWidth; it must be >= 1 and is otherwise unused. Throws
  /// std::runtime_error on open/parse failure and std::invalid_argument
  /// on a bad `tile_width`.
  static std::shared_ptr<const ModelSnapshot> CreateFromFile(
      const std::string& path, std::int64_t tile_width = kDefaultTileWidth,
      MemoryTracker* tracker = nullptr, bool verify_payload = false);

  /// The engine bound to the model (lifetime = snapshot).
  const DeltaEngine& engine() const { return *engine_; }

  /// Tensor order N.
  std::int64_t order() const {
    return static_cast<std::int64_t>(factor_views_.size());
  }
  /// Mode-`mode` dimensionality I_n (rows of factor `mode`).
  std::int64_t dim(std::int64_t mode) const {
    return factor_views_[static_cast<std::size_t>(mode)].rows();
  }
  /// Nonzero core entries |G| the snapshot serves with.
  std::int64_t core_nnz() const { return core_list_.size(); }

  /// The IVF section for `mode`, or nullptr when the snapshot carries
  /// none (owning snapshots and v2 files written without centroids).
  const IvfModeView* ivf(std::int64_t mode) const {
    return file_ != nullptr ? file_->ivf(mode) : nullptr;
  }

  /// True when the factors are served straight out of a live mmap.
  bool mapped() const { return file_ != nullptr && file_->mapped(); }

  ModelSnapshot(const ModelSnapshot&) = delete;             ///< pinned
  ModelSnapshot& operator=(const ModelSnapshot&) = delete;  ///< pinned

 private:
  ModelSnapshot() = default;

  TuckerFactorization model_;        // owning backing (Create), else empty
  std::unique_ptr<MmapSnapshot> file_;  // file backing (CreateFromFile)
  std::vector<FactorView> factor_views_;
  CoreEntryList core_list_;
  std::unique_ptr<DeltaEngine> engine_;
};

/// One top-K result: a candidate coordinate of the scanned mode and its
/// predicted value x̂.
struct ScoredIndex {
  std::int64_t index = 0;  ///< coordinate along the scanned mode
  double score = 0.0;      ///< predicted value (Eq. 4)
};

/// Serves x̂ queries against a ModelSnapshot with lock-free hot reload:
/// every query atomically grabs the current snapshot once and uses it for
/// the whole call, so a concurrent ReloadSnapshot never mixes two models
/// inside one batch and never blocks readers. All methods validate
/// coordinates against the snapshot's dims and throw
/// std::invalid_argument on a mismatch.
///
/// Determinism: PredictBatch runs PredictEntries (core/reconstruction.h),
/// one engine Reconstruct per entry, so batched results are
/// bit-identical to Predict; TopK merges per-thread candidate heaps in
/// thread order and totally orders candidates by (score desc, index
/// asc), so its result is independent of thread count.
class PredictionService {
 public:
  /// Serves `snapshot` (must be non-null).
  explicit PredictionService(std::shared_ptr<const ModelSnapshot> snapshot);

  /// Atomically swaps the served snapshot (must be non-null). Queries in
  /// flight finish on the snapshot they started with.
  void ReloadSnapshot(std::shared_ptr<const ModelSnapshot> snapshot);

  /// The snapshot queries would use right now.
  std::shared_ptr<const ModelSnapshot> snapshot() const;

  /// Single-entry prediction x̂ at `index` (Eq. 4).
  double Predict(const std::vector<std::int64_t>& index) const;

  /// Batched prediction: out[i] = x̂(indices[i]) for `count` coordinate
  /// arrays of order() entries each. Parallelized over entries;
  /// bit-identical to `count` Predict calls.
  void PredictBatch(std::int64_t count, const std::int64_t* const* indices,
                    double* out) const;

  /// Convenience overload: predictions for every entry coordinate of
  /// `queries` (values ignored), in entry order.
  std::vector<double> PredictBatch(const SparseTensor& queries) const;

  /// Top-`k` completions along `mode`: scores candidate coordinates
  /// with `index`'s mode-`mode` slot replaced (the slot's incoming
  /// value is ignored) through the engine and returns the k best
  /// ordered by (score desc, index asc). `exclude`, when given, must
  /// hold dim(mode) flags; flagged candidates are skipped (e.g. movies
  /// the user already rated). Fewer than k candidates returns them all.
  ///
  /// `nprobe` selects the candidate set. Negative (default) scans every
  /// coordinate in [0, dim(mode)) — the exact path, bit-identical at
  /// any thread count. Non-negative probes the snapshot's IVF index for
  /// `mode`: clusters are ranked by centroid · δ(mode, index) and only
  /// the members of the best `nprobe` lists are scored (0 = auto,
  /// max(1, ⌈clusters/10⌉); values above the cluster count scan all
  /// lists and return exactly the exhaustive result). Throws
  /// std::invalid_argument when `nprobe` >= 0 but the snapshot carries
  /// no IVF section for `mode` (write one with ptucker_cli
  /// convert-model or SaveSnapshotV2(..., with_centroids=true)).
  std::vector<ScoredIndex> TopK(std::int64_t mode,
                                const std::vector<std::int64_t>& index,
                                std::int64_t k,
                                const std::vector<char>* exclude = nullptr,
                                std::int64_t nprobe = -1) const;

 private:
  // The kernel both public PredictBatch overloads share; `snap` is
  // the one snapshot the caller atomically grabbed for the whole call.
  static void PredictBatchOn(const ModelSnapshot& snap, std::int64_t count,
                             const std::int64_t* const* indices, double* out);

  std::shared_ptr<const ModelSnapshot> snapshot_;  // via atomic_load/store
};

}  // namespace ptucker

#endif  // PTUCKER_SERVE_SERVICE_H_
