/// \file
/// \brief The pluggable δ-computation layer: every δ(n,α) (Eq. 12) and
/// x̂_α (Eq. 4) in the solvers flows through a DeltaEngine, selected by
/// PTuckerOptions::delta_engine. See docs/architecture.md for the layer
/// overview and the walkthrough for adding an engine.
#ifndef PTUCKER_CORE_DELTA_ENGINE_H_
#define PTUCKER_CORE_DELTA_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/delta.h"
#include "core/options.h"
#include "linalg/factor_view.h"
#include "linalg/matrix.h"
#include "tensor/csf.h"
#include "tensor/sparse_tensor.h"
#include "util/memory_tracker.h"
#include "util/span.h"

namespace ptucker {

/// Owns every δ(n,α) (Eq. 12) and x̂_α (Eq. 4) computation of the solvers.
///
/// The β-scan over the nonzero core entries is the hottest loop in the
/// library — P-Tucker's row update is O(|Ω|·N·|G|·N) around it — and the
/// paper offers two layouts for it (the entry-major list of Algorithm 3
/// and the Pres cache table of §III-C). This interface makes the layout
/// pluggable so callers never special-case it:
///
///   - NaiveDeltaEngine     entry-major scan; the correctness oracle.
///   - ModeMajorDeltaEngine per-mode lane-interleaved core views; every δ
///                          component of an entry in one pass,
///                          bit-identical to naive. Serving's kernel.
///   - CachedDeltaEngine    the §III-C Pres table behind the same calls.
///   - ContractionDeltaEngine core trees with memoized short modes; the
///                          solvers' default (reassociated sums).
///
/// Engines hold a non-owning view of the core entry list and non-owning
/// FactorViews of the factor storage; both referents must outlive the
/// engine. Construction from owning `std::vector<Matrix>` converts to
/// views, so the training path is unchanged; the serving plane constructs
/// from FactorViews directly (e.g. over an mmap-ed snapshot) with zero
/// copies. Factor *values* of the mode being solved may change in place
/// (row-wise ALS does); every finished factor update and every change to
/// the core list must be announced through the On* hooks so engines with
/// derived state (lane views, the Pres table, the contraction
/// engine's memo arrays) stay consistent.
///
/// The row kernel computes δ through DeltaBatch, one call per chunk of up
/// to kDeltaChunk records; the residual sums reconstruct through
/// ReconstructBatch; every other consumer calls the per-entry kernels
/// (ComputeDelta, Reconstruct).
/// The core refit's design products need no δ and are not engine
/// operations: they are one entry-major scan (DesignLanePartials in
/// core/core_update.h) under every engine. Adding another engine means
/// subclassing DeltaEngine, overriding ComputeDelta (plus DeltaBatch and
/// Reconstruct if worth specializing), handling the three hooks, and
/// wiring a new enumerator through DeltaEngineChoice +
/// DeltaEngineCatalog() + MakeDeltaEngine. See docs/architecture.md and
/// docs/delta_engines.md for the full walkthrough.
class DeltaEngine {
 public:
  /// Binds the engine to a (non-owning) view of the core entry list and
  /// views of the owning factor matrices; both must outlive the engine.
  DeltaEngine(const CoreEntryList& core, const std::vector<Matrix>& factors)
      : core_(&core), factors_(MakeFactorViews(factors)) {}

  /// Binds the engine directly to factor views (serving plane); the core
  /// list and the storage behind the views must outlive the engine.
  DeltaEngine(const CoreEntryList& core, std::vector<FactorView> factors)
      : core_(&core), factors_(std::move(factors)) {}
  virtual ~DeltaEngine() = default;  ///< Engines own only derived state.

  DeltaEngine(const DeltaEngine&) = delete;             ///< non-copyable
  DeltaEngine& operator=(const DeltaEngine&) = delete;  ///< non-copyable

  /// Highest supported tensor order: it sizes the stack-resident per-mode
  /// arrays of the engines' hot kernels and of the row kernel.
  static constexpr std::int64_t kMaxOrder = 32;

  /// Canonical catalog name (the `--delta-engine` token).
  virtual const char* name() const = 0;

  /// δ(n,α) of Eq. 12 for the entry with coordinates `entry_index`:
  /// delta[j] = Σ_{β∈G, βn=j} G_β Π_{k≠n} A(k)(ik, jk). `delta` holds
  /// Jn = factors[mode].cols() doubles (overwritten). `entry` is the
  /// observed-entry id in the tensor the engine was created over, or a
  /// negative value for coordinates outside it. Engines whose
  /// UsesEntryIds() is false ignore it, and callers may pass −1 to them.
  virtual void ComputeDelta(std::int64_t entry,
                            const std::int64_t* entry_index, std::int64_t mode,
                            double* delta) const = 0;

  /// Entries per DeltaBatch call in the row kernel (core/row_update.h):
  /// it stages up to this many kept records of a slice, then computes
  /// their δ in one call.
  static constexpr std::int64_t kDeltaChunk = 64;

  /// `count` ComputeDelta calls against the same mode, written
  /// contiguously (`deltas[i·Jn .. (i+1)·Jn)` belongs to entry i), bit
  /// for bit. `entries[i]` and `entry_indices[i]` follow the ComputeDelta
  /// conventions. The row kernel calls it once per chunk of a slice's
  /// records. The default is the per-entry loop; an engine overrides it
  /// to pay its per-call set-up once per batch.
  virtual void DeltaBatch(std::int64_t count, const std::int64_t* entries,
                          const std::int64_t* const* entry_indices,
                          std::int64_t mode, double* deltas) const;

  /// kDeltaChunk for every engine: the batch size the row kernel uses,
  /// and the tile size of perfbench's separate δ sweep.
  std::int64_t PreferredBatch() const { return kDeltaChunk; }

  /// Full reconstruction x̂_α (Eq. 4) at arbitrary coordinates.
  virtual double Reconstruct(const std::int64_t* entry_index) const;

  /// out[i] = Reconstruct(indices[i]) for `count` coordinate arrays, bit
  /// for bit. The default calls Reconstruct per entry; the engines whose
  /// Reconstruct is the entry-major list scan run the batched
  /// ReconstructFromList instead, and the contraction engine computes δ
  /// through DeltaBatch, kDeltaChunk entries per call.
  virtual void ReconstructBatch(std::int64_t count,
                                const std::int64_t* const* indices,
                                double* out) const;

  /// True when OnFactorUpdated needs the pre-update factor values; callers
  /// then snapshot the factor before running the mode's row updates.
  virtual bool WantsFactorSnapshot() const { return false; }

  /// True when ComputeDelta reads its `entry` argument, i.e. the engine
  /// keys derived state by observed-entry id. The solver's slice-ordered
  /// Ω (core/row_update.h) keeps an entry-id column only for such engines.
  virtual bool UsesEntryIds() const { return false; }

  /// Mode `mode`'s factor rows were rewritten (Algorithm 3 finished the
  /// mode). `old_factor` holds the pre-update values when
  /// WantsFactorSnapshot() is true, and may be empty otherwise.
  virtual void OnFactorUpdated(std::int64_t mode, const Matrix& old_factor);

  /// CoreEntryList::RefreshValues ran (same sparsity pattern, new values).
  virtual void OnCoreValuesChanged() {}

  /// CoreEntryList::Remove ran with `removed` flagging the *old* entry
  /// ids; the list is already compacted.
  virtual void OnCoreEntriesRemoved(const std::vector<char>& removed);

  /// Bytes of engine-owned derived state, as charged to the tracker (0
  /// for the naive engine). Each stateful engine holds its charge in one
  /// ScopedCharge member and returns its bytes().
  virtual std::int64_t ByteSize() const { return 0; }

 protected:
  /// The core entry list the engine was bound to (non-owning).
  const CoreEntryList& core() const { return *core_; }
  /// Views of the factor matrices the engine was bound to (non-owning).
  const std::vector<FactorView>& factors() const { return factors_; }

 private:
  const CoreEntryList* core_;
  std::vector<FactorView> factors_;
};

/// Entry-major scan of the core list — exactly the free functions
/// ComputeDelta / ReconstructFromList behind the engine interface. No
/// derived state, so every hook is a no-op. Kept as the oracle the other
/// engines are tested against.
class NaiveDeltaEngine final : public DeltaEngine {
 public:
  using DeltaEngine::DeltaEngine;

  const char* name() const override { return "naive"; }

  void ComputeDelta(std::int64_t entry, const std::int64_t* entry_index,
                    std::int64_t mode, double* delta) const override;
  void ReconstructBatch(std::int64_t count, const std::int64_t* const* indices,
                        double* out) const override;
};

/// Mode-major layout: one lane view per mode that interleaves the core
/// entries' β_n groups, with the mode-n column factored out into the lane.
///
/// ComputeDelta and Reconstruct run on the lane view: each row is one
/// non-mode tuple (β_k, k≠n) carrying Jn lane values (lane j = G_β of
/// group j, or 0.0 where group j lacks the tuple), so one pass gathers the
/// N−1 factor values once per row and advances all Jn per-group sums side
/// by side. Lane j adds exactly group j's terms in group order, with the
/// same multiply order as the naive scan, plus exact ±0 padding terms
/// that never change a sum started at +0 — so δ is bit-identical to the
/// naive scan whenever the factor values are finite.
///
/// The lane views cost Θ(Σ_n U_n·(N−1+2·Jn)) 4-byte words, where U_n ≤ |G|
/// is the lane row count (|G|/Jn for a dense core), charged to the tracker
/// before allocation for the engine's lifetime. The groups come from a
/// stable regroup of the list ids by β_n, build scratch that lives only
/// through one mode's merge and is not charged. Both core hooks rebuild
/// every lane view from the list: the regroup is stable and RefreshValues
/// and Remove keep list order, so a rebuilt lane view adds the same terms
/// in the same order as before the change.
class ModeMajorDeltaEngine final : public DeltaEngine {
 public:
  /// Charges the lane bytes to `tracker` (throws OutOfMemoryBudget when
  /// over budget) before building. Throws std::invalid_argument when the
  /// order is outside [1, kMaxOrder].
  ModeMajorDeltaEngine(const CoreEntryList& core,
                       const std::vector<Matrix>& factors,
                       MemoryTracker* tracker);

  /// Same, bound directly to factor views (serving plane).
  ModeMajorDeltaEngine(const CoreEntryList& core,
                       std::vector<FactorView> factors,
                       MemoryTracker* tracker);

  const char* name() const override { return "modemajor"; }

  void ComputeDelta(std::int64_t entry, const std::int64_t* entry_index,
                    std::int64_t mode, double* delta) const override;
  double Reconstruct(const std::int64_t* entry_index) const override;

  void OnCoreValuesChanged() override;
  void OnCoreEntriesRemoved(const std::vector<char>& removed) override;

  std::int64_t ByteSize() const override { return charge_.bytes(); }

 private:
  /// Lanes Reconstruct sums per pass over a lane view (sizes its stack
  /// accumulators); a mode-0 rank above it takes several passes.
  static constexpr std::int64_t kLaneBlock = 64;

  /// Mode n's β_n groups interleaved by non-mode tuple. Built by merging
  /// the Jn groups by their heads: emit the smallest head tuple and
  /// advance every group whose head equals it, so each group's entries
  /// keep list order for any CoreEntryList order.
  struct LaneView {
    std::int64_t rows = 0;           ///< U merged tuples
    std::vector<std::int32_t> cols;  ///< U × (N−1) β_k for k≠n, k asc.
    std::vector<double> values;      ///< U × Jn lane values, 0.0 padding
  };

  /// Merges every lane view from the core list, charging the lane bytes
  /// before allocating any lane (a list whose groups are not sorted can
  /// merge into more rows after a removal, so even the removal hook may
  /// throw OutOfMemoryBudget).
  void BuildLanes();
  /// Merges mode `mode`'s β_n groups into lane rows (see LaneView) and
  /// returns the row count; with `lanes` null it only counts.
  std::int64_t MergeGroups(std::int64_t mode, LaneView* lanes) const;
  /// acc[j] = Σ_u ((v[u][lane_begin + j]·p0)·p1)·… for the `lane_count`
  /// lanes starting at `lane_begin` of mode `mode`'s lane view.
  void LaneSums(const std::int64_t* entry_index, std::int64_t mode,
                std::int64_t lane_begin, std::int64_t lane_count,
                double* acc) const;

  ScopedCharge charge_;  // the lane bytes
  std::vector<LaneView> lanes_;
};

/// P-TUCKER-CACHE (§III-C; Algorithm 3 lines 1-4 and 16-19): the Pres
/// table Pres[α][β] = G_β · Π_{k=1..N} A(k)(ik, βk) for every observed
/// entry α of `x` and every core list entry β, one |Ω|×|G| row-major array.
///
/// δ divides the cached full product by the mode-n coefficient,
/// δ(βn) += Pres[α][β] / A(n)(in, βn) in list order — O(1) per pair
/// instead of O(N). A zero coefficient recomputes the N−1 term product
/// instead, as the paper specifies. OnFactorUpdated rescales every row by
/// a_new/a_old after a mode's rows change (Algorithm 3 lines 16-19; a
/// zero a_old recomputes the product). Both core hooks rebuild the table,
/// which is keyed by the list. Reconstruction, and δ at coordinates
/// outside `x` (entry < 0), fall back to the entry-major scan — the
/// table's time-for-memory trade only pays in δ.
///
/// The Θ(|Ω|·|G|) doubles are charged to the tracker before they are
/// allocated, for the engine's lifetime; ByteSize() is that charge.
class CachedDeltaEngine final : public DeltaEngine {
 public:
  /// Builds the Pres table over the observed entries of `x` (charged to
  /// `tracker`; throws OutOfMemoryBudget when over budget). `x` must
  /// outlive the engine.
  CachedDeltaEngine(const SparseTensor& x, const CoreEntryList& core,
                    const std::vector<Matrix>& factors,
                    MemoryTracker* tracker);

  const char* name() const override { return "cache"; }

  void ComputeDelta(std::int64_t entry, const std::int64_t* entry_index,
                    std::int64_t mode, double* delta) const override;
  void ReconstructBatch(std::int64_t count, const std::int64_t* const* indices,
                        double* out) const override;

  bool WantsFactorSnapshot() const override { return true; }
  bool UsesEntryIds() const override { return true; }
  void OnFactorUpdated(std::int64_t mode, const Matrix& old_factor) override;
  void OnCoreValuesChanged() override;
  void OnCoreEntriesRemoved(const std::vector<char>& removed) override;

  std::int64_t ByteSize() const override { return charge_.bytes(); }

 private:
  /// Charges |Ω|·|G| doubles, frees the old table, and fills the new one
  /// from the core list and the factors (constructor, core hooks).
  void BuildTable();
  /// G_b · Π_k A(k)(entry_index[k], β_k), the factors in ascending k.
  double Product(const std::int64_t* entry_index, std::int64_t b) const;

  const SparseTensor* x_;
  ScopedCharge charge_;        // the table bytes
  std::vector<double> table_;  // |Ω| × |G|, row-major
};

/// Contraction-order δ: the core is contracted one mode at a time along a
/// tree, and the short modes are contracted once per sweep instead of once
/// per entry.
///
/// For each mode n a plan splits the other modes into a memoized set S_n
/// and the remaining modes R_n. The engine keeps one tree over the core
/// pattern projected onto R_n (a CSF of the core, levels in ascending
/// rank), with Jn-wide lanes at the leaves, and one array of leaf values
/// per short-mode tuple i_S: leaf ℓ, lane j holds
/// Σ_{β: β_R = ℓ, β_n = j} G_β Π_{k∈S_n} A(k)(i_k, β_k). ComputeDelta picks
/// the entry's array and walks the tree top-down, multiplying each node's
/// factor value into the running product once for its whole subtree.
/// With S_n = ∅ this is the plain core tree: one leaf array, the core
/// values themselves.
///
/// **The plan** is fixed from shapes alone — the factor dims and ranks,
/// |Ω| of the tensor the engine is built over, and the core pattern — and
/// never from the tracker or the thread count. S_n is the k shortest
/// other modes (ties by mode index); k minimizes the multiply-add count
/// |Ω|·(tree cost per δ) + |S_n|·(tables)·|G|·(|S_n| + 1), the second
/// term being the |S_n| leaf-array rebuilds per sweep. All memo arrays
/// (S_n ≠ ∅) together hold at most MemoCapBytes() = |Ω|·(N+1)·8 bytes,
/// the size of the observed tensor; modes claim that budget in order of
/// their saving, and a mode the budget cannot fit keeps S_n = ∅.
///
/// **Rebuilds.** The constructor and every hook rebuild the affected leaf
/// arrays whole (OnFactorUpdated(m): every mode with m ∈ S_n;
/// OnCoreValuesChanged: all; OnCoreEntriesRemoved: a new plan, trees and
/// arrays). The arrays of a mode fill in parallel, each one a serial sum
/// over the core list in list order. Nothing is patched in place, so the
/// engine's state is a pure function of (dims, |Ω|, core, factors):
/// traced and untraced runs, N workers and one process, resumed and
/// straight runs, and every thread count see bit-identical δ. The
/// contract this adds to the base class: a factor's values may change in
/// place only while that mode is being solved (row-wise ALS); any other
/// change must be announced with OnFactorUpdated before the next δ or x̂.
///
/// **Exactness: reassociated.** δ differs from the naive scan only by
/// summation order and the grouping of the N−1 products, so
/// |δ − δ_naive| ≤ 2(N + |G|)·2⁻⁵³·Σ|terms| per lane. Reconstruct is
/// Σ_j A(m)(i_m, j)·δ_m[j] on the cheapest mode m.
///
/// The trees and the leaf arrays are charged to the tracker before they
/// are allocated (OutOfMemoryBudget when over budget); ByteSize() is the
/// whole charge.
class ContractionDeltaEngine final : public DeltaEngine {
 public:
  /// Plans and builds over |Ω| = x.nnz() (read once; `x` is not kept),
  /// charging `tracker` before allocating.
  ContractionDeltaEngine(const SparseTensor& x, const CoreEntryList& core,
                         const std::vector<Matrix>& factors,
                         MemoryTracker* tracker);

  const char* name() const override { return "contraction"; }

  /// DeltaBatch(1, …): one entry's δ.
  void ComputeDelta(std::int64_t entry, const std::int64_t* entry_index,
                    std::int64_t mode, double* delta) const override;
  /// Looks up the plan and the memo strides once per call, then walks the
  /// mode's tree for the whole batch (WalkContractionTree,
  /// core/contraction_walk.h): trees of depth 2-4 at Jn ≤ 4 four entries
  /// at once and at Jn ∈ {5, 6, 8} two at once. Every entry sees the same
  /// operations in the same order on every path, so δ does not depend on
  /// the batch.
  void DeltaBatch(std::int64_t count, const std::int64_t* entries,
                  const std::int64_t* const* entry_indices, std::int64_t mode,
                  double* deltas) const override;
  double Reconstruct(const std::int64_t* entry_index) const override;
  /// Reconstruct's arithmetic, bit for bit, with one DeltaBatch call on
  /// reconstruct_mode() per kDeltaChunk entries and no heap memory per
  /// entry.
  void ReconstructBatch(std::int64_t count, const std::int64_t* const* indices,
                        double* out) const override;

  void OnFactorUpdated(std::int64_t mode, const Matrix& old_factor) override;
  void OnCoreValuesChanged() override;
  void OnCoreEntriesRemoved(const std::vector<char>& removed) override;

  std::int64_t ByteSize() const override { return charge_.bytes(); }

  /// The memoized set S_n of mode `mode`, in ascending mode order.
  const std::vector<std::int64_t>& memo_modes(std::int64_t mode) const {
    return plans_[static_cast<std::size_t>(mode)].memo;
  }
  /// The mode whose δ Reconstruct folds (the cheapest tree).
  std::int64_t reconstruct_mode() const { return reconstruct_mode_; }
  /// Bytes of the memo leaf arrays (modes with S_n ≠ ∅), ≤ MemoCapBytes().
  std::int64_t MemoTableBytes() const;
  /// The memo budget for `nnz` observed entries of an order-`order`
  /// tensor: the bytes of its coordinates and values, nnz·(order+1)·8.
  static std::int64_t MemoCapBytes(std::int64_t nnz, std::int64_t order);

 private:
  /// One mode's plan and tree: the CSF tree (tensor/csf.h) of the core
  /// pattern projected on R_n, level l holding the distinct prefixes
  /// (β_{levels[0]}, …, β_{levels[l]}) in lexicographic order.
  struct ModePlan {
    std::vector<std::int64_t> memo;     ///< S_n, ascending mode index
    std::vector<std::int64_t> strides;  ///< array id = Σ i_k·strides
    std::int64_t tables = 1;            ///< Π_{k∈S_n} I_k leaf arrays
    std::vector<std::int64_t> levels;   ///< R_n, tree level order
    CsfTree tree;                       ///< over R_n; core entry → leaf
    std::int64_t leaves = 1;            ///< leaf count (1 when R_n = ∅)
    std::vector<double> values;  ///< tables × leaves × Jn leaf values
    std::int64_t madds = 0;      ///< multiply-adds per δ (the cost model)
  };

  /// Builds mode `mode`'s tree with S = `memo` (no leaf values).
  ModePlan MakeTree(std::int64_t mode,
                    const std::vector<std::int64_t>& memo) const;
  /// Chooses every mode's S_n under the memo cap and builds the trees.
  std::vector<ModePlan> MakePlans() const;
  /// Bytes of `plans` (trees plus leaf arrays, allocated or not).
  std::int64_t PlanBytes(const std::vector<ModePlan>& plans) const;
  /// Plans, charges and builds everything (constructor, core removal).
  void Rebuild();
  /// Recomputes mode `mode`'s leaf arrays from the core and the factors,
  /// the arrays in parallel (schedule(static)).
  void FillTables(std::int64_t mode);

  std::int64_t nnz_;
  ScopedCharge charge_;  // the trees and the leaf arrays
  std::vector<ModePlan> plans_;
  std::int64_t reconstruct_mode_ = 0;
};

/// One row of the engine name table: the enumerator, its CLI token and a
/// one-line summary. The CLI parser and its --help text are both
/// generated from this table, so the accepted spellings and the
/// documentation cannot drift apart.
struct DeltaEngineDescriptor {
  DeltaEngineChoice choice;
  const char* name;     ///< the --delta-engine token
  const char* summary;  ///< one-line help text
};

/// The authoritative list of selectable engines, in help-display order
/// (the default, kContraction, last). Every DeltaEngineChoice enumerator
/// has exactly one row.
Span<const DeltaEngineDescriptor> DeltaEngineCatalog();

/// Catalog row whose name equals `name`, or nullptr if unknown.
const DeltaEngineDescriptor* FindDeltaEngineByName(const std::string& name);

/// Canonical CLI token of `choice` (from the catalog).
const char* DeltaEngineChoiceName(DeltaEngineChoice choice);

/// Returns options.delta_engine. Exists only for the repository benchmark
/// (perfbench), which calls it; library code reads the field directly.
DeltaEngineChoice ResolveDeltaEngineChoice(const PTuckerOptions& options);

/// Builds the requested engine over `x`, `core` and `factors` (all
/// outliving the engine).
/// `x` and `tracker` may go unused depending on the engine. The last two
/// parameters exist only for the repository benchmark (perfbench), which
/// passes PTuckerOptions' fields of the same names: a nonzero
/// `adaptive_epsilon` throws std::invalid_argument (the lossy adaptive
/// engine was removed) and `tile_width` is ignored.
std::unique_ptr<DeltaEngine> MakeDeltaEngine(
    DeltaEngineChoice choice, const SparseTensor& x, const CoreEntryList& core,
    const std::vector<Matrix>& factors, MemoryTracker* tracker,
    double adaptive_epsilon = 0.0, std::int64_t tile_width = kDefaultTileWidth);

}  // namespace ptucker

#endif  // PTUCKER_CORE_DELTA_ENGINE_H_
