/// \file
/// \brief Solver configuration: PTuckerOptions (Algorithm 2 inputs plus
/// environment and extension knobs) and the enums selecting the variant,
/// δ-engine, and OpenMP scheduling.
#ifndef PTUCKER_CORE_OPTIONS_H_
#define PTUCKER_CORE_OPTIONS_H_

#include <cstdint>
#include <vector>

#include "util/memory_tracker.h"

namespace ptucker {

struct TuckerFactorization;  // core/ptucker.h (which includes this header)

/// Whether the core is truncated (paper §III-C). P-TUCKER-CACHE is not a
/// variant here but a δ-engine: DeltaEngineChoice::kCached.
enum class PTuckerVariant {
  /// Default memory-optimized algorithm: O(T J²) intermediate data.
  kMemory,
  /// P-TUCKER-APPROX: truncates "noisy" core entries by partial
  /// reconstruction error after every iteration.
  kApprox,
};

/// Which DeltaEngine implementation (core/delta_engine.h) computes δ
/// (Eq. 12) and x̂ (Eq. 4) in the solver hot path. The authoritative
/// name/summary for each enumerator lives in DeltaEngineCatalog()
/// (core/delta_engine.h) — the CLI parser and its --help text are both
/// generated from that one table. See docs/architecture.md.
enum class DeltaEngineChoice {
  /// Entry-major scan of the core list — the correctness oracle.
  kNaive,
  /// Per-mode lane-interleaved core views, bit-identical to kNaive for
  /// finite factors. Serves predictions (serve/service.h).
  kModeMajor,
  /// P-TUCKER-CACHE: the §III-C Pres table of per-(entry, core-entry)
  /// products behind the engine interface; O(|Ω|·|G|) memory.
  kCached,
  /// Core trees with memoized short modes (reassociated sums) — the
  /// default hot path of the solvers and the ingest pipeline.
  kContraction,
};

/// Default of PTuckerOptions::tile_width and of the width parameters of
/// MakeDeltaEngine and ModelSnapshot::CreateFromFile. No engine batches
/// any more; the name exists only for the repository benchmark
/// (perfbench), which passes it.
inline constexpr std::int64_t kDefaultTileWidth = 16;

/// OpenMP scheduling of the row updates (paper §III-D). The paper's
/// "careful distribution of work" is dynamic scheduling; static is the
/// naive baseline it is compared against (1.5x slower on MovieLens).
enum class Scheduling {
  kDynamic,
  kStatic,
};

/// Configuration of a P-Tucker decomposition (paper Algorithm 2 inputs
/// plus environment knobs; defaults follow §IV-A3).
struct PTuckerOptions {
  /// Core tensor dimensionality J1..JN. Must match the tensor order and
  /// satisfy Jn <= In (required by the final QR orthogonalization).
  std::vector<std::int64_t> core_dims;

  /// L2 regularization λ of Eq. 6. Paper default: 0.01.
  double lambda = 0.01;

  /// Maximum ALS iterations. Paper default: 20.
  int max_iterations = 20;

  /// Convergence: stop when |err_prev - err| / max(err_prev, 1e-12) falls
  /// below this.
  double tolerance = 1e-4;

  /// Whether to truncate the core (§III-C): memory-optimized or approx.
  PTuckerVariant variant = PTuckerVariant::kMemory;

  /// δ-computation engine, the only engine selector: kCached is
  /// P-TUCKER-CACHE, kNaive pins the oracle scan for debugging.
  DeltaEngineChoice delta_engine = DeltaEngineChoice::kContraction;

  /// Exists only for the repository benchmark (perfbench), which passes
  /// it to MakeDeltaEngine. Must be 0: any other value throws
  /// std::invalid_argument, because the lossy adaptive δ-engine it once
  /// budgeted was removed.
  double adaptive_epsilon = 0.0;

  /// Exists only for the repository benchmark (perfbench), which passes
  /// it to MakeDeltaEngine. Must be >= 1 (std::invalid_argument
  /// otherwise) and is otherwise unused: no engine batches any more.
  std::int64_t tile_width = kDefaultTileWidth;

  /// Truncation rate p per iteration (P-TUCKER-APPROX only). Paper: 0.2.
  double truncation_rate = 0.2;

  /// Worker threads T; 0 uses the OpenMP default.
  int num_threads = 0;

  /// OpenMP scheduling of the row updates (§III-D); dynamic is the
  /// paper's careful distribution of work, static the naive ablation.
  Scheduling scheduling = Scheduling::kDynamic;

  /// Seed for the Uniform[0,1) initialization of factors and core.
  std::uint64_t seed = 0x5eedULL;

  /// Warm start: when non-null, factors and core are initialized from
  /// this fitted model (e.g. a checkpoint loaded with LoadSnapshot,
  /// serve/snapshot.h) instead of the Uniform[0,1) draw, so a solve can
  /// resume where a previous one stopped. The model must match the
  /// input: factor n must be I_n × core_dims[n] and the core must have
  /// shape core_dims (std::invalid_argument otherwise). The pointee is
  /// only read during initialization and is never modified; it must stay
  /// alive for the PTuckerDecompose call. Resuming a run that was
  /// checkpointed with orthogonalize_output off continues its trajectory
  /// exactly (row-wise ALS is deterministic in the state) — except under
  /// sample_rate < 1, whose per-row subsample streams are keyed by the
  /// iteration counter, which restarts on resume, so a subsampled resume
  /// is a fresh (still deterministic) draw rather than an exact
  /// continuation.
  const TuckerFactorization* init_snapshot = nullptr;

  /// Orthogonalize factors and fold R into the core when done
  /// (Algorithm 2 lines 8-11). On by default as in the paper.
  bool orthogonalize_output = true;

  /// Extension (paper future work): re-fit the core tensor to observed
  /// entries by regularized least squares after each iteration.
  bool update_core = false;

  /// Extension (the paper's future work: "applying sampling techniques on
  /// observable entries to accelerate decompositions, while sacrificing
  /// little accuracy"): each row update uses a Bernoulli(sample_rate)
  /// subsample of its slice Ω(n,in) instead of every observed entry.
  /// 1.0 (default) is the exact paper algorithm; values in (0,1) trade
  /// accuracy for speed. At least one entry per non-empty slice is always
  /// kept. The subsample is redrawn per (iteration, mode, row) from
  /// `seed`, so runs stay deterministic.
  double sample_rate = 1.0;

  /// When set, intermediate data is charged here; exceeding its budget
  /// raises OutOfMemoryBudget (the paper's O.O.M.).
  MemoryTracker* tracker = nullptr;

  /// Log per-iteration progress at INFO level.
  bool verbose = false;
};

}  // namespace ptucker

#endif  // PTUCKER_CORE_OPTIONS_H_
