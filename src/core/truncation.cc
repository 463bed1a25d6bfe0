#include "core/truncation.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include <omp.h>

#include "core/delta_engine.h"
#include "tensor/csf.h"
#include "util/cpu.h"
#include "util/logging.h"
#include "util/memory_tracker.h"
#include "util/parallel.h"

namespace ptucker {

namespace {

// The CSF tree of Ω the scorer walks. Level l holds mode modes[l]; the
// levels run in ascending I_n (ties by mode index), so the top levels
// have the fewest nodes. sizes[d] = Π_{l≥d} J_{modes[l]} is the length of
// the level-d contraction T_d and of the level-d accumulators; sizes[N]
// is 1. A function of the shapes alone.
struct Levels {
  std::vector<std::int64_t> modes;
  std::vector<std::int64_t> sizes;
  std::int64_t buffer_doubles = 0;  // Σ_{d<N} sizes[d]
};

Levels PlanLevels(const SparseTensor& x, const std::vector<Matrix>& factors) {
  const std::int64_t order = x.order();
  Levels levels;
  levels.modes.resize(static_cast<std::size_t>(order));
  std::iota(levels.modes.begin(), levels.modes.end(), 0);
  std::stable_sort(levels.modes.begin(), levels.modes.end(),
                   [&](std::int64_t a, std::int64_t b) {
                     return x.dim(a) < x.dim(b);
                   });
  levels.sizes.assign(static_cast<std::size_t>(order + 1), 1);
  for (std::int64_t d = order - 1; d >= 0; --d) {
    const std::int64_t mode = levels.modes[static_cast<std::size_t>(d)];
    levels.sizes[static_cast<std::size_t>(d)] =
        levels.sizes[static_cast<std::size_t>(d + 1)] *
        factors[static_cast<std::size_t>(mode)].cols();
    levels.buffer_doubles += levels.sizes[static_cast<std::size_t>(d)];
  }
  return levels;
}

// Offset of core entry β in the dense level-ordered core buffer.
std::int64_t LevelOffset(const Levels& levels, const std::int32_t* beta) {
  std::int64_t offset = 0;
  for (std::size_t d = 0; d < levels.modes.size(); ++d) {
    offset += beta[levels.modes[d]] * levels.sizes[d + 1];
  }
  return offset;
}

// Per-thread doubles a ScorePass allocates: T_1 … T_{N−1} and both
// accumulator stacks.
std::int64_t PassBufferDoubles(const Levels& levels) {
  return 3 * levels.buffer_doubles - levels.sizes[0];
}

// One build of the lane pass (truncation_score.inc): lane l of
// lane_scores (|G| doubles each) receives the lane's R(β) partials.
using ScoreLanesFn = void (*)(const SparseTensor& x,
                              const std::vector<Matrix>& factors,
                              const Levels& levels, const double* dense_core,
                              const std::int64_t* sorted,
                              const CoreEntryList& list,
                              const std::int64_t* offsets,
                              double* lane_scores);

// ComputePartialErrors with the lane pass `score_lanes`: everything but
// the pass is shared by the clones.
std::vector<double> PartialErrors(ScoreLanesFn score_lanes,
                                  const SparseTensor& x,
                                  const CoreEntryList& core,
                                  const std::vector<Matrix>& factors,
                                  MemoryTracker* tracker) {
  PTUCKER_CHECK(core.order() == x.order());
  PTUCKER_CHECK(static_cast<std::int64_t>(factors.size()) == x.order());
  const std::int64_t nnz = x.nnz();
  const std::int64_t n_core = core.size();
  const std::size_t core_count = static_cast<std::size_t>(n_core);
  const Levels levels = PlanLevels(x, factors);
  const std::int64_t max_dim =
      *std::max_element(x.dims().begin(), x.dims().end());
  const std::int64_t threads = omp_get_max_threads();

  // All scratch, charged before any of it is allocated: the sorted order
  // with its sort workspace, the dense core with the list's offsets into
  // it, the per-thread T/W/S buffers and the 64 per-lane score partials.
  const std::int64_t word = static_cast<std::int64_t>(sizeof(double));
  const std::int64_t scratch_bytes =
      word * (2 * nnz + max_dim + 1) + word * (levels.sizes[0] + n_core) +
      word * threads * PassBufferDoubles(levels) +
      word * kReductionLanes * n_core;
  ScopedCharge scratch_charge(tracker, scratch_bytes);

  // Ω in tree order: lexicographic in level order, stable in entry id.
  const std::vector<std::int64_t> sorted =
      CsfOrder(x.index(0), nnz, x.order(), levels.modes, x.dims());
  std::vector<double> dense_core(static_cast<std::size_t>(levels.sizes[0]),
                                 0.0);
  std::vector<std::int64_t> offsets(core_count);
  for (std::int64_t b = 0; b < n_core; ++b) {
    const std::int64_t at = LevelOffset(levels, core.index(b));
    offsets[static_cast<std::size_t>(b)] = at;
    dense_core[static_cast<std::size_t>(at)] = core.value(b);
  }

  // Each lane has its own pass; the lanes fold in lane order, so the
  // scores are the same at every thread count.
  std::vector<double> lane_scores(static_cast<std::size_t>(kReductionLanes) *
                                      core_count,
                                  0.0);
  score_lanes(x, factors, levels, dense_core.data(), sorted.data(), core,
              offsets.data(), lane_scores.data());
  std::vector<double> result(core_count);
  FoldVectorLaneSums(lane_scores.data(), kReductionLanes, core_count,
                     result.data());
  return result;
}

}  // namespace

namespace truncation_generic {
#include "core/truncation_score.inc"

std::vector<double> ComputePartialErrors(const SparseTensor& x,
                                         const CoreEntryList& core,
                                         const std::vector<Matrix>& factors,
                                         MemoryTracker* tracker) {
  return PartialErrors(&ScoreLanes, x, core, factors, tracker);
}
}  // namespace truncation_generic

#if PTUCKER_AVX2_CLONES
#pragma GCC push_options
#pragma GCC target("avx2")
namespace truncation_avx2 {
#include "core/truncation_score.inc"
}  // namespace truncation_avx2
#pragma GCC pop_options

namespace truncation_avx2 {
std::vector<double> ComputePartialErrors(const SparseTensor& x,
                                         const CoreEntryList& core,
                                         const std::vector<Matrix>& factors,
                                         MemoryTracker* tracker) {
  return PartialErrors(&ScoreLanes, x, core, factors, tracker);
}
}  // namespace truncation_avx2
#endif

std::vector<double> ComputePartialErrors(const SparseTensor& x,
                                         const CoreEntryList& core,
                                         const std::vector<Matrix>& factors,
                                         MemoryTracker* tracker) {
#if PTUCKER_AVX2_CLONES
  if (CpuHasAvx2()) {
    return truncation_avx2::ComputePartialErrors(x, core, factors, tracker);
  }
#endif
  return truncation_generic::ComputePartialErrors(x, core, factors, tracker);
}

std::int64_t TruncateNoisyEntries(const SparseTensor& x, DenseTensor* core,
                                  CoreEntryList* core_list,
                                  const std::vector<Matrix>& factors,
                                  double truncation_rate,
                                  DeltaEngine* engine,
                                  MemoryTracker* tracker) {
  PTUCKER_CHECK(truncation_rate >= 0.0 && truncation_rate < 1.0);
  const std::int64_t n_core = core_list->size();
  std::int64_t to_remove = static_cast<std::int64_t>(
      truncation_rate * static_cast<double>(n_core));
  to_remove = std::min(to_remove, n_core - 1);  // keep the model alive
  if (to_remove <= 0) return 0;

  const std::vector<double> partial_errors =
      ComputePartialErrors(x, *core_list, factors, tracker);
  for (std::int64_t b = 0; b < n_core; ++b) {
    const double score = partial_errors[static_cast<std::size_t>(b)];
    if (std::isfinite(score)) continue;
    std::ostringstream what;
    what << "P-TUCKER-APPROX: partial error R(beta) of core entry " << b
         << " (";
    for (std::int64_t k = 0; k < core_list->order(); ++k) {
      what << (k > 0 ? "," : "") << core_list->index(b)[k];
    }
    what << ") is " << score << "; the factors or the input are not finite";
    throw std::runtime_error(what.str());
  }

  // Rank by (R(β) descending, list index ascending): a strict total order
  // on finite scores, so ties go to the lowest list indices whatever the
  // library's nth_element does. Algorithm 4 only needs the top-p set.
  std::vector<std::int64_t> order(static_cast<std::size_t>(n_core));
  std::iota(order.begin(), order.end(), 0);
  std::nth_element(order.begin(), order.begin() + to_remove, order.end(),
                   [&](std::int64_t a, std::int64_t b) {
                     const double ra =
                         partial_errors[static_cast<std::size_t>(a)];
                     const double rb =
                         partial_errors[static_cast<std::size_t>(b)];
                     return ra > rb || (ra == rb && a < b);
                   });

  std::vector<char> remove(static_cast<std::size_t>(n_core), 0);
  for (std::int64_t r = 0; r < to_remove; ++r) {
    remove[static_cast<std::size_t>(order[static_cast<std::size_t>(r)])] = 1;
  }
  const std::int64_t removed = core_list->Remove(remove, core);
  if (engine != nullptr) engine->OnCoreEntriesRemoved(remove);
  return removed;
}

}  // namespace ptucker
