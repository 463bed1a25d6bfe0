#include "core/truncation.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include <omp.h>

#include "core/delta_engine.h"
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

// The entries of Ω in tree order: lexicographic in level order, stable in
// entry id. LSD counting sort, one stable pass per level from the deepest
// up, O(N·(|Ω| + max I_n)) with `scratch` (|Ω|) and `counts`
// (max I_n + 1) as the only workspace.
void SortEntries(const SparseTensor& x, const Levels& levels,
                 std::vector<std::int64_t>* sorted,
                 std::vector<std::int64_t>* scratch,
                 std::vector<std::int64_t>* counts) {
  std::iota(sorted->begin(), sorted->end(), 0);
  for (std::int64_t d = x.order() - 1; d >= 0; --d) {
    const std::int64_t mode = levels.modes[static_cast<std::size_t>(d)];
    std::fill(counts->begin(), counts->begin() + x.dim(mode) + 1, 0);
    for (const std::int64_t e : *sorted) {
      ++(*counts)[static_cast<std::size_t>(x.index(e, mode) + 1)];
    }
    for (std::int64_t i = 0; i < x.dim(mode); ++i) {
      (*counts)[static_cast<std::size_t>(i + 1)] +=
          (*counts)[static_cast<std::size_t>(i)];
    }
    for (const std::int64_t e : *sorted) {
      (*scratch)[static_cast<std::size_t>(
          (*counts)[static_cast<std::size_t>(x.index(e, mode))]++)] = e;
    }
    sorted->swap(*scratch);
  }
}

// One thread's depth-first pass over a contiguous range of the sorted
// entries. A node at level l < N−1 owns T_{l+1} = a·T_l (its factor row
// contracted into its parent's buffer; T_0 is the dense core) and two
// accumulators of length sizes[l+1]:
//   W1 = Σ_{α below} r_α·⊗_{m>l} a⁽ᵐ⁾,   W2 = Σ_{α below} ⊗_{m>l} (a⁽ᵐ⁾)∘².
// A leaf computes x̂ = a·T_{N−1} and folds r = x − x̂ (and 1) into its
// parent as outer products with its row; closing a node folds its
// accumulators into its parent's the same way, and closing a root folds
// into S1/S2 (level −1, length ΠJ).
class ScorePass {
 public:
  ScorePass(const SparseTensor& x, const std::vector<Matrix>& factors,
            const Levels& levels, const double* core)
      : x_(&x), factors_(&factors), levels_(&levels), order_(x.order()),
        core_(core),
        contraction_(static_cast<std::size_t>(levels.buffer_doubles -
                                              levels.sizes[0])),
        w1_(static_cast<std::size_t>(levels.buffer_doubles)),
        w2_(static_cast<std::size_t>(levels.buffer_doubles)),
        t_(static_cast<std::size_t>(order_)),
        acc1_(static_cast<std::size_t>(order_)),
        acc2_(static_cast<std::size_t>(order_)) {
    // Level d's accumulators sit at Σ_{k<d} sizes[k], acc[0] being S (the
    // accumulators of the level above the roots); T_d (d ≥ 1) sits
    // sizes[0] lower, since T_0 is the shared core.
    std::size_t offset = 0;
    for (std::int64_t d = 0; d < order_; ++d) {
      const std::size_t at = static_cast<std::size_t>(d);
      if (d > 0) {
        t_[at] = contraction_.data() +
                 (offset - static_cast<std::size_t>(levels.sizes[0]));
      }
      acc1_[at] = w1_.data() + offset;
      acc2_[at] = w2_.data() + offset;
      offset += static_cast<std::size_t>(levels.sizes[at]);
    }
  }

  // Per-thread doubles a pass allocates: T_1 … T_{N−1} and both
  // accumulator stacks.
  static std::int64_t BufferDoubles(const Levels& levels) {
    return 3 * levels.buffer_doubles - levels.sizes[0];
  }

  // Adds −G_β²·S2_β − 2·G_β·S1_β over the entries sorted[begin, end) to
  // lane_out[b] for every list entry b, whose S1/S2 position is
  // offsets[b].
  void Run(const std::int64_t* sorted, std::int64_t begin, std::int64_t end,
           const CoreEntryList& list, const std::int64_t* offsets,
           double* lane_out) {
    if (begin == end) return;
    std::fill(acc1_[0], acc1_[0] + levels_->sizes[0], 0.0);
    std::fill(acc2_[0], acc2_[0] + levels_->sizes[0], 0.0);
    const std::int64_t* previous = nullptr;
    for (std::int64_t p = begin; p < end; ++p) {
      const std::int64_t e = sorted[p];
      const std::int64_t* index = x_->index(e);
      std::int64_t first = 0;  // shallowest level whose node changes
      if (previous != nullptr) {
        while (first < order_ - 1 &&
               index[Mode(first)] == previous[Mode(first)]) {
          ++first;
        }
        for (std::int64_t l = order_ - 2; l >= first; --l) Close(l, previous);
      }
      for (std::int64_t l = first; l < order_ - 1; ++l) Open(l, index);
      Leaf(index, x_->value(e));
      previous = index;
    }
    for (std::int64_t l = order_ - 2; l >= 0; --l) Close(l, previous);

    const double* s1 = acc1_[0];
    const double* s2 = acc2_[0];
    for (std::int64_t b = 0; b < list.size(); ++b) {
      const std::int64_t at = offsets[b];
      const double g = list.value(b);
      lane_out[b] -= g * (g * s2[at] + 2.0 * s1[at]);
    }
  }

 private:
  std::int64_t Mode(std::int64_t level) const {
    return levels_->modes[static_cast<std::size_t>(level)];
  }
  std::int64_t Size(std::int64_t level) const {
    return levels_->sizes[static_cast<std::size_t>(level)];
  }
  std::int64_t Rank(std::int64_t level) const {
    return (*factors_)[static_cast<std::size_t>(Mode(level))].cols();
  }
  // T_l: the dense core at the top, a contraction buffer below.
  const double* Contracted(std::int64_t level) const {
    return level == 0 ? core_ : t_[static_cast<std::size_t>(level)];
  }
  const double* Row(std::int64_t level, const std::int64_t* index) const {
    const std::int64_t mode = Mode(level);
    return (*factors_)[static_cast<std::size_t>(mode)].Row(index[mode]);
  }

  // T_{l+1} = a·T_l, and the node's accumulators start at zero.
  void Open(std::int64_t l, const std::int64_t* index) {
    const double* a = Row(l, index);
    const std::int64_t rank = Rank(l);
    const std::int64_t inner = Size(l + 1);
    const double* in = Contracted(l);
    double* out = t_[static_cast<std::size_t>(l + 1)];
    for (std::int64_t k = 0; k < inner; ++k) out[k] = a[0] * in[k];
    for (std::int64_t j = 1; j < rank; ++j) {
      const double* slab = in + j * inner;
      for (std::int64_t k = 0; k < inner; ++k) out[k] += a[j] * slab[k];
    }
    std::fill(acc1_[static_cast<std::size_t>(l + 1)],
              acc1_[static_cast<std::size_t>(l + 1)] + inner, 0.0);
    std::fill(acc2_[static_cast<std::size_t>(l + 1)],
              acc2_[static_cast<std::size_t>(l + 1)] + inner, 0.0);
  }

  // x̂ = a·T_{N−1}; folds r and 1 into the parent with the leaf's row.
  void Leaf(const std::int64_t* index, double value) {
    const std::int64_t l = order_ - 1;
    const double* a = Row(l, index);
    const std::int64_t rank = Rank(l);
    const double* t = Contracted(l);
    double reconstruction = 0.0;
    for (std::int64_t j = 0; j < rank; ++j) reconstruction += a[j] * t[j];
    const double residual = value - reconstruction;
    double* p1 = acc1_[static_cast<std::size_t>(l)];
    double* p2 = acc2_[static_cast<std::size_t>(l)];
    for (std::int64_t j = 0; j < rank; ++j) {
      p1[j] += a[j] * residual;
      p2[j] += a[j] * a[j];
    }
  }

  // Folds level l's accumulators into level l−1's (S for a root): the
  // outer product of the node's row (squared in place for W2) with them.
  void Close(std::int64_t l, const std::int64_t* index) {
    const double* a = Row(l, index);
    const std::int64_t rank = Rank(l);
    const std::int64_t inner = Size(l + 1);
    const double* w1 = acc1_[static_cast<std::size_t>(l + 1)];
    const double* w2 = acc2_[static_cast<std::size_t>(l + 1)];
    double* p1 = acc1_[static_cast<std::size_t>(l)];
    double* p2 = acc2_[static_cast<std::size_t>(l)];
    for (std::int64_t j = 0; j < rank; ++j) {
      const double aj = a[j];
      const double aj2 = aj * aj;
      double* q1 = p1 + j * inner;
      double* q2 = p2 + j * inner;
      for (std::int64_t k = 0; k < inner; ++k) {
        q1[k] += aj * w1[k];
        q2[k] += aj2 * w2[k];
      }
    }
  }

  const SparseTensor* x_;
  const std::vector<Matrix>* factors_;
  const Levels* levels_;
  std::int64_t order_;
  const double* core_;               // T_0, shared by every thread
  std::vector<double> contraction_;  // T_1 … T_{N−1}
  std::vector<double> w1_;           // S1, then W1 of levels 0 … N−2
  std::vector<double> w2_;           // S2, then W2 of levels 0 … N−2
  std::vector<double*> t_;
  std::vector<double*> acc1_;
  std::vector<double*> acc2_;
};

}  // namespace

std::vector<double> ComputePartialErrors(const SparseTensor& x,
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
      word * threads * ScorePass::BufferDoubles(levels) +
      word * kReductionLanes * n_core;
  ScopedCharge scratch_charge(tracker, scratch_bytes);

  std::vector<std::int64_t> sorted(static_cast<std::size_t>(nnz));
  {
    std::vector<std::int64_t> scratch(static_cast<std::size_t>(nnz));
    std::vector<std::int64_t> counts(static_cast<std::size_t>(max_dim + 1));
    SortEntries(x, levels, &sorted, &scratch, &counts);
  }
  std::vector<double> dense_core(static_cast<std::size_t>(levels.sizes[0]),
                                 0.0);
  std::vector<std::int64_t> offsets(core_count);
  for (std::int64_t b = 0; b < n_core; ++b) {
    const std::int64_t at = LevelOffset(levels, core.index(b));
    offsets[static_cast<std::size_t>(b)] = at;
    dense_core[static_cast<std::size_t>(at)] = core.value(b);
  }

  // Lane l scores the sorted entries [ReductionLaneBegin(|Ω|, l), …) with
  // its own pass; the lanes fold in lane order, so the scores are the
  // same at every thread count.
  std::vector<double> lane_scores(static_cast<std::size_t>(kReductionLanes) *
                                      core_count,
                                  0.0);
#pragma omp parallel
  {
    ScorePass pass(x, factors, levels, dense_core.data());
#pragma omp for schedule(static)
    for (std::int64_t lane = 0; lane < kReductionLanes; ++lane) {
      pass.Run(sorted.data(), ReductionLaneBegin(nnz, lane),
               ReductionLaneBegin(nnz, lane + 1), core, offsets.data(),
               lane_scores.data() +
                   static_cast<std::size_t>(lane) * core_count);
    }
  }
  std::vector<double> result(core_count);
  FoldVectorLaneSums(lane_scores.data(), kReductionLanes, core_count,
                     result.data());
  return result;
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
