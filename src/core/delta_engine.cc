#include "core/delta_engine.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <type_traits>

#include "util/logging.h"

namespace ptucker {

namespace {

// `#pragma omp simd` where the build has OpenMP; a plain loop otherwise.
#ifdef _OPENMP
#define PTUCKER_OMP_SIMD _Pragma("omp simd")
#else
#define PTUCKER_OMP_SIMD
#endif

// Moves the charge `*charged` held on `tracker` (null: no tracking) to
// `bytes`, charging any growth first, which throws OutOfMemoryBudget when
// over budget and then leaves `*charged` unchanged.
void MoveCharge(MemoryTracker* tracker, std::int64_t bytes,
                std::int64_t* charged) {
  if (tracker != nullptr) {
    if (bytes > *charged) {
      tracker->Charge(bytes - *charged);
    } else {
      tracker->Release(*charged - bytes);
    }
  }
  *charged = bytes;
}

}  // namespace

// ---------------------------------------------------------------------------
// Base class: entry-major reference kernels shared by naive and cached.
// ---------------------------------------------------------------------------

double DeltaEngine::Reconstruct(const std::int64_t* entry_index) const {
  return ReconstructFromList(core(), factors(), entry_index);
}

void DeltaEngine::ReconstructBatch(std::int64_t count,
                                   const std::int64_t* const* indices,
                                   double* out) const {
  for (std::int64_t i = 0; i < count; ++i) out[i] = Reconstruct(indices[i]);
}

void DeltaEngine::DeltaBatch(std::int64_t count, const std::int64_t* entries,
                             const std::int64_t* const* entry_indices,
                             std::int64_t mode, double* deltas) const {
  const std::int64_t rank =
      factors()[static_cast<std::size_t>(mode)].cols();
  for (std::int64_t i = 0; i < count; ++i) {
    ComputeDelta(entries[i], entry_indices[i], mode, deltas + i * rank);
  }
}

void DeltaEngine::OnFactorUpdated(std::int64_t mode, const Matrix& old_factor) {
  (void)mode;
  (void)old_factor;
}

void DeltaEngine::OnCoreEntriesRemoved(const std::vector<char>& removed) {
  (void)removed;
}

// ---------------------------------------------------------------------------
// NaiveDeltaEngine
// ---------------------------------------------------------------------------

void NaiveDeltaEngine::ComputeDelta(std::int64_t /*entry*/,
                                    const std::int64_t* entry_index,
                                    std::int64_t mode, double* delta) const {
  ptucker::ComputeDelta(core(), factors(), entry_index, mode, delta);
}

void NaiveDeltaEngine::ReconstructBatch(std::int64_t count,
                                        const std::int64_t* const* indices,
                                        double* out) const {
  ReconstructFromList(core(), factors(), count, indices, out);
}

// ---------------------------------------------------------------------------
// ModeMajorDeltaEngine
// ---------------------------------------------------------------------------

ModeMajorDeltaEngine::ModeMajorDeltaEngine(const CoreEntryList& core,
                                           const std::vector<Matrix>& factors,
                                           MemoryTracker* tracker)
    : ModeMajorDeltaEngine(core, MakeFactorViews(factors), tracker) {}

ModeMajorDeltaEngine::ModeMajorDeltaEngine(const CoreEntryList& core,
                                           std::vector<FactorView> factors,
                                           MemoryTracker* tracker)
    : DeltaEngine(core, std::move(factors)), tracker_(tracker) {
  PTUCKER_CHECK(core.order() >= 1 && core.order() <= kMaxOrder);
  PTUCKER_CHECK(static_cast<std::int64_t>(this->factors().size()) ==
                core.order());
  // Charge before allocating, like the cache table, so an over-budget
  // engine fails as OutOfMemoryBudget without building anything.
  MoveCharge(tracker_, GroupedBytes(), &charged_bytes_);
  try {
    BuildViews();
  } catch (...) {
    // A throwing constructor runs no destructor: return the charge here.
    MoveCharge(tracker_, 0, &charged_bytes_);
    throw;
  }
}

ModeMajorDeltaEngine::~ModeMajorDeltaEngine() {
  MoveCharge(tracker_, 0, &charged_bytes_);
}

std::int64_t ModeMajorDeltaEngine::GroupedBytes() const {
  const std::int64_t order = core().order();
  const std::int64_t n_entries = core().size();
  std::int64_t bytes = 0;
  for (std::int64_t n = 0; n < order; ++n) {
    const std::int64_t rank = factors()[static_cast<std::size_t>(n)].cols();
    bytes += static_cast<std::int64_t>(sizeof(std::int64_t)) * (rank + 1);
    bytes += static_cast<std::int64_t>(sizeof(std::int32_t)) * n_entries *
             (order - 1);
    bytes += static_cast<std::int64_t>(sizeof(double)) * n_entries;
  }
  return bytes;
}

void ModeMajorDeltaEngine::BuildViews() {
  const CoreEntryList& list = core();
  const std::int64_t order = list.order();
  const std::int64_t n_entries = list.size();
  const std::int64_t width = order - 1;

  views_.assign(static_cast<std::size_t>(order), ModeView());
  for (std::int64_t n = 0; n < order; ++n) {
    ModeView& view = views_[static_cast<std::size_t>(n)];
    const std::int64_t rank = factors()[static_cast<std::size_t>(n)].cols();

    // Stable counting sort by β_n: group sizes, exclusive prefix, scatter
    // in list order. Stability keeps per-group accumulation order equal to
    // the naive scan's, so δ is bit-identical between the two engines.
    view.offsets.assign(static_cast<std::size_t>(rank + 1), 0);
    for (std::int64_t b = 0; b < n_entries; ++b) {
      ++view.offsets[static_cast<std::size_t>(list.index(b)[n] + 1)];
    }
    for (std::int64_t j = 0; j < rank; ++j) {
      view.offsets[static_cast<std::size_t>(j + 1)] +=
          view.offsets[static_cast<std::size_t>(j)];
    }

    view.cols.resize(static_cast<std::size_t>(n_entries * width));
    view.values.resize(static_cast<std::size_t>(n_entries));
    std::vector<std::int64_t> cursor(view.offsets.begin(),
                                     view.offsets.end() - 1);
    for (std::int64_t b = 0; b < n_entries; ++b) {
      const std::int32_t* beta = list.index(b);
      const std::int64_t t = cursor[static_cast<std::size_t>(beta[n])]++;
      std::int32_t* col = view.cols.data() + t * width;
      std::int64_t w = 0;
      for (std::int64_t k = 0; k < order; ++k) {
        if (k == n) continue;
        col[w++] = beta[k];
      }
      view.values[static_cast<std::size_t>(t)] = list.value(b);
    }
  }
  BuildLanes();
}

std::int64_t ModeMajorDeltaEngine::MergeGroups(const ModeView& view,
                                               std::int64_t width,
                                               LaneView* lanes) {
  const std::int64_t rank = static_cast<std::int64_t>(view.offsets.size()) - 1;
  const std::int32_t* cols = view.cols.data();
  std::vector<std::int64_t> head(view.offsets.begin(), view.offsets.end() - 1);
  auto live = [&](std::int64_t j) {
    return head[static_cast<std::size_t>(j)] <
           view.offsets[static_cast<std::size_t>(j + 1)];
  };
  auto tuple = [&](std::int64_t j) {
    return cols + head[static_cast<std::size_t>(j)] * width;
  };
  // Tuples compare last coordinate first: a list collected from a dense
  // core (column-major) is sorted that way, so every group's tuples ascend
  // and the merge emits their sorted union — no tuple twice.
  auto precedes = [width](const std::int32_t* a, const std::int32_t* b) {
    for (std::int64_t w = width - 1; w >= 0; --w) {
      if (a[w] != b[w]) return a[w] < b[w];
    }
    return false;
  };
  std::int64_t rows = 0;
  for (;;) {
    std::int64_t smallest = -1;
    for (std::int64_t j = 0; j < rank; ++j) {
      if (!live(j)) continue;
      if (smallest < 0 || precedes(tuple(j), tuple(smallest))) smallest = j;
    }
    if (smallest < 0) return rows;
    // The emitted tuple stays readable while heads advance past it.
    const std::int32_t* emitted = tuple(smallest);
    if (lanes != nullptr) {
      std::copy(emitted, emitted + width, lanes->cols.data() + rows * width);
    }
    for (std::int64_t j = 0; j < rank; ++j) {
      if (!live(j) || !std::equal(emitted, emitted + width, tuple(j))) {
        continue;
      }
      if (lanes != nullptr) {
        lanes->values[static_cast<std::size_t>(rows * rank + j)] =
            view.values[static_cast<std::size_t>(
                head[static_cast<std::size_t>(j)])];
      }
      ++head[static_cast<std::size_t>(j)];
    }
    ++rows;
  }
}

void ModeMajorDeltaEngine::BuildLanes() {
  const std::int64_t order = core().order();
  const std::int64_t width = order - 1;
  std::vector<std::int64_t> rows(static_cast<std::size_t>(order));
  std::int64_t lane_bytes = 0;
  for (std::int64_t n = 0; n < order; ++n) {
    const std::int64_t rank = factors()[static_cast<std::size_t>(n)].cols();
    const std::int64_t u = MergeGroups(view(n), width, nullptr);
    rows[static_cast<std::size_t>(n)] = u;
    lane_bytes += static_cast<std::int64_t>(sizeof(std::int32_t)) * u * width;
    lane_bytes += static_cast<std::int64_t>(sizeof(double)) * u * rank;
  }
  MoveCharge(tracker_, GroupedBytes() + lane_bytes, &charged_bytes_);

  lanes_.resize(static_cast<std::size_t>(order));
  for (std::int64_t n = 0; n < order; ++n) {
    LaneView& lanes = lanes_[static_cast<std::size_t>(n)];
    const std::int64_t rank = factors()[static_cast<std::size_t>(n)].cols();
    lanes.rows = rows[static_cast<std::size_t>(n)];
    lanes.cols.resize(static_cast<std::size_t>(lanes.rows * width));
    lanes.values.assign(static_cast<std::size_t>(lanes.rows * rank), 0.0);
    MergeGroups(view(n), width, &lanes);
  }
}

namespace {

// Gathers the factor-row base pointers for every mode except `skip`
// (ascending mode order) and returns how many were written.
inline std::int64_t GatherRows(const std::vector<FactorView>& factors,
                               const std::int64_t* entry_index,
                               std::int64_t order, std::int64_t skip,
                               const double** rows) {
  std::int64_t w = 0;
  for (std::int64_t k = 0; k < order; ++k) {
    if (k == skip) continue;
    rows[w++] = factors[static_cast<std::size_t>(k)].Row(entry_index[k]);
  }
  return w;
}

// acc[j] = Σ_u ((values[u·stride + j]·p0)·p1)·…·p(width−1) for j < lanes,
// where p_w is the w-th non-mode factor value of lane row u. The factor
// values are gathered once per row and shared by every lane; per lane the
// product is G_β times the non-mode factor values in ascending mode order,
// as in the entry-major δ scan, and the lanes are independent sums,
// so vectorizing across them reassociates nothing.
// kWidth > 0 fixes the width at compile time (full unroll); kWidth = 0
// reads it from `width`. `p` is scratch for one row's `width` values.
template <int kWidth>
inline void LaneSumsKernel(const double* values, std::int64_t stride,
                           std::int64_t lanes, const std::int32_t* cols,
                           std::int64_t n_rows, std::int64_t width,
                           const double* const* rows, double* p,
                           double* acc) {
  const std::int64_t w_count = kWidth > 0 ? kWidth : width;
  for (std::int64_t j = 0; j < lanes; ++j) acc[j] = 0.0;
  for (std::int64_t u = 0; u < n_rows; ++u, cols += w_count, values += stride) {
    for (std::int64_t w = 0; w < w_count; ++w) p[w] = rows[w][cols[w]];
    PTUCKER_OMP_SIMD
    for (std::int64_t j = 0; j < lanes; ++j) {
      double product = values[j];
      for (std::int64_t w = 0; w < w_count; ++w) product *= p[w];
      acc[j] += product;
    }
  }
}

}  // namespace

void ModeMajorDeltaEngine::LaneSums(const std::int64_t* entry_index,
                                    std::int64_t mode, std::int64_t lane_begin,
                                    std::int64_t lane_count,
                                    double* acc) const {
  const LaneView& lanes = lanes_[static_cast<std::size_t>(mode)];
  const std::int64_t order = core().order();
  const std::int64_t width = order - 1;
  const std::int64_t stride =
      factors()[static_cast<std::size_t>(mode)].cols();
  const double* rows[kMaxOrder];
  GatherRows(factors(), entry_index, order, mode, rows);
  double p[kMaxOrder];
  const double* values = lanes.values.data() + lane_begin;
  const std::int32_t* cols = lanes.cols.data();
  switch (width) {
    case 1:
      LaneSumsKernel<1>(values, stride, lane_count, cols, lanes.rows, width,
                        rows, p, acc);
      break;
    case 2:
      LaneSumsKernel<2>(values, stride, lane_count, cols, lanes.rows, width,
                        rows, p, acc);
      break;
    case 3:
      LaneSumsKernel<3>(values, stride, lane_count, cols, lanes.rows, width,
                        rows, p, acc);
      break;
    case 4:
      LaneSumsKernel<4>(values, stride, lane_count, cols, lanes.rows, width,
                        rows, p, acc);
      break;
    default:
      LaneSumsKernel<0>(values, stride, lane_count, cols, lanes.rows, width,
                        rows, p, acc);
      break;
  }
}

void ModeMajorDeltaEngine::ComputeDelta(std::int64_t /*entry*/,
                                        const std::int64_t* entry_index,
                                        std::int64_t mode,
                                        double* delta) const {
  LaneSums(entry_index, mode, /*lane_begin=*/0,
           factors()[static_cast<std::size_t>(mode)].cols(), delta);
}

double ModeMajorDeltaEngine::Reconstruct(
    const std::int64_t* entry_index) const {
  const std::int64_t rank = factors()[0].cols();
  const double* coefficients = factors()[0].Row(entry_index[0]);
  double acc[kLaneBlock];
  double sum = 0.0;
  for (std::int64_t begin = 0; begin < rank; begin += kLaneBlock) {
    const std::int64_t count = std::min(kLaneBlock, rank - begin);
    LaneSums(entry_index, /*mode=*/0, begin, count, acc);
    for (std::int64_t j = 0; j < count; ++j) {
      const double coefficient = coefficients[begin + j];
      if (coefficient == 0.0) continue;  // group-level skip
      sum += coefficient * acc[j];
    }
  }
  return sum;
}

void ModeMajorDeltaEngine::OnCoreValuesChanged() { BuildViews(); }

void ModeMajorDeltaEngine::OnCoreEntriesRemoved(
    const std::vector<char>& removed) {
  PTUCKER_CHECK(std::count(removed.begin(), removed.end(), char{0}) ==
                core().size());
  BuildViews();
}

// ---------------------------------------------------------------------------
// CachedDeltaEngine
// ---------------------------------------------------------------------------

CachedDeltaEngine::CachedDeltaEngine(const SparseTensor& x,
                                     const CoreEntryList& core,
                                     const std::vector<Matrix>& factors,
                                     MemoryTracker* tracker)
    : DeltaEngine(core, factors), x_(&x), tracker_(tracker),
      table_(std::make_unique<CacheTable>(x, core, this->factors(), tracker)) {}

void CachedDeltaEngine::ComputeDelta(std::int64_t entry,
                                     const std::int64_t* entry_index,
                                     std::int64_t mode, double* delta) const {
  if (entry < 0) {
    // Coordinates outside the tensor the table was built over.
    ptucker::ComputeDelta(core(), factors(), entry_index, mode, delta);
    return;
  }
  table_->ComputeDeltaCached(core(), factors(), entry, entry_index, mode,
                             delta);
}

void CachedDeltaEngine::ReconstructBatch(std::int64_t count,
                                         const std::int64_t* const* indices,
                                         double* out) const {
  ReconstructFromList(core(), factors(), count, indices, out);
}

void CachedDeltaEngine::OnFactorUpdated(std::int64_t mode,
                                        const Matrix& old_factor) {
  table_->UpdateAfterMode(*x_, core(), factors(), mode, old_factor);
}

void CachedDeltaEngine::OnCoreValuesChanged() { RebuildTable(); }

void CachedDeltaEngine::OnCoreEntriesRemoved(
    const std::vector<char>& removed) {
  (void)removed;  // the table is dense in |G|; rebuild from the new list
  RebuildTable();
}

void CachedDeltaEngine::RebuildTable() {
  table_.reset();  // release the old charge before taking the new one
  table_ = std::make_unique<CacheTable>(*x_, core(), factors(), tracker_);
}

// ---------------------------------------------------------------------------
// ContractionDeltaEngine
// ---------------------------------------------------------------------------

namespace {

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

// a·b for non-negative operands, saturating at kInt64Max.
std::int64_t SaturatingProduct(std::int64_t a, std::int64_t b) {
  if (a != 0 && b > kInt64Max / a) return kInt64Max;
  return a * b;
}

// acc[j] += prefix·(subtree sum, lane j) over the level-`level` nodes
// [begin, end): each node multiplies its factor value into the running
// product once, and each leaf adds its Jn lanes scaled by that product.
// kRank > 0 fixes Jn at compile time (unrolled lanes); kRank = 0 reads it
// from `rank`.
template <int kRank>
void WalkTree(const std::vector<std::vector<std::int32_t>>& coords,
              const std::vector<std::vector<std::int64_t>>& child,
              const double* const* rows, const double* values,
              std::int64_t rank, std::size_t level, std::int64_t begin,
              std::int64_t end, double prefix, double* acc) {
  const std::int32_t* coord = coords[level].data();
  const double* row = rows[level];
  if (level + 1 == coords.size()) {
    const std::int64_t lanes = kRank > 0 ? kRank : rank;
    for (std::int64_t leaf = begin; leaf < end; ++leaf) {
      const double product = prefix * row[coord[leaf]];
      const double* lane = values + leaf * lanes;
      PTUCKER_OMP_SIMD
      for (std::int64_t j = 0; j < lanes; ++j) acc[j] += product * lane[j];
    }
    return;
  }
  const std::int64_t* children = child[level].data();
  for (std::int64_t node = begin; node < end; ++node) {
    WalkTree<kRank>(coords, child, rows, values, rank, level + 1,
                    children[node], children[node + 1],
                    prefix * row[coord[node]], acc);
  }
}

}  // namespace

ContractionDeltaEngine::ContractionDeltaEngine(
    const SparseTensor& x, const CoreEntryList& core,
    const std::vector<Matrix>& factors, MemoryTracker* tracker)
    : DeltaEngine(core, factors),
      nnz_(x.nnz()),
      tracker_(tracker) {
  PTUCKER_CHECK(core.order() >= 1 && core.order() <= kMaxOrder);
  PTUCKER_CHECK(static_cast<std::int64_t>(factors.size()) == core.order());
  try {
    Rebuild();
  } catch (...) {
    // A throwing constructor runs no destructor: return the charge here.
    MoveCharge(tracker_, 0, &charged_bytes_);
    throw;
  }
}

ContractionDeltaEngine::~ContractionDeltaEngine() {
  MoveCharge(tracker_, 0, &charged_bytes_);
}

std::int64_t ContractionDeltaEngine::MemoCapBytes(std::int64_t nnz,
                                                  std::int64_t order) {
  return SaturatingProduct(
      nnz, (order + 1) * static_cast<std::int64_t>(sizeof(double)));
}

std::int64_t ContractionDeltaEngine::MemoTableBytes() const {
  std::int64_t bytes = 0;
  for (const ModePlan& plan : plans_) {
    if (!plan.memo.empty()) {
      bytes += static_cast<std::int64_t>(sizeof(double) * plan.values.size());
    }
  }
  return bytes;
}

ContractionDeltaEngine::ModePlan ContractionDeltaEngine::MakeTree(
    std::int64_t mode, std::vector<std::int64_t> memo) const {
  const CoreEntryList& list = core();
  const std::int64_t order = list.order();
  const std::int64_t n_core = list.size();
  const std::int64_t rank = factors()[static_cast<std::size_t>(mode)].cols();

  ModePlan plan;
  std::sort(memo.begin(), memo.end());
  plan.memo = std::move(memo);
  // Array id = Σ i_k·stride_k, the last memoized mode fastest.
  plan.strides.resize(plan.memo.size());
  for (std::size_t s = plan.memo.size(); s-- > 0;) {
    plan.strides[s] = plan.tables;
    plan.tables = SaturatingProduct(
        plan.tables, factors()[static_cast<std::size_t>(plan.memo[s])].rows());
  }

  // R_n in ascending rank (ties by mode index): the fewest upper nodes.
  for (std::int64_t k = 0; k < order; ++k) {
    if (k == mode ||
        std::binary_search(plan.memo.begin(), plan.memo.end(), k)) {
      continue;
    }
    plan.levels.push_back(k);
  }
  std::stable_sort(plan.levels.begin(), plan.levels.end(),
                   [&](std::int64_t a, std::int64_t b) {
                     return factors()[static_cast<std::size_t>(a)].cols() <
                            factors()[static_cast<std::size_t>(b)].cols();
                   });
  plan.leaf_of.assign(static_cast<std::size_t>(n_core), 0);
  const std::size_t depth = plan.levels.size();
  if (depth == 0) {
    plan.madds = rank;  // δ is one leaf array, copied
    return plan;
  }

  // Sort the core entries by their projected tuple, then open a node on
  // every level from the first coordinate that differs from the previous
  // entry's.
  const auto key = [&](std::int64_t b, std::size_t level) {
    return list.index(b)[plan.levels[level]];
  };
  std::vector<std::int64_t> sorted(static_cast<std::size_t>(n_core));
  std::iota(sorted.begin(), sorted.end(), 0);
  std::sort(sorted.begin(), sorted.end(), [&](std::int64_t a, std::int64_t b) {
    for (std::size_t l = 0; l < depth; ++l) {
      if (key(a, l) != key(b, l)) return key(a, l) < key(b, l);
    }
    return a < b;
  });
  plan.coords.assign(depth, {});
  plan.child.assign(depth - 1, {});
  for (std::size_t t = 0; t < sorted.size(); ++t) {
    const std::int64_t b = sorted[t];
    std::size_t first = 0;
    if (t > 0) {
      while (first < depth && key(sorted[t - 1], first) == key(b, first)) {
        ++first;
      }
    }
    for (std::size_t l = first; l < depth; ++l) {
      if (l + 1 < depth) {
        plan.child[l].push_back(
            static_cast<std::int64_t>(plan.coords[l + 1].size()));
      }
      plan.coords[l].push_back(key(b, l));
    }
    plan.leaf_of[static_cast<std::size_t>(b)] =
        static_cast<std::int32_t>(plan.coords[depth - 1].size() - 1);
  }
  std::int64_t internal = 0;
  for (std::size_t l = 0; l + 1 < depth; ++l) {
    plan.child[l].push_back(
        static_cast<std::int64_t>(plan.coords[l + 1].size()));
    internal += static_cast<std::int64_t>(plan.coords[l].size());
  }
  plan.leaves = static_cast<std::int64_t>(plan.coords[depth - 1].size());
  plan.madds = internal + plan.leaves * (rank + 1);
  return plan;
}

std::vector<ContractionDeltaEngine::ModePlan>
ContractionDeltaEngine::MakePlans() const {
  const std::int64_t order = core().order();
  const std::int64_t n_core = core().size();
  const std::int64_t cap = MemoCapBytes(nnz_, order);

  // Every mode's feasible candidates k = |S_n| = 0, 1, … with their cost
  // in multiply-adds per sweep and their memo bytes.
  struct Candidate {
    ModePlan plan;
    double cost;
    std::int64_t bytes;
  };
  std::vector<std::vector<Candidate>> candidates(
      static_cast<std::size_t>(order));
  for (std::int64_t n = 0; n < order; ++n) {
    const std::int64_t rank = factors()[static_cast<std::size_t>(n)].cols();
    std::vector<std::int64_t> others;
    for (std::int64_t k = 0; k < order; ++k) {
      if (k != n) others.push_back(k);
    }
    std::stable_sort(others.begin(), others.end(),
                     [&](std::int64_t a, std::int64_t b) {
                       return factors()[static_cast<std::size_t>(a)].rows() <
                              factors()[static_cast<std::size_t>(b)].rows();
                     });
    std::int64_t tables = 1;
    for (std::size_t k = 0; k <= others.size(); ++k) {
      if (k > 0) {
        tables = SaturatingProduct(
            tables, factors()[static_cast<std::size_t>(others[k - 1])].rows());
        // Each array holds at least one leaf: past the cap no tree fits.
        if (SaturatingProduct(tables, rank * 8) > cap) break;
      }
      ModePlan plan = MakeTree(
          n, std::vector<std::int64_t>(others.begin(), others.begin() + k));
      const std::int64_t bytes =
          k == 0 ? 0
                 : SaturatingProduct(
                       SaturatingProduct(plan.tables, plan.leaves), rank * 8);
      if (bytes > cap) continue;
      const double sweep = static_cast<double>(nnz_) *
                           static_cast<double>(plan.madds);
      const double rebuilds = static_cast<double>(k) *
                              static_cast<double>(plan.tables) *
                              static_cast<double>(n_core) *
                              static_cast<double>(k + 1);
      candidates[static_cast<std::size_t>(n)].push_back(
          {std::move(plan), sweep + rebuilds, bytes});
    }
  }

  // Modes claim the memo budget in order of their best saving (ties by
  // mode index); each takes its cheapest candidate that still fits.
  const auto cheapest = [&](std::int64_t n, std::int64_t budget) {
    const std::vector<Candidate>& options =
        candidates[static_cast<std::size_t>(n)];
    std::size_t best = 0;  // k = 0 always fits: it holds no memo bytes
    for (std::size_t c = 1; c < options.size(); ++c) {
      if (options[c].bytes <= budget && options[c].cost < options[best].cost) {
        best = c;
      }
    }
    return best;
  };
  std::vector<double> saving(static_cast<std::size_t>(order));
  std::vector<std::int64_t> by_saving(static_cast<std::size_t>(order));
  for (std::int64_t n = 0; n < order; ++n) {
    const std::vector<Candidate>& options =
        candidates[static_cast<std::size_t>(n)];
    saving[static_cast<std::size_t>(n)] =
        options[0].cost - options[cheapest(n, cap)].cost;
    by_saving[static_cast<std::size_t>(n)] = n;
  }
  std::stable_sort(by_saving.begin(), by_saving.end(),
                   [&](std::int64_t a, std::int64_t b) {
                     return saving[static_cast<std::size_t>(a)] >
                            saving[static_cast<std::size_t>(b)];
                   });
  std::vector<ModePlan> plans(static_cast<std::size_t>(order));
  std::int64_t budget = cap;
  for (const std::int64_t n : by_saving) {
    std::vector<Candidate>& options = candidates[static_cast<std::size_t>(n)];
    Candidate& chosen = options[cheapest(n, budget)];
    budget -= chosen.bytes;
    plans[static_cast<std::size_t>(n)] = std::move(chosen.plan);
  }
  return plans;
}

std::int64_t ContractionDeltaEngine::PlanBytes(
    const std::vector<ModePlan>& plans) const {
  const std::vector<FactorView>& f = factors();
  std::int64_t bytes = 0;
  for (std::size_t n = 0; n < plans.size(); ++n) {
    const ModePlan& plan = plans[n];
    for (const auto& coords : plan.coords) {
      bytes += static_cast<std::int64_t>(sizeof(std::int32_t) * coords.size());
    }
    for (const auto& child : plan.child) {
      bytes += static_cast<std::int64_t>(sizeof(std::int64_t) * child.size());
    }
    bytes += static_cast<std::int64_t>(sizeof(std::int32_t) *
                                       plan.leaf_of.size());
    bytes += static_cast<std::int64_t>(sizeof(double)) * plan.tables *
             plan.leaves * f[n].cols();
  }
  return bytes;
}

void ContractionDeltaEngine::Rebuild() {
  std::vector<ModePlan> plans = MakePlans();
  // Charge the trees and every leaf array before allocating the arrays.
  MoveCharge(tracker_, PlanBytes(plans), &charged_bytes_);
  plans_ = std::move(plans);
  const std::int64_t order = core().order();
  std::int64_t best_cost = kInt64Max;
  for (std::int64_t n = 0; n < order; ++n) {
    ModePlan& plan = plans_[static_cast<std::size_t>(n)];
    const std::int64_t rank = factors()[static_cast<std::size_t>(n)].cols();
    plan.values.assign(
        static_cast<std::size_t>(plan.tables * plan.leaves * rank), 0.0);
    FillTables(n);
    if (plan.madds + rank < best_cost) {
      best_cost = plan.madds + rank;
      reconstruct_mode_ = n;
    }
  }
}

void ContractionDeltaEngine::FillTables(std::int64_t mode) {
  ModePlan& plan = plans_[static_cast<std::size_t>(mode)];
  const CoreEntryList& list = core();
  const std::vector<FactorView>& f = factors();
  const std::int64_t n_core = list.size();
  const std::int64_t rank = f[static_cast<std::size_t>(mode)].cols();
  const std::int64_t width = plan.leaves * rank;
  const std::size_t memo_count = plan.memo.size();
  for (std::int64_t t = 0; t < plan.tables; ++t) {
    const double* memo_rows[kMaxOrder];
    std::int64_t rest = t;
    for (std::size_t s = 0; s < memo_count; ++s) {
      memo_rows[s] = f[static_cast<std::size_t>(plan.memo[s])].Row(
          rest / plan.strides[s]);
      rest %= plan.strides[s];
    }
    double* out = plan.values.data() + t * width;
    std::fill(out, out + width, 0.0);
    for (std::int64_t b = 0; b < n_core; ++b) {
      const std::int32_t* beta = list.index(b);
      double term = list.value(b);
      for (std::size_t s = 0; s < memo_count; ++s) {
        term *= memo_rows[s][beta[plan.memo[s]]];
      }
      out[plan.leaf_of[static_cast<std::size_t>(b)] * rank + beta[mode]] +=
          term;
    }
  }
}

void ContractionDeltaEngine::ComputeDelta(std::int64_t /*entry*/,
                                          const std::int64_t* entry_index,
                                          std::int64_t mode,
                                          double* delta) const {
  const ModePlan& plan = plans_[static_cast<std::size_t>(mode)];
  const std::int64_t rank = factors()[static_cast<std::size_t>(mode)].cols();
  std::int64_t table = 0;
  for (std::size_t s = 0; s < plan.memo.size(); ++s) {
    table += entry_index[plan.memo[s]] * plan.strides[s];
  }
  const double* values = plan.values.data() + table * plan.leaves * rank;
  if (plan.levels.empty()) {
    std::copy(values, values + rank, delta);
    return;
  }
  const double* rows[kMaxOrder];
  for (std::size_t l = 0; l < plan.levels.size(); ++l) {
    const std::int64_t k = plan.levels[l];
    rows[l] = factors()[static_cast<std::size_t>(k)].Row(entry_index[k]);
  }
  std::fill(delta, delta + rank, 0.0);
  const std::int64_t roots = static_cast<std::int64_t>(plan.coords[0].size());
  const auto walk = [&](auto lanes) {
    WalkTree<decltype(lanes)::value>(plan.coords, plan.child, rows, values,
                                     rank, 0, 0, roots, 1.0, delta);
  };
  switch (rank) {
    case 1: walk(std::integral_constant<int, 1>()); break;
    case 2: walk(std::integral_constant<int, 2>()); break;
    case 3: walk(std::integral_constant<int, 3>()); break;
    case 4: walk(std::integral_constant<int, 4>()); break;
    case 5: walk(std::integral_constant<int, 5>()); break;
    case 6: walk(std::integral_constant<int, 6>()); break;
    case 8: walk(std::integral_constant<int, 8>()); break;
    default: walk(std::integral_constant<int, 0>()); break;
  }
}

double ContractionDeltaEngine::Reconstruct(
    const std::int64_t* entry_index) const {
  const std::int64_t mode = reconstruct_mode_;
  const std::int64_t rank = factors()[static_cast<std::size_t>(mode)].cols();
  constexpr std::int64_t kStackRank = 64;
  double stack[kStackRank];
  std::vector<double> heap;
  double* delta = stack;
  if (rank > kStackRank) {
    heap.resize(static_cast<std::size_t>(rank));
    delta = heap.data();
  }
  ComputeDelta(-1, entry_index, mode, delta);
  const double* coefficients =
      factors()[static_cast<std::size_t>(mode)].Row(entry_index[mode]);
  double sum = 0.0;
  for (std::int64_t j = 0; j < rank; ++j) sum += coefficients[j] * delta[j];
  return sum;
}

void ContractionDeltaEngine::OnFactorUpdated(std::int64_t mode,
                                             const Matrix& /*old_factor*/) {
  for (std::size_t n = 0; n < plans_.size(); ++n) {
    const std::vector<std::int64_t>& memo = plans_[n].memo;
    if (std::binary_search(memo.begin(), memo.end(), mode)) {
      FillTables(static_cast<std::int64_t>(n));
    }
  }
}

void ContractionDeltaEngine::OnCoreValuesChanged() {
  for (std::size_t n = 0; n < plans_.size(); ++n) {
    FillTables(static_cast<std::int64_t>(n));
  }
}

void ContractionDeltaEngine::OnCoreEntriesRemoved(
    const std::vector<char>& /*removed*/) {
  Rebuild();  // the pattern changed: a new plan, new trees, new arrays
}

#undef PTUCKER_OMP_SIMD

// ---------------------------------------------------------------------------
// Catalog + factory
// ---------------------------------------------------------------------------

namespace {

// The one table every consumer reads: the CLI parser accepts exactly these
// names/aliases and generates its --help engine list from the summaries,
// so accepted spellings and documentation cannot drift apart.
constexpr DeltaEngineDescriptor kDeltaEngineCatalog[] = {
    {DeltaEngineChoice::kAuto, "auto", nullptr,
     "follow the variant: cache variant -> Pres table, else contraction"},
    {DeltaEngineChoice::kNaive, "naive", nullptr,
     "entry-major scan of the core list; the correctness oracle"},
    {DeltaEngineChoice::kModeMajor, "modemajor", nullptr,
     "per-mode lane views, bit-identical to naive (serving's kernel)"},
    {DeltaEngineChoice::kCached, "cache", "cached",
     "the paper's Sec. III-C Pres table; O(1) delta per (alpha, beta)"},
    {DeltaEngineChoice::kContraction, "contraction", nullptr,
     "core trees with memoized short modes, reassociated (default)"},
};

}  // namespace

Span<const DeltaEngineDescriptor> DeltaEngineCatalog() {
  return {kDeltaEngineCatalog,
          sizeof(kDeltaEngineCatalog) / sizeof(kDeltaEngineCatalog[0])};
}

const DeltaEngineDescriptor* FindDeltaEngineByName(const std::string& name) {
  for (const DeltaEngineDescriptor& descriptor : DeltaEngineCatalog()) {
    if (name == descriptor.name ||
        (descriptor.alias != nullptr && name == descriptor.alias)) {
      return &descriptor;
    }
  }
  return nullptr;
}

const char* DeltaEngineChoiceName(DeltaEngineChoice choice) {
  for (const DeltaEngineDescriptor& descriptor : DeltaEngineCatalog()) {
    if (descriptor.choice == choice) return descriptor.name;
  }
  PTUCKER_CHECK(false && "DeltaEngineChoiceName: enumerator not in catalog");
  return "";
}

DeltaEngineChoice ResolveDeltaEngineChoice(const PTuckerOptions& options) {
  if (options.delta_engine != DeltaEngineChoice::kAuto) {
    return options.delta_engine;
  }
  return options.variant == PTuckerVariant::kCache
             ? DeltaEngineChoice::kCached
             : DeltaEngineChoice::kContraction;
}

std::unique_ptr<DeltaEngine> MakeDeltaEngine(
    DeltaEngineChoice choice, const SparseTensor& x, const CoreEntryList& core,
    const std::vector<Matrix>& factors, MemoryTracker* tracker,
    double adaptive_epsilon, std::int64_t /*tile_width*/) {
  if (adaptive_epsilon != 0.0) {
    throw std::invalid_argument(
        "adaptive_epsilon must be 0: the lossy adaptive delta-engine was "
        "removed");
  }
  switch (choice) {
    case DeltaEngineChoice::kNaive:
      return std::make_unique<NaiveDeltaEngine>(core, factors);
    case DeltaEngineChoice::kModeMajor:
      return std::make_unique<ModeMajorDeltaEngine>(core, factors, tracker);
    case DeltaEngineChoice::kCached:
      return std::make_unique<CachedDeltaEngine>(x, core, factors, tracker);
    case DeltaEngineChoice::kContraction:
      return std::make_unique<ContractionDeltaEngine>(x, core, factors,
                                                      tracker);
    case DeltaEngineChoice::kAuto:
      break;
  }
  PTUCKER_CHECK(false && "MakeDeltaEngine: resolve kAuto first");
  return nullptr;
}

}  // namespace ptucker
