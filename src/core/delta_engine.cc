#include "core/delta_engine.h"

#include <algorithm>
#include <stdexcept>

#include "util/logging.h"

namespace ptucker {

namespace {

// `#pragma omp simd` where the build has OpenMP; a plain loop otherwise.
#ifdef _OPENMP
#define PTUCKER_OMP_SIMD _Pragma("omp simd")
#else
#define PTUCKER_OMP_SIMD
#endif

}  // namespace

// ---------------------------------------------------------------------------
// Base class: entry-major reference kernels shared by naive and cached.
// ---------------------------------------------------------------------------

double DeltaEngine::Reconstruct(const std::int64_t* entry_index) const {
  return ReconstructFromList(core(), factors(), entry_index);
}

void DeltaEngine::ComputeProducts(const std::int64_t* entry_index,
                                  double* products) const {
  const CoreEntryList& list = core();
  const std::vector<FactorView>& f = factors();
  const std::int64_t order = list.order();
  const std::int64_t n_entries = list.size();
  for (std::int64_t b = 0; b < n_entries; ++b) {
    const std::int32_t* beta = list.index(b);
    double product = list.value(b);
    for (std::int64_t k = 0; k < order; ++k) {
      product *= f[static_cast<std::size_t>(k)](entry_index[k], beta[k]);
    }
    products[b] = product;
  }
}

double DeltaEngine::DesignDot(const std::int64_t* entry_index,
                              const double* g) const {
  const CoreEntryList& list = core();
  const std::vector<FactorView>& f = factors();
  const std::int64_t order = list.order();
  const std::int64_t n_entries = list.size();
  double sum = 0.0;
  for (std::int64_t b = 0; b < n_entries; ++b) {
    const std::int32_t* beta = list.index(b);
    double product = 1.0;
    for (std::int64_t k = 0; k < order; ++k) {
      product *= f[static_cast<std::size_t>(k)](entry_index[k], beta[k]);
    }
    sum += g[b] * product;
  }
  return sum;
}

void DeltaEngine::DesignAccumulate(const std::int64_t* entry_index,
                                   double scale, double* z) const {
  const CoreEntryList& list = core();
  const std::vector<FactorView>& f = factors();
  const std::int64_t order = list.order();
  const std::int64_t n_entries = list.size();
  for (std::int64_t b = 0; b < n_entries; ++b) {
    const std::int32_t* beta = list.index(b);
    double product = 1.0;
    for (std::int64_t k = 0; k < order; ++k) {
      product *= f[static_cast<std::size_t>(k)](entry_index[k], beta[k]);
    }
    z[b] += scale * product;
  }
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
  Recharge(GroupedBytes());
  try {
    BuildViews();
  } catch (...) {
    // A throwing constructor runs no destructor: return the charge here.
    Recharge(0);
    throw;
  }
}

ModeMajorDeltaEngine::~ModeMajorDeltaEngine() { Recharge(0); }

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
    bytes += static_cast<std::int64_t>(sizeof(std::int32_t)) * n_entries;
  }
  return bytes;
}

void ModeMajorDeltaEngine::Recharge(std::int64_t bytes) {
  if (tracker_ != nullptr) {
    if (bytes > charged_bytes_) {
      tracker_->Charge(bytes - charged_bytes_);
    } else {
      tracker_->Release(charged_bytes_ - bytes);
    }
  }
  charged_bytes_ = bytes;
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
    view.list_pos.resize(static_cast<std::size_t>(n_entries));
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
      view.list_pos[static_cast<std::size_t>(t)] =
          static_cast<std::int32_t>(b);
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
  Recharge(GroupedBytes() + lane_bytes);

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

void ModeMajorDeltaEngine::ComputeProducts(const std::int64_t* entry_index,
                                           double* products) const {
  const ModeView& view = views_[0];
  const std::int64_t order = core().order();
  const std::int64_t width = order - 1;
  const std::int64_t rank = factors()[0].cols();
  const double* rows[kMaxOrder];
  GatherRows(factors(), entry_index, order, /*skip=*/0, rows);
  const double* coefficients = factors()[0].Row(entry_index[0]);
  for (std::int64_t j = 0; j < rank; ++j) {
    const std::int64_t begin = view.offsets[static_cast<std::size_t>(j)];
    const std::int64_t end = view.offsets[static_cast<std::size_t>(j + 1)];
    const double coefficient = coefficients[j];
    if (coefficient == 0.0) {  // group-level skip: every product is 0
      for (std::int64_t t = begin; t < end; ++t) {
        products[view.list_pos[static_cast<std::size_t>(t)]] = 0.0;
      }
      continue;
    }
    const std::int32_t* col = view.cols.data() + begin * width;
    for (std::int64_t t = begin; t < end; ++t, col += width) {
      // value · A(0) first, remaining modes ascending — the same multiply
      // order as the entry-major scan, so products match it bit-for-bit.
      double product = view.values[static_cast<std::size_t>(t)] * coefficient;
      for (std::int64_t w = 0; w < width; ++w) {
        product *= rows[w][col[w]];
      }
      products[view.list_pos[static_cast<std::size_t>(t)]] = product;
    }
  }
}

double ModeMajorDeltaEngine::DesignDot(const std::int64_t* entry_index,
                                       const double* g) const {
  const ModeView& view = views_[0];
  const std::int64_t order = core().order();
  const std::int64_t width = order - 1;
  const std::int64_t rank = factors()[0].cols();
  const double* rows[kMaxOrder];
  GatherRows(factors(), entry_index, order, /*skip=*/0, rows);
  const double* coefficients = factors()[0].Row(entry_index[0]);
  double sum = 0.0;
  for (std::int64_t j = 0; j < rank; ++j) {
    const double coefficient = coefficients[j];
    if (coefficient == 0.0) continue;  // group-level skip
    const std::int64_t begin = view.offsets[static_cast<std::size_t>(j)];
    const std::int64_t end = view.offsets[static_cast<std::size_t>(j + 1)];
    const std::int32_t* col = view.cols.data() + begin * width;
    double group = 0.0;
    for (std::int64_t t = begin; t < end; ++t, col += width) {
      double product = coefficient;
      for (std::int64_t w = 0; w < width; ++w) {
        product *= rows[w][col[w]];
      }
      group += g[view.list_pos[static_cast<std::size_t>(t)]] * product;
    }
    sum += group;
  }
  return sum;
}

void ModeMajorDeltaEngine::DesignAccumulate(const std::int64_t* entry_index,
                                            double scale, double* z) const {
  const ModeView& view = views_[0];
  const std::int64_t order = core().order();
  const std::int64_t width = order - 1;
  const std::int64_t rank = factors()[0].cols();
  const double* rows[kMaxOrder];
  GatherRows(factors(), entry_index, order, /*skip=*/0, rows);
  const double* coefficients = factors()[0].Row(entry_index[0]);
  for (std::int64_t j = 0; j < rank; ++j) {
    const double coefficient = coefficients[j];
    if (coefficient == 0.0) continue;  // group-level skip: adds exact zeros
    const std::int64_t begin = view.offsets[static_cast<std::size_t>(j)];
    const std::int64_t end = view.offsets[static_cast<std::size_t>(j + 1)];
    const std::int32_t* col = view.cols.data() + begin * width;
    for (std::int64_t t = begin; t < end; ++t, col += width) {
      double product = coefficient;
      for (std::int64_t w = 0; w < width; ++w) {
        product *= rows[w][col[w]];
      }
      z[view.list_pos[static_cast<std::size_t>(t)]] += scale * product;
    }
  }
}

void ModeMajorDeltaEngine::OnCoreValuesChanged() {
  // Same sparsity pattern: only the value arrays need rewriting, through
  // the stored grouped-position → list-id permutation. No re-sort.
  const CoreEntryList& list = core();
  for (ModeView& view : views_) {
    for (std::size_t t = 0; t < view.values.size(); ++t) {
      view.values[t] = list.value(view.list_pos[t]);
    }
  }
  BuildLanes();
}

void ModeMajorDeltaEngine::OnCoreEntriesRemoved(
    const std::vector<char>& removed) {
  // The list compacted in place keeping order; do the same to each view.
  // Old list ids map to new ids by counting the keeps before them.
  const std::int64_t old_size = static_cast<std::int64_t>(removed.size());
  std::vector<std::int32_t> new_id(static_cast<std::size_t>(old_size), -1);
  std::int32_t next = 0;
  for (std::int64_t b = 0; b < old_size; ++b) {
    if (!removed[static_cast<std::size_t>(b)]) {
      new_id[static_cast<std::size_t>(b)] = next++;
    }
  }
  PTUCKER_CHECK(static_cast<std::int64_t>(next) == core().size());

  const std::int64_t order = core().order();
  const std::int64_t width = order - 1;
  for (std::int64_t n = 0; n < order; ++n) {
    ModeView& view = views_[static_cast<std::size_t>(n)];
    const std::int64_t rank = static_cast<std::int64_t>(view.offsets.size()) - 1;
    std::int64_t write = 0;
    for (std::int64_t j = 0; j < rank; ++j) {
      const std::int64_t begin = view.offsets[static_cast<std::size_t>(j)];
      const std::int64_t end = view.offsets[static_cast<std::size_t>(j + 1)];
      view.offsets[static_cast<std::size_t>(j)] = write;
      for (std::int64_t t = begin; t < end; ++t) {
        const std::int32_t old_pos = view.list_pos[static_cast<std::size_t>(t)];
        if (removed[static_cast<std::size_t>(old_pos)]) continue;
        if (write != t) {
          for (std::int64_t w = 0; w < width; ++w) {
            view.cols[static_cast<std::size_t>(write * width + w)] =
                view.cols[static_cast<std::size_t>(t * width + w)];
          }
          view.values[static_cast<std::size_t>(write)] =
              view.values[static_cast<std::size_t>(t)];
        }
        view.list_pos[static_cast<std::size_t>(write)] =
            new_id[static_cast<std::size_t>(old_pos)];
        ++write;
      }
    }
    view.offsets[static_cast<std::size_t>(rank)] = write;
    view.cols.resize(static_cast<std::size_t>(write * width));
    view.values.resize(static_cast<std::size_t>(write));
    view.list_pos.resize(static_cast<std::size_t>(write));
  }

  BuildLanes();
}

#undef PTUCKER_OMP_SIMD

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
// Catalog + factory
// ---------------------------------------------------------------------------

namespace {

// The one table every consumer reads: the CLI parser accepts exactly these
// names/aliases and generates its --help engine list from the summaries,
// so accepted spellings and documentation cannot drift apart.
constexpr DeltaEngineDescriptor kDeltaEngineCatalog[] = {
    {DeltaEngineChoice::kAuto, "auto", nullptr,
     "follow the variant: cache variant -> Pres table, else modemajor"},
    {DeltaEngineChoice::kNaive, "naive", nullptr,
     "entry-major scan of the core list; the correctness oracle"},
    {DeltaEngineChoice::kModeMajor, "modemajor", nullptr,
     "per-mode regrouped core views, branch-free kernels (default)"},
    {DeltaEngineChoice::kCached, "cache", "cached",
     "the paper's Sec. III-C Pres table; O(1) delta per (alpha, beta)"},
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
             : DeltaEngineChoice::kModeMajor;
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
    case DeltaEngineChoice::kAuto:
      break;
  }
  PTUCKER_CHECK(false && "MakeDeltaEngine: resolve kAuto first");
  return nullptr;
}

}  // namespace ptucker
