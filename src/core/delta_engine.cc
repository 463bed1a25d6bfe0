#include "core/delta_engine.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace ptucker {

namespace {

// Whether the build can honor `#pragma omp simd`. The build requires
// OpenMP today, but the scalar fallback keeps the kernels correct in any
// future configuration without it.
#ifdef _OPENMP
constexpr bool kHaveOmpSimd = true;
#define PTUCKER_OMP_SIMD _Pragma("omp simd")
#else
constexpr bool kHaveOmpSimd = false;
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

void DeltaEngine::ReconstructBatch(std::int64_t count,
                                   const std::int64_t* const* entry_indices,
                                   double* out) const {
  for (std::int64_t i = 0; i < count; ++i) {
    out[i] = Reconstruct(entry_indices[i]);
  }
}

void DeltaEngine::ProductsBatch(std::int64_t count,
                                const std::int64_t* const* entry_indices,
                                double* products) const {
  const std::int64_t n_core = core().size();
  for (std::int64_t i = 0; i < count; ++i) {
    ComputeProducts(entry_indices[i], products + i * n_core);
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

// Σ over one group of the branch-free (N−1)-term products. Width-
// specialized so the common orders (3- and 4-way tensors) fully unroll.
inline double GroupSum(const double* values, const std::int32_t* cols,
                       std::int64_t begin, std::int64_t end,
                       std::int64_t width, const double* const* rows) {
  double acc = 0.0;
  switch (width) {
    case 1: {
      const double* r0 = rows[0];
      for (std::int64_t t = begin; t < end; ++t) {
        acc += values[t] * r0[cols[t]];
      }
      break;
    }
    case 2: {
      const double* r0 = rows[0];
      const double* r1 = rows[1];
      const std::int32_t* col = cols + begin * 2;
      for (std::int64_t t = begin; t < end; ++t, col += 2) {
        acc += values[t] * r0[col[0]] * r1[col[1]];
      }
      break;
    }
    case 3: {
      const double* r0 = rows[0];
      const double* r1 = rows[1];
      const double* r2 = rows[2];
      const std::int32_t* col = cols + begin * 3;
      for (std::int64_t t = begin; t < end; ++t, col += 3) {
        acc += values[t] * r0[col[0]] * r1[col[1]] * r2[col[2]];
      }
      break;
    }
    default: {
      const std::int32_t* col = cols + begin * width;
      for (std::int64_t t = begin; t < end; ++t, col += width) {
        double product = values[t];
        for (std::int64_t w = 0; w < width; ++w) {
          product *= rows[w][col[w]];
        }
        acc += product;
      }
      break;
    }
  }
  return acc;
}

// acc[j] = Σ_u ((values[u·stride + j]·p0)·p1)·…·p(width−1) for j < lanes,
// where p_w is the w-th non-mode factor value of lane row u. The factor
// values are gathered once per row and shared by every lane; per lane the
// multiply and accumulate order is GroupSum's, and the lanes are
// independent sums, so vectorizing across them reassociates nothing.
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

// ---------------------------------------------------------------------------
// AdaptiveDeltaEngine
// ---------------------------------------------------------------------------

AdaptiveDeltaEngine::AdaptiveDeltaEngine(const CoreEntryList& core,
                                         const std::vector<Matrix>& factors,
                                         MemoryTracker* tracker,
                                         double epsilon)
    : AdaptiveDeltaEngine(core, MakeFactorViews(factors), tracker, epsilon) {}

AdaptiveDeltaEngine::AdaptiveDeltaEngine(const CoreEntryList& core,
                                         std::vector<FactorView> factors,
                                         MemoryTracker* tracker,
                                         double epsilon)
    : ModeMajorDeltaEngine(core, std::move(factors), tracker),
      epsilon_(epsilon) {
  PTUCKER_CHECK(epsilon >= 0.0 && epsilon < 1.0);
  RecomputeSkips();
}

void AdaptiveDeltaEngine::RecomputeSkips() {
  const std::int64_t order = core().order();
  skip_.assign(static_cast<std::size_t>(order), {});
  for (std::int64_t n = 0; n < order; ++n) {
    const ModeView& v = view(n);
    const std::int64_t rank =
        static_cast<std::int64_t>(v.offsets.size()) - 1;
    std::vector<double> weight(static_cast<std::size_t>(rank), 0.0);
    double total = 0.0;
    for (std::int64_t j = 0; j < rank; ++j) {
      double w = 0.0;
      for (std::int64_t t = v.offsets[static_cast<std::size_t>(j)];
           t < v.offsets[static_cast<std::size_t>(j + 1)]; ++t) {
        w += std::fabs(v.values[static_cast<std::size_t>(t)]);
      }
      weight[static_cast<std::size_t>(j)] = w;
      total += w;
    }

    // Greedy smallest-weight-first (index tie-break keeps the selection
    // deterministic): skip groups while their cumulative magnitude stays
    // within the ε fraction of the view's total. At ε = 0 only empty /
    // zero-weight groups qualify, whose δ component is an exact 0 anyway —
    // hence bit-identity with the mode-major engine.
    std::vector<std::int64_t> by_weight(static_cast<std::size_t>(rank));
    std::iota(by_weight.begin(), by_weight.end(), 0);
    std::sort(by_weight.begin(), by_weight.end(),
              [&](std::int64_t a, std::int64_t b) {
                const double wa = weight[static_cast<std::size_t>(a)];
                const double wb = weight[static_cast<std::size_t>(b)];
                return wa != wb ? wa < wb : a < b;
              });
    std::vector<char>& skip = skip_[static_cast<std::size_t>(n)];
    skip.assign(static_cast<std::size_t>(rank), 0);
    const double budget = epsilon_ * total;
    double cumulative = 0.0;
    for (const std::int64_t j : by_weight) {
      const double w = weight[static_cast<std::size_t>(j)];
      if (cumulative + w > budget) break;  // heavier groups cannot fit
      cumulative += w;
      skip[static_cast<std::size_t>(j)] = 1;
    }
  }
}

void AdaptiveDeltaEngine::ComputeDelta(std::int64_t /*entry*/,
                                       const std::int64_t* entry_index,
                                       std::int64_t mode,
                                       double* delta) const {
  const ModeView& v = view(mode);
  const std::int64_t order = core().order();
  const std::int64_t width = order - 1;
  const std::int64_t rank =
      factors()[static_cast<std::size_t>(mode)].cols();
  const char* skip = skip_[static_cast<std::size_t>(mode)].data();
  const double* rows[kMaxOrder];
  GatherRows(factors(), entry_index, order, mode, rows);
  for (std::int64_t j = 0; j < rank; ++j) {
    if (skip[j]) {
      delta[j] = 0.0;  // the group's |G| mass is inside the ε budget
      continue;
    }
    delta[j] = GroupSum(v.values.data(), v.cols.data(),
                        v.offsets[static_cast<std::size_t>(j)],
                        v.offsets[static_cast<std::size_t>(j + 1)], width,
                        rows);
  }
}

void AdaptiveDeltaEngine::OnCoreValuesChanged() {
  ModeMajorDeltaEngine::OnCoreValuesChanged();
  RecomputeSkips();
}

void AdaptiveDeltaEngine::OnCoreEntriesRemoved(
    const std::vector<char>& removed) {
  ModeMajorDeltaEngine::OnCoreEntriesRemoved(removed);
  RecomputeSkips();
}

std::int64_t AdaptiveDeltaEngine::SkippedGroups(std::int64_t mode) const {
  const std::vector<char>& skip = skip_[static_cast<std::size_t>(mode)];
  std::int64_t count = 0;
  for (const char s : skip) count += s != 0 ? 1 : 0;
  return count;
}

// ---------------------------------------------------------------------------
// TiledDeltaEngine
// ---------------------------------------------------------------------------

TiledDeltaEngine::TiledDeltaEngine(const CoreEntryList& core,
                                   const std::vector<Matrix>& factors,
                                   MemoryTracker* tracker,
                                   std::int64_t tile_width)
    : TiledDeltaEngine(core, MakeFactorViews(factors), tracker, tile_width) {}

TiledDeltaEngine::TiledDeltaEngine(const CoreEntryList& core,
                                   std::vector<FactorView> factors,
                                   MemoryTracker* tracker,
                                   std::int64_t tile_width)
    : ModeMajorDeltaEngine(core, std::move(factors), tracker),
      tile_(std::min<std::int64_t>(tile_width, kMaxTile)) {
  PTUCKER_CHECK(tile_width >= 1);
}

bool TiledDeltaEngine::SimdEligible(std::int64_t count,
                                    std::int64_t mode) const {
  if (!kHaveOmpSimd || count < kSimdMinTile) return false;
  const std::int64_t order = core().order();
  const std::int64_t width = order - 1;
  if (width < 1 || width > kMaxPackWidth) return false;
  for (std::int64_t k = 0; k < order; ++k) {
    if (k == mode) continue;
    if (factors()[static_cast<std::size_t>(k)].cols() > kMaxPackRank) {
      return false;
    }
  }
  return true;
}

void TiledDeltaEngine::DeltaBatch(std::int64_t count,
                                  const std::int64_t* entries,
                                  const std::int64_t* const* entry_indices,
                                  std::int64_t mode, double* deltas) const {
  (void)entries;  // the regrouped kernel only needs coordinates
  const std::int64_t rank =
      factors()[static_cast<std::size_t>(mode)].cols();
  for (std::int64_t start = 0; start < count; start += tile_) {
    const std::int64_t chunk = std::min(tile_, count - start);
    if (SimdEligible(chunk, mode)) {
      TileKernelSimd(entry_indices + start, chunk, mode,
                     deltas + start * rank);
    } else {
      TileKernelScalar(entry_indices + start, chunk, mode,
                       deltas + start * rank);
    }
  }
}

void TiledDeltaEngine::ReconstructBatch(
    std::int64_t count, const std::int64_t* const* entry_indices,
    double* out) const {
  for (std::int64_t start = 0; start < count; start += tile_) {
    const std::int64_t chunk = std::min(tile_, count - start);
    if (SimdEligible(chunk, /*mode=*/0)) {
      ReconstructTileSimd(entry_indices + start, chunk, out + start);
    } else {
      ReconstructTileScalar(entry_indices + start, chunk, out + start);
    }
  }
}

void TiledDeltaEngine::ProductsBatch(std::int64_t count,
                                     const std::int64_t* const* entry_indices,
                                     double* products) const {
  const std::int64_t n_core = core().size();
  for (std::int64_t start = 0; start < count; start += tile_) {
    const std::int64_t chunk = std::min(tile_, count - start);
    if (SimdEligible(chunk, /*mode=*/0)) {
      ProductsTileSimd(entry_indices + start, chunk,
                       products + start * n_core);
    } else {
      ProductsTileScalar(entry_indices + start, chunk,
                         products + start * n_core);
    }
  }
}

namespace {

// One group's tile contributions from per-lane row pointers:
// acc[i] = Σ_t value_t · Π_w rows[w][i][col_w], accumulated in t order —
// the same multiply/accumulate order as GroupSum, so every lane is
// bit-identical to the mode-major per-entry scan. Width-specialized like
// GroupSum; shared by the scalar δ and x̂ tile kernels so the group
// stream exists exactly once.
inline void AccumulateGroupRows(
    const double* values, const std::int32_t* cols, std::int64_t begin,
    std::int64_t end, std::int64_t width,
    const double* const (*rows)[TiledDeltaEngine::kMaxTile],
    std::int64_t count, double* acc) {
  for (std::int64_t i = 0; i < count; ++i) acc[i] = 0.0;
  switch (width) {
    case 1: {
      const double* const* r0 = rows[0];
      for (std::int64_t t = begin; t < end; ++t) {
        const double value = values[t];
        const std::int32_t c0 = cols[t];
        for (std::int64_t i = 0; i < count; ++i) {
          acc[i] += value * r0[i][c0];
        }
      }
      break;
    }
    case 2: {
      const double* const* r0 = rows[0];
      const double* const* r1 = rows[1];
      const std::int32_t* col = cols + begin * 2;
      for (std::int64_t t = begin; t < end; ++t, col += 2) {
        const double value = values[t];
        const std::int32_t c0 = col[0];
        const std::int32_t c1 = col[1];
        for (std::int64_t i = 0; i < count; ++i) {
          acc[i] += value * r0[i][c0] * r1[i][c1];
        }
      }
      break;
    }
    case 3: {
      const double* const* r0 = rows[0];
      const double* const* r1 = rows[1];
      const double* const* r2 = rows[2];
      const std::int32_t* col = cols + begin * 3;
      for (std::int64_t t = begin; t < end; ++t, col += 3) {
        const double value = values[t];
        const std::int32_t c0 = col[0];
        const std::int32_t c1 = col[1];
        const std::int32_t c2 = col[2];
        for (std::int64_t i = 0; i < count; ++i) {
          acc[i] += value * r0[i][c0] * r1[i][c1] * r2[i][c2];
        }
      }
      break;
    }
    default: {
      const std::int32_t* col = cols + begin * width;
      for (std::int64_t t = begin; t < end; ++t, col += width) {
        const double value = values[t];
        for (std::int64_t i = 0; i < count; ++i) {
          double product = value;
          for (std::int64_t w = 0; w < width; ++w) {
            product *= rows[w][i][col[w]];
          }
          acc[i] += product;
        }
      }
      break;
    }
  }
}

}  // namespace

void TiledDeltaEngine::TileKernelScalar(
    const std::int64_t* const* entry_indices, std::int64_t count,
    std::int64_t mode, double* deltas) const {
  const ModeView& v = view(mode);
  const std::int64_t order = core().order();
  const std::int64_t width = order - 1;
  const std::int64_t rank =
      factors()[static_cast<std::size_t>(mode)].cols();
  // Slot-major factor-row pointers: rows[w][i] is tile entry i's row for
  // the w-th non-mode mode, so the width-specialized loops below index a
  // contiguous pointer array per slot.
  const double* rows[kMaxOrder][kMaxTile];
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t* idx = entry_indices[i];
    std::int64_t w = 0;
    for (std::int64_t k = 0; k < order; ++k) {
      if (k == mode) continue;
      rows[w++][i] = factors()[static_cast<std::size_t>(k)].Row(idx[k]);
    }
  }

  const double* values = v.values.data();
  const std::int32_t* cols = v.cols.data();
  double acc[kMaxTile];
  for (std::int64_t j = 0; j < rank; ++j) {
    // Each core entry's value/columns are loaded once and applied to the
    // whole tile; the count-many accumulators are independent dependency
    // chains, unlike the single running sum of the per-entry kernel.
    AccumulateGroupRows(values, cols, v.offsets[static_cast<std::size_t>(j)],
                        v.offsets[static_cast<std::size_t>(j + 1)], width,
                        rows, count, acc);
    for (std::int64_t i = 0; i < count; ++i) {
      deltas[i * rank + j] = acc[i];
    }
  }
}

// ---------------------------------------------------------------------------
// SIMD tile kernels. Each packs the tile's factor rows into transposed
// scratch first — packed[w][c·count + i] holds lane i's coefficient for
// column c of the w-th non-mode factor — so the `#pragma omp simd` lane
// loops load contiguous vectors (one unit-stride block per streamed core
// entry) instead of dereferencing count row pointers per group entry.
// The arithmetic per lane is exactly the scalar kernel's (same values,
// same multiply/accumulate order), so the two paths are bit-identical.
// ---------------------------------------------------------------------------

namespace {

// Pack scratch of one SIMD tile call (sized by the SimdEligible bounds).
struct PackedTile {
  double slots[TiledDeltaEngine::kMaxPackWidth]
              [TiledDeltaEngine::kMaxTile * TiledDeltaEngine::kMaxPackRank];
};

// Transposes the tile's factor rows for every mode except `skip` into
// `pack` (ascending mode order, like GatherRows).
inline void PackRows(const std::vector<FactorView>& factors,
                     const std::int64_t* const* entry_indices,
                     std::int64_t count, std::int64_t order, std::int64_t skip,
                     PackedTile* pack) {
  std::int64_t w = 0;
  for (std::int64_t k = 0; k < order; ++k) {
    if (k == skip) continue;
    const FactorView& factor = factors[static_cast<std::size_t>(k)];
    const std::int64_t rank = factor.cols();
    double* packed = pack->slots[w++];
    for (std::int64_t i = 0; i < count; ++i) {
      const double* row = factor.Row(entry_indices[i][k]);
      for (std::int64_t c = 0; c < rank; ++c) {
        packed[c * count + i] = row[c];
      }
    }
  }
}

// Packed counterpart of AccumulateGroupRows: the same group stream and
// multiply/accumulate order, reading each factor column's lane values as
// one unit-stride block of the transposed pack, with `#pragma omp simd`
// lane loops. Bit-identical to AccumulateGroupRows. Width is in
// [1, kMaxPackWidth] (SimdEligible), so 3 is the default case. Shared by
// the SIMD delta and x-hat tile kernels.
inline void AccumulateGroupPacked(const double* values,
                                  const std::int32_t* cols,
                                  std::int64_t begin, std::int64_t end,
                                  std::int64_t width, const double* p0,
                                  const double* p1, const double* p2,
                                  std::int64_t count, double* acc) {
  PTUCKER_OMP_SIMD
  for (std::int64_t i = 0; i < count; ++i) acc[i] = 0.0;
  switch (width) {
    case 1: {
      for (std::int64_t t = begin; t < end; ++t) {
        const double value = values[t];
        const double* a0 = p0 + cols[t] * count;
        PTUCKER_OMP_SIMD
        for (std::int64_t i = 0; i < count; ++i) {
          acc[i] += value * a0[i];
        }
      }
      break;
    }
    case 2: {
      const std::int32_t* col = cols + begin * 2;
      for (std::int64_t t = begin; t < end; ++t, col += 2) {
        const double value = values[t];
        const double* a0 = p0 + col[0] * count;
        const double* a1 = p1 + col[1] * count;
        PTUCKER_OMP_SIMD
        for (std::int64_t i = 0; i < count; ++i) {
          acc[i] += value * a0[i] * a1[i];
        }
      }
      break;
    }
    default: {  // width == 3, the SimdEligible cap
      const std::int32_t* col = cols + begin * 3;
      for (std::int64_t t = begin; t < end; ++t, col += 3) {
        const double value = values[t];
        const double* a0 = p0 + col[0] * count;
        const double* a1 = p1 + col[1] * count;
        const double* a2 = p2 + col[2] * count;
        PTUCKER_OMP_SIMD
        for (std::int64_t i = 0; i < count; ++i) {
          acc[i] += value * a0[i] * a1[i] * a2[i];
        }
      }
      break;
    }
  }
}

}  // namespace

void TiledDeltaEngine::TileKernelSimd(const std::int64_t* const* entry_indices,
                                      std::int64_t count, std::int64_t mode,
                                      double* deltas) const {
  const ModeView& v = view(mode);
  const std::int64_t order = core().order();
  const std::int64_t width = order - 1;
  const std::int64_t rank =
      factors()[static_cast<std::size_t>(mode)].cols();
  PackedTile pack;
  PackRows(factors(), entry_indices, count, order, mode, &pack);
  const double* p0 = pack.slots[0];
  const double* p1 = pack.slots[1];
  const double* p2 = pack.slots[2];

  const double* values = v.values.data();
  const std::int32_t* cols = v.cols.data();
  double acc[kMaxTile];
  for (std::int64_t j = 0; j < rank; ++j) {
    AccumulateGroupPacked(values, cols,
                          v.offsets[static_cast<std::size_t>(j)],
                          v.offsets[static_cast<std::size_t>(j + 1)], width,
                          p0, p1, p2, count, acc);
    for (std::int64_t i = 0; i < count; ++i) {
      deltas[i * rank + j] = acc[i];
    }
  }
}

void TiledDeltaEngine::ReconstructTileScalar(
    const std::int64_t* const* entry_indices, std::int64_t count,
    double* out) const {
  const ModeView& v = view(0);
  const std::int64_t order = core().order();
  const std::int64_t width = order - 1;
  const std::int64_t rank = factors()[0].cols();
  // Slot-major row pointers for modes 1..N−1 plus each lane's mode-0
  // coefficient row (the column factored out of view 0).
  const double* rows[kMaxOrder][kMaxTile];
  const double* coefficients[kMaxTile];
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t* idx = entry_indices[i];
    coefficients[i] = factors()[0].Row(idx[0]);
    std::int64_t w = 0;
    for (std::int64_t k = 1; k < order; ++k) {
      rows[w++][i] = factors()[static_cast<std::size_t>(k)].Row(idx[k]);
    }
  }

  const double* values = v.values.data();
  const std::int32_t* cols = v.cols.data();
  double total[kMaxTile];
  double acc[kMaxTile];
  for (std::int64_t i = 0; i < count; ++i) total[i] = 0.0;
  for (std::int64_t j = 0; j < rank; ++j) {
    AccumulateGroupRows(values, cols, v.offsets[static_cast<std::size_t>(j)],
                        v.offsets[static_cast<std::size_t>(j + 1)], width,
                        rows, count, acc);
    // Per-lane group skip, exactly like the mode-major Reconstruct: a
    // zero coefficient never touches the running sum, so x̂ stays
    // bit-identical to the per-entry kernel lane by lane.
    for (std::int64_t i = 0; i < count; ++i) {
      const double coefficient = coefficients[i][j];
      if (coefficient != 0.0) total[i] += coefficient * acc[i];
    }
  }
  for (std::int64_t i = 0; i < count; ++i) out[i] = total[i];
}

void TiledDeltaEngine::ReconstructTileSimd(
    const std::int64_t* const* entry_indices, std::int64_t count,
    double* out) const {
  const ModeView& v = view(0);
  const std::int64_t order = core().order();
  const std::int64_t width = order - 1;
  const std::int64_t rank = factors()[0].cols();
  PackedTile pack;
  PackRows(factors(), entry_indices, count, order, /*skip=*/0, &pack);
  const double* p0 = pack.slots[0];
  const double* p1 = pack.slots[1];
  const double* p2 = pack.slots[2];
  const double* coefficients[kMaxTile];
  for (std::int64_t i = 0; i < count; ++i) {
    coefficients[i] = factors()[0].Row(entry_indices[i][0]);
  }

  const double* values = v.values.data();
  const std::int32_t* cols = v.cols.data();
  double total[kMaxTile];
  double acc[kMaxTile];
  PTUCKER_OMP_SIMD
  for (std::int64_t i = 0; i < count; ++i) total[i] = 0.0;
  for (std::int64_t j = 0; j < rank; ++j) {
    AccumulateGroupPacked(values, cols,
                          v.offsets[static_cast<std::size_t>(j)],
                          v.offsets[static_cast<std::size_t>(j + 1)], width,
                          p0, p1, p2, count, acc);
    // Per-lane group skip, exactly like the mode-major Reconstruct (kept
    // scalar: the skip must not turn into an added 0.0).
    for (std::int64_t i = 0; i < count; ++i) {
      const double coefficient = coefficients[i][j];
      if (coefficient != 0.0) total[i] += coefficient * acc[i];
    }
  }
  for (std::int64_t i = 0; i < count; ++i) out[i] = total[i];
}

void TiledDeltaEngine::ProductsTileScalar(
    const std::int64_t* const* entry_indices, std::int64_t count,
    double* products) const {
  const ModeView& v = view(0);
  const std::int64_t order = core().order();
  const std::int64_t width = order - 1;
  const std::int64_t rank = factors()[0].cols();
  const std::int64_t n_core = core().size();
  const double* rows[kMaxOrder][kMaxTile];
  const double* coefficients[kMaxTile];
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t* idx = entry_indices[i];
    coefficients[i] = factors()[0].Row(idx[0]);
    std::int64_t w = 0;
    for (std::int64_t k = 1; k < order; ++k) {
      rows[w++][i] = factors()[static_cast<std::size_t>(k)].Row(idx[k]);
    }
  }

  const double* values = v.values.data();
  const std::int32_t* cols = v.cols.data();
  const std::int32_t* list_pos = v.list_pos.data();
  double cvec[kMaxTile];
  for (std::int64_t j = 0; j < rank; ++j) {
    const std::int64_t begin = v.offsets[static_cast<std::size_t>(j)];
    const std::int64_t end = v.offsets[static_cast<std::size_t>(j + 1)];
    // Hoist the group's mode-0 coefficients into a lane vector once, so
    // the store loops below don't reload coefficients[i][j] per group
    // entry (the stores could alias the factor rows).
    for (std::int64_t i = 0; i < count; ++i) cvec[i] = coefficients[i][j];
    // Per (group entry, lane): value · coefficient first, remaining modes
    // ascending — ComputeProducts' multiply order — with an exact 0.0
    // written for zero coefficients (matching its group-level skip), so
    // every lane's products equal the per-entry kernel bit-for-bit. The
    // lane loop scatters with stride |G| into each lane's products block.
    switch (width) {
      case 1: {
        const double* const* r0 = rows[0];
        for (std::int64_t t = begin; t < end; ++t) {
          const double value = values[t];
          const std::int32_t c0 = cols[t];
          double* slot = products + list_pos[t];
          for (std::int64_t i = 0; i < count; ++i) {
            const double coefficient = cvec[i];
            slot[i * n_core] =
                coefficient == 0.0 ? 0.0 : value * coefficient * r0[i][c0];
          }
        }
        break;
      }
      case 2: {
        const double* const* r0 = rows[0];
        const double* const* r1 = rows[1];
        const std::int32_t* col = cols + begin * 2;
        for (std::int64_t t = begin; t < end; ++t, col += 2) {
          const double value = values[t];
          const std::int32_t c0 = col[0];
          const std::int32_t c1 = col[1];
          double* slot = products + list_pos[t];
          for (std::int64_t i = 0; i < count; ++i) {
            const double coefficient = cvec[i];
            slot[i * n_core] =
                coefficient == 0.0
                    ? 0.0
                    : value * coefficient * r0[i][c0] * r1[i][c1];
          }
        }
        break;
      }
      case 3: {
        const double* const* r0 = rows[0];
        const double* const* r1 = rows[1];
        const double* const* r2 = rows[2];
        const std::int32_t* col = cols + begin * 3;
        for (std::int64_t t = begin; t < end; ++t, col += 3) {
          const double value = values[t];
          const std::int32_t c0 = col[0];
          const std::int32_t c1 = col[1];
          const std::int32_t c2 = col[2];
          double* slot = products + list_pos[t];
          for (std::int64_t i = 0; i < count; ++i) {
            const double coefficient = cvec[i];
            slot[i * n_core] =
                coefficient == 0.0
                    ? 0.0
                    : value * coefficient * r0[i][c0] * r1[i][c1] * r2[i][c2];
          }
        }
        break;
      }
      default: {
        const std::int32_t* col = cols + begin * width;
        for (std::int64_t t = begin; t < end; ++t, col += width) {
          const double value = values[t];
          double* slot = products + list_pos[t];
          for (std::int64_t i = 0; i < count; ++i) {
            const double coefficient = cvec[i];
            if (coefficient == 0.0) {
              slot[i * n_core] = 0.0;
              continue;
            }
            double product = value * coefficient;
            for (std::int64_t w = 0; w < width; ++w) {
              product *= rows[w][i][col[w]];
            }
            slot[i * n_core] = product;
          }
        }
        break;
      }
    }
  }
}

void TiledDeltaEngine::ProductsTileSimd(
    const std::int64_t* const* entry_indices, std::int64_t count,
    double* products) const {
  const ModeView& v = view(0);
  const std::int64_t order = core().order();
  const std::int64_t width = order - 1;
  const std::int64_t rank = factors()[0].cols();
  const std::int64_t n_core = core().size();
  PackedTile pack;
  PackRows(factors(), entry_indices, count, order, /*skip=*/0, &pack);
  const double* p0 = pack.slots[0];
  const double* p1 = pack.slots[1];
  const double* p2 = pack.slots[2];
  const double* coefficients[kMaxTile];
  for (std::int64_t i = 0; i < count; ++i) {
    coefficients[i] = factors()[0].Row(entry_indices[i][0]);
  }

  const double* values = v.values.data();
  const std::int32_t* cols = v.cols.data();
  const std::int32_t* list_pos = v.list_pos.data();
  double cvec[kMaxTile];
  for (std::int64_t j = 0; j < rank; ++j) {
    const std::int64_t begin = v.offsets[static_cast<std::size_t>(j)];
    const std::int64_t end = v.offsets[static_cast<std::size_t>(j + 1)];
    // One contiguous lane vector of the group's mode-0 coefficients, so
    // the store loops below read it unit-stride.
    for (std::int64_t i = 0; i < count; ++i) cvec[i] = coefficients[i][j];
    switch (width) {
      case 1: {
        for (std::int64_t t = begin; t < end; ++t) {
          const double value = values[t];
          const double* a0 = p0 + cols[t] * count;
          double* slot = products + list_pos[t];
          PTUCKER_OMP_SIMD
          for (std::int64_t i = 0; i < count; ++i) {
            const double coefficient = cvec[i];
            slot[i * n_core] =
                coefficient == 0.0 ? 0.0 : value * coefficient * a0[i];
          }
        }
        break;
      }
      case 2: {
        const std::int32_t* col = cols + begin * 2;
        for (std::int64_t t = begin; t < end; ++t, col += 2) {
          const double value = values[t];
          const double* a0 = p0 + col[0] * count;
          const double* a1 = p1 + col[1] * count;
          double* slot = products + list_pos[t];
          PTUCKER_OMP_SIMD
          for (std::int64_t i = 0; i < count; ++i) {
            const double coefficient = cvec[i];
            slot[i * n_core] = coefficient == 0.0
                                   ? 0.0
                                   : value * coefficient * a0[i] * a1[i];
          }
        }
        break;
      }
      default: {  // width == 3, the SimdEligible cap
        const std::int32_t* col = cols + begin * 3;
        for (std::int64_t t = begin; t < end; ++t, col += 3) {
          const double value = values[t];
          const double* a0 = p0 + col[0] * count;
          const double* a1 = p1 + col[1] * count;
          const double* a2 = p2 + col[2] * count;
          double* slot = products + list_pos[t];
          PTUCKER_OMP_SIMD
          for (std::int64_t i = 0; i < count; ++i) {
            const double coefficient = cvec[i];
            slot[i * n_core] =
                coefficient == 0.0
                    ? 0.0
                    : value * coefficient * a0[i] * a1[i] * a2[i];
          }
        }
        break;
      }
    }
  }
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
      table_(std::make_unique<CacheTable>(x, core, factors, tracker)) {}

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
    {DeltaEngineChoice::kAdaptive, "adaptive", nullptr,
     "modemajor + skip of low-|G| core groups under --adaptive-eps"},
    {DeltaEngineChoice::kTiled, "tiled", nullptr,
     "modemajor + SIMD delta/x-hat/products kernels over tiles of "
     "--tile-width entries"},
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
    double adaptive_epsilon, std::int64_t tile_width) {
  switch (choice) {
    case DeltaEngineChoice::kNaive:
      return std::make_unique<NaiveDeltaEngine>(core, factors);
    case DeltaEngineChoice::kModeMajor:
      return std::make_unique<ModeMajorDeltaEngine>(core, factors, tracker);
    case DeltaEngineChoice::kCached:
      return std::make_unique<CachedDeltaEngine>(x, core, factors, tracker);
    case DeltaEngineChoice::kAdaptive:
      return std::make_unique<AdaptiveDeltaEngine>(core, factors, tracker,
                                                   adaptive_epsilon);
    case DeltaEngineChoice::kTiled:
      return std::make_unique<TiledDeltaEngine>(core, factors, tracker,
                                                tile_width);
    case DeltaEngineChoice::kAuto:
      break;
  }
  PTUCKER_CHECK(false && "MakeDeltaEngine: resolve kAuto first");
  return nullptr;
}

}  // namespace ptucker
