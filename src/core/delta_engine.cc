#include "core/delta_engine.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/contraction_walk.h"
#include "util/logging.h"

namespace ptucker {

namespace {

// `#pragma omp simd` where the build has OpenMP; a plain loop otherwise.
#ifdef _OPENMP
#define PTUCKER_OMP_SIMD _Pragma("omp simd")
#else
#define PTUCKER_OMP_SIMD
#endif

// Throws std::invalid_argument, naming `engine`, unless the tensor order
// is in [1, DeltaEngine::kMaxOrder].
void CheckOrder(const char* engine, std::int64_t order) {
  if (order < 1 || order > DeltaEngine::kMaxOrder) {
    throw std::invalid_argument(
        std::string(engine) + " delta engine: tensor order " +
        std::to_string(order) + " is outside [1, " +
        std::to_string(DeltaEngine::kMaxOrder) + "]");
  }
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
    : DeltaEngine(core, std::move(factors)), charge_(tracker, 0) {
  CheckOrder("modemajor", core.order());
  PTUCKER_CHECK(static_cast<std::int64_t>(this->factors().size()) ==
                core.order());
  BuildLanes();
}

std::int64_t ModeMajorDeltaEngine::MergeGroups(std::int64_t mode,
                                               LaneView* lanes) const {
  const CoreEntryList& list = core();
  const std::int64_t order = list.order();
  const std::int64_t width = order - 1;
  std::vector<std::int64_t> ranks;
  for (const FactorView& factor : factors()) ranks.push_back(factor.cols());
  const std::int64_t rank = ranks[static_cast<std::size_t>(mode)];

  // The list ids regrouped by β_n, stably: group j spans
  // ids[offsets[j], offsets[j+1]) in list order, so per-group sums
  // reassociate nothing vs the naive scan. Scratch for this merge only.
  const std::vector<std::int64_t> ids =
      CsfOrder(list.index(0), list.size(), order, {mode}, ranks);
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(rank + 1), 0);
  for (std::int64_t b = 0; b < list.size(); ++b) {
    ++offsets[static_cast<std::size_t>(list.index(b)[mode] + 1)];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());

  std::vector<std::int64_t> head(offsets.begin(), offsets.end() - 1);
  auto live = [&](std::int64_t j) {
    return head[static_cast<std::size_t>(j)] <
           offsets[static_cast<std::size_t>(j + 1)];
  };
  auto entry = [&](std::int64_t j) {
    return ids[static_cast<std::size_t>(head[static_cast<std::size_t>(j)])];
  };
  auto tuple = [&](std::int64_t j) { return list.index(entry(j)); };
  // Tuples skip mode n and compare last coordinate first: a list collected
  // from a dense core (column-major) is sorted that way, so every group's
  // tuples ascend and the merge emits their sorted union — no tuple twice.
  auto precedes = [order, mode](const std::int32_t* a, const std::int32_t* b) {
    for (std::int64_t k = order - 1; k >= 0; --k) {
      if (k != mode && a[k] != b[k]) return a[k] < b[k];
    }
    return false;
  };
  auto same = [&](const std::int32_t* a, const std::int32_t* b) {
    return !precedes(a, b) && !precedes(b, a);
  };
  std::int64_t rows = 0;
  for (;;) {
    std::int64_t smallest = -1;
    for (std::int64_t j = 0; j < rank; ++j) {
      if (!live(j)) continue;
      if (smallest < 0 || precedes(tuple(j), tuple(smallest))) smallest = j;
    }
    if (smallest < 0) return rows;
    const std::int32_t* emitted = tuple(smallest);
    if (lanes != nullptr) {
      std::int32_t* col = lanes->cols.data() + rows * width;
      for (std::int64_t k = 0; k < order; ++k) {
        if (k != mode) *col++ = emitted[k];
      }
    }
    for (std::int64_t j = 0; j < rank; ++j) {
      if (!live(j) || !same(emitted, tuple(j))) continue;
      if (lanes != nullptr) {
        lanes->values[static_cast<std::size_t>(rows * rank + j)] =
            list.value(entry(j));
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
    const std::int64_t u = MergeGroups(n, nullptr);
    rows[static_cast<std::size_t>(n)] = u;
    lane_bytes += static_cast<std::int64_t>(sizeof(std::int32_t)) * u * width;
    lane_bytes += static_cast<std::int64_t>(sizeof(double)) * u * rank;
  }
  // Charge before allocating, like the cache table, so an over-budget
  // engine fails as OutOfMemoryBudget without building anything.
  charge_.Resize(lane_bytes);

  lanes_.resize(static_cast<std::size_t>(order));
  for (std::int64_t n = 0; n < order; ++n) {
    LaneView& lanes = lanes_[static_cast<std::size_t>(n)];
    const std::int64_t rank = factors()[static_cast<std::size_t>(n)].cols();
    lanes.rows = rows[static_cast<std::size_t>(n)];
    lanes.cols.resize(static_cast<std::size_t>(lanes.rows * width));
    lanes.values.assign(static_cast<std::size_t>(lanes.rows * rank), 0.0);
    MergeGroups(n, &lanes);
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

void ModeMajorDeltaEngine::OnCoreValuesChanged() { BuildLanes(); }

void ModeMajorDeltaEngine::OnCoreEntriesRemoved(
    const std::vector<char>& removed) {
  PTUCKER_CHECK(std::count(removed.begin(), removed.end(), char{0}) ==
                core().size());
  BuildLanes();
}

// ---------------------------------------------------------------------------
// CachedDeltaEngine
// ---------------------------------------------------------------------------

CachedDeltaEngine::CachedDeltaEngine(const SparseTensor& x,
                                     const CoreEntryList& core,
                                     const std::vector<Matrix>& factors,
                                     MemoryTracker* tracker)
    : DeltaEngine(core, factors), x_(&x), charge_(tracker, 0) {
  BuildTable();
}

double CachedDeltaEngine::Product(const std::int64_t* entry_index,
                                  std::int64_t b) const {
  const CoreEntryList& list = core();
  const std::int64_t order = list.order();
  const std::int32_t* beta = list.index(b);
  double product = list.value(b);
  for (std::int64_t k = 0; k < order; ++k) {
    product *= factors()[static_cast<std::size_t>(k)](entry_index[k], beta[k]);
  }
  return product;
}

void CachedDeltaEngine::BuildTable() {
  const std::int64_t n_entries = x_->nnz();
  const std::int64_t n_core = core().size();
  // Charge before allocating; free the old table before the new one.
  charge_.Resize(static_cast<std::int64_t>(sizeof(double)) * n_entries *
                 n_core);
  table_ = std::vector<double>();
  table_.resize(static_cast<std::size_t>(n_entries * n_core));

  // Section 1 of §III-D: rows of Pres are independent; fill in parallel
  // with static scheduling (uniform |G| work per row).
#pragma omp parallel for schedule(static)
  for (std::int64_t e = 0; e < n_entries; ++e) {
    const std::int64_t* idx = x_->index(e);
    double* row = table_.data() + static_cast<std::size_t>(e * n_core);
    for (std::int64_t b = 0; b < n_core; ++b) row[b] = Product(idx, b);
  }
}

void CachedDeltaEngine::ComputeDelta(std::int64_t entry,
                                     const std::int64_t* entry_index,
                                     std::int64_t mode, double* delta) const {
  if (entry < 0) {
    // Coordinates outside the tensor the table was built over.
    ptucker::ComputeDelta(core(), factors(), entry_index, mode, delta);
    return;
  }
  const CoreEntryList& list = core();
  const std::int64_t order = list.order();
  const std::int64_t n_core = list.size();
  const FactorView& a_n = factors()[static_cast<std::size_t>(mode)];
  const std::int64_t rank = a_n.cols();
  for (std::int64_t j = 0; j < rank; ++j) delta[j] = 0.0;

  const double* row = table_.data() + static_cast<std::size_t>(entry * n_core);
  for (std::int64_t b = 0; b < n_core; ++b) {
    const std::int32_t* beta = list.index(b);
    const double coefficient = a_n(entry_index[mode], beta[mode]);
    double contribution;
    if (coefficient != 0.0) {
      contribution = row[b] / coefficient;  // O(1) path (line 12)
    } else {
      // Zero coefficient: recompute the N-1 term product directly
      // (the paper's fallback to line 10).
      contribution = list.value(b);
      for (std::int64_t k = 0; k < order; ++k) {
        if (k == mode) continue;
        contribution *=
            factors()[static_cast<std::size_t>(k)](entry_index[k], beta[k]);
      }
    }
    delta[beta[mode]] += contribution;
  }
}

void CachedDeltaEngine::ReconstructBatch(std::int64_t count,
                                         const std::int64_t* const* indices,
                                         double* out) const {
  ReconstructFromList(core(), factors(), count, indices, out);
}

void CachedDeltaEngine::OnFactorUpdated(std::int64_t mode,
                                        const Matrix& old_factor) {
  const CoreEntryList& list = core();
  const FactorView& new_factor = factors()[static_cast<std::size_t>(mode)];
  const std::int64_t n_entries = x_->nnz();
  const std::int64_t n_core = list.size();
#pragma omp parallel for schedule(static)
  for (std::int64_t e = 0; e < n_entries; ++e) {
    const std::int64_t* idx = x_->index(e);
    double* row = table_.data() + static_cast<std::size_t>(e * n_core);
    for (std::int64_t b = 0; b < n_core; ++b) {
      const std::int32_t* beta = list.index(b);
      const double old_coefficient = old_factor(idx[mode], beta[mode]);
      if (old_coefficient != 0.0) {
        row[b] *= new_factor(idx[mode], beta[mode]) / old_coefficient;
      } else {
        row[b] = Product(idx, b);
      }
    }
  }
}

void CachedDeltaEngine::OnCoreValuesChanged() { BuildTable(); }

void CachedDeltaEngine::OnCoreEntriesRemoved(
    const std::vector<char>& /*removed*/) {
  BuildTable();  // the table is dense in |G|; rebuild from the new list
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

}  // namespace

ContractionDeltaEngine::ContractionDeltaEngine(
    const SparseTensor& x, const CoreEntryList& core,
    const std::vector<Matrix>& factors, MemoryTracker* tracker)
    : DeltaEngine(core, factors), nnz_(x.nnz()), charge_(tracker, 0) {
  CheckOrder("contraction", core.order());
  PTUCKER_CHECK(static_cast<std::int64_t>(factors.size()) == core.order());
  Rebuild();
}

std::int64_t ContractionDeltaEngine::MemoCapBytes(std::int64_t nnz,
                                                  std::int64_t order) {
  return SaturatingProduct(
      nnz, (order + 1) * static_cast<std::int64_t>(sizeof(double)));
}

std::int64_t ContractionDeltaEngine::memo_bytes(std::int64_t mode) const {
  const ModePlan& plan = plans_[static_cast<std::size_t>(mode)];
  return plan.memo.empty()
             ? 0
             : static_cast<std::int64_t>(sizeof(double) * plan.values.size());
}

std::int64_t ContractionDeltaEngine::MemoTableBytes() const {
  std::int64_t bytes = 0;
  for (std::size_t n = 0; n < plans_.size(); ++n) {
    bytes += memo_bytes(static_cast<std::int64_t>(n));
  }
  return bytes;
}

ContractionDeltaEngine::ModePlan ContractionDeltaEngine::MakeTree(
    std::int64_t mode, const std::vector<std::int64_t>& memo) const {
  const CoreEntryList& list = core();
  const std::int64_t order = list.order();
  const std::int64_t rank = factors()[static_cast<std::size_t>(mode)].cols();

  ModePlan plan;
  std::vector<std::int64_t> ranks(static_cast<std::size_t>(order));
  for (std::int64_t k = 0; k < order; ++k) {
    ranks[static_cast<std::size_t>(k)] =
        factors()[static_cast<std::size_t>(k)].cols();
    if (std::find(memo.begin(), memo.end(), k) != memo.end()) {
      plan.memo.push_back(k);
    } else if (k != mode) {
      plan.levels.push_back(k);
    }
  }
  // Array id = Σ i_k·stride_k, the last memoized mode fastest.
  plan.strides.resize(plan.memo.size());
  for (std::size_t s = plan.memo.size(); s-- > 0;) {
    plan.strides[s] = plan.tables;
    plan.tables = SaturatingProduct(
        plan.tables, factors()[static_cast<std::size_t>(plan.memo[s])].rows());
  }

  // R_n in ascending rank (ties by mode index): the fewest upper nodes.
  std::stable_sort(plan.levels.begin(), plan.levels.end(),
                   [&](std::int64_t a, std::int64_t b) {
                     return factors()[static_cast<std::size_t>(a)].cols() <
                            factors()[static_cast<std::size_t>(b)].cols();
                   });
  plan.tree =
      BuildCsfTree(list.index(0), list.size(), order, plan.levels, ranks);
  if (plan.levels.empty()) {
    plan.madds = rank;  // δ is one leaf array, copied
    return plan;
  }
  std::int64_t internal = 0;
  for (std::size_t l = 0; l + 1 < plan.levels.size(); ++l) {
    internal += static_cast<std::int64_t>(plan.tree.fids[l].size());
  }
  plan.leaves = static_cast<std::int64_t>(plan.tree.fids.back().size());
  plan.madds = internal + plan.leaves * (rank + 1);
  return plan;
}

std::vector<ContractionDeltaEngine::ModePlan>
ContractionDeltaEngine::MakePlans() const {
  const std::int64_t order = core().order();
  const std::int64_t n_core = core().size();
  const std::int64_t cap = MemoCapBytes(nnz_, order);

  // Each mode on its own: of the candidates k = |S_n| = 0, 1, … whose memo
  // bytes fit under the cap, the cheapest in multiply-adds per sweep (ties
  // keep the smaller k; k = 0 holds no memo bytes and always fits).
  std::vector<ModePlan> plans(static_cast<std::size_t>(order));
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
    double best_cost = 0.0;
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
      if (k > 0 && SaturatingProduct(SaturatingProduct(plan.tables,
                                                       plan.leaves),
                                     rank * 8) > cap) {
        continue;
      }
      const double sweep = static_cast<double>(nnz_) *
                           static_cast<double>(plan.madds);
      const double rebuilds = static_cast<double>(k) *
                              static_cast<double>(plan.tables) *
                              static_cast<double>(n_core) *
                              static_cast<double>(k + 1);
      if (k == 0 || sweep + rebuilds < best_cost) {
        best_cost = sweep + rebuilds;
        plans[static_cast<std::size_t>(n)] = std::move(plan);
      }
    }
  }
  return plans;
}

std::int64_t ContractionDeltaEngine::PlanBytes(
    const std::vector<ModePlan>& plans) const {
  const std::vector<FactorView>& f = factors();
  std::int64_t bytes = 0;
  for (std::size_t n = 0; n < plans.size(); ++n) {
    const ModePlan& plan = plans[n];
    for (const auto& fids : plan.tree.fids) {
      bytes += static_cast<std::int64_t>(sizeof(std::int32_t) * fids.size());
    }
    for (const auto& fptr : plan.tree.fptr) {
      bytes += static_cast<std::int64_t>(sizeof(std::int64_t) * fptr.size());
    }
    bytes += static_cast<std::int64_t>(sizeof(std::int32_t) *
                                       plan.tree.leaf_of.size());
    bytes += static_cast<std::int64_t>(sizeof(double)) * plan.tables *
             plan.leaves * f[n].cols();
  }
  return bytes;
}

void ContractionDeltaEngine::Rebuild() {
  std::vector<ModePlan> plans = MakePlans();
  // Charge the trees and every leaf array before allocating the arrays.
  charge_.Resize(PlanBytes(plans));
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
  // Each array is its own serial sum over the core list, so filling the
  // arrays in parallel changes no bits.
#pragma omp parallel for schedule(static) if (plan.tables > 1)
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
      out[plan.tree.leaf_of[static_cast<std::size_t>(b)] * rank +
          beta[mode]] += term;
    }
  }
}

void ContractionDeltaEngine::ComputeDelta(std::int64_t entry,
                                          const std::int64_t* entry_index,
                                          std::int64_t mode,
                                          double* delta) const {
  DeltaBatch(1, &entry, &entry_index, mode, delta);
}

void ContractionDeltaEngine::DeltaBatch(
    std::int64_t count, const std::int64_t* /*entries*/,
    const std::int64_t* const* entry_indices, std::int64_t mode,
    double* deltas) const {
  const ModePlan& plan = plans_[static_cast<std::size_t>(mode)];
  const std::int64_t rank = factors()[static_cast<std::size_t>(mode)].cols();
  const LeafArrays leaves{plan.values.data(), plan.memo.data(),
                          plan.strides.data(), plan.memo.size(),
                          plan.leaves * rank};
  if (plan.levels.empty()) {
    for (std::int64_t i = 0; i < count; ++i) {
      const double* values = leaves.Of(entry_indices[i]);
      std::copy(values, values + rank, deltas + i * rank);
    }
    return;
  }
  WalkContractionTree(plan.tree, plan.levels, factors(), leaves, rank, count,
                      entry_indices, deltas);
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

void ContractionDeltaEngine::ReconstructBatch(
    std::int64_t count, const std::int64_t* const* indices,
    double* out) const {
  const std::int64_t mode = reconstruct_mode_;
  const FactorView& factor = factors()[static_cast<std::size_t>(mode)];
  const std::int64_t rank = factor.cols();
  // δ of up to kDeltaChunk entries: on the stack up to rank 8, else one
  // heap buffer for the whole call.
  constexpr std::int64_t kStackRank = 8;
  double stack[kDeltaChunk * kStackRank];
  std::vector<double> heap;
  double* deltas = stack;
  if (rank > kStackRank) {
    heap.resize(static_cast<std::size_t>(kDeltaChunk * rank));
    deltas = heap.data();
  }
  std::int64_t entries[kDeltaChunk];
  std::fill(entries, entries + kDeltaChunk, std::int64_t{-1});
  for (std::int64_t first = 0; first < count; first += kDeltaChunk) {
    const std::int64_t chunk = std::min(kDeltaChunk, count - first);
    DeltaBatch(chunk, entries, indices + first, mode, deltas);
    // Reconstruct's fold, entry by entry.
    for (std::int64_t i = 0; i < chunk; ++i) {
      const double* coefficients = factor.Row(indices[first + i][mode]);
      const double* delta = deltas + i * rank;
      double sum = 0.0;
      for (std::int64_t j = 0; j < rank; ++j) sum += coefficients[j] * delta[j];
      out[first + i] = sum;
    }
  }
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
// names and generates its --help engine list from the summaries, so
// accepted spellings and documentation cannot drift apart.
constexpr DeltaEngineDescriptor kDeltaEngineCatalog[] = {
    {DeltaEngineChoice::kNaive, "naive",
     "entry-major scan of the core list; the correctness oracle"},
    {DeltaEngineChoice::kModeMajor, "modemajor",
     "per-mode lane views, bit-identical to naive (serving's kernel)"},
    {DeltaEngineChoice::kCached, "cache",
     "P-Tucker-Cache: Sec. III-C Pres table, O(1) delta per (alpha, beta)"},
    {DeltaEngineChoice::kContraction, "contraction",
     "core trees with memoized short modes, reassociated (default)"},
};

}  // namespace

Span<const DeltaEngineDescriptor> DeltaEngineCatalog() {
  return {kDeltaEngineCatalog,
          sizeof(kDeltaEngineCatalog) / sizeof(kDeltaEngineCatalog[0])};
}

const DeltaEngineDescriptor* FindDeltaEngineByName(const std::string& name) {
  for (const DeltaEngineDescriptor& descriptor : DeltaEngineCatalog()) {
    if (name == descriptor.name) return &descriptor;
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
  return options.delta_engine;
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
  }
  PTUCKER_CHECK(false && "MakeDeltaEngine: enumerator not handled");
  return nullptr;
}

}  // namespace ptucker
