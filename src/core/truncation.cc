#include "core/truncation.h"

#include <algorithm>
#include <numeric>

#include <omp.h>

#include "core/delta_engine.h"
#include "util/logging.h"
#include "util/memory_tracker.h"
#include "util/parallel.h"

namespace ptucker {

namespace {

// Per-lane worker of ComputePartialErrors: computes every c_αβ of one
// observed entry with ComputeProducts, then applies its Eq. 13 update —
// one pass over the products computes the reconstruction x̂_α, a second
// folds each product into R(β).
class PartialErrorWorker {
 public:
  PartialErrorWorker(const SparseTensor& x, const DeltaEngine& engine,
                     std::int64_t n_core)
      : x_(&x), engine_(&engine), n_core_(n_core),
        products_(static_cast<std::size_t>(n_core)) {}

  void operator()(std::int64_t e, double* local) {
    engine_->ComputeProducts(x_->index(e), products_.data());
    double reconstruction = 0.0;
    for (std::int64_t b = 0; b < n_core_; ++b) {
      reconstruction += products_[static_cast<std::size_t>(b)];
    }
    const double residual = x_->value(e) - reconstruction;
    for (std::int64_t b = 0; b < n_core_; ++b) {
      const double c = products_[static_cast<std::size_t>(b)];
      // (X−x̂)² − (X−x̂+c)² = −c·(c + 2(X−x̂)) — Eq. 13 in terms of
      // the residual.
      local[b] -= c * (c + 2.0 * residual);
    }
  }

 private:
  const SparseTensor* x_;
  const DeltaEngine* engine_;
  std::int64_t n_core_;
  std::vector<double> products_;
};

}  // namespace

std::vector<double> ComputePartialErrors(const SparseTensor& x,
                                         const CoreEntryList& core,
                                         const std::vector<Matrix>& factors,
                                         const DeltaEngine* engine,
                                         MemoryTracker* tracker) {
  const std::int64_t n_core = core.size();
  const std::size_t core_count = static_cast<std::size_t>(n_core);
  std::vector<double> result(core_count, 0.0);
  const NaiveDeltaEngine fallback(core, factors);
  const DeltaEngine& delta_engine = engine != nullptr ? *engine : fallback;

  // The per-thread products scratch (|G| doubles) is intermediate data
  // like any other; charge it for the duration of the scan.
  const std::int64_t scratch_bytes =
      static_cast<std::int64_t>(omp_get_max_threads()) *
      static_cast<std::int64_t>(sizeof(double)) * n_core;
  ScopedCharge scratch_charge(tracker, scratch_bytes);

  // Per-lane accumulators merged in lane order (no atomics on the hot
  // path, deterministic for every thread count).
  DeterministicParallelVectorSum(x.nnz(), core_count, result.data(), [&] {
    return PartialErrorWorker(x, delta_engine, n_core);
  });
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
      ComputePartialErrors(x, *core_list, factors, engine, tracker);

  // Rank descending by R(β); nth_element is enough — Algorithm 4 only
  // needs the top-p set, not a full sort.
  std::vector<std::int64_t> order(static_cast<std::size_t>(n_core));
  std::iota(order.begin(), order.end(), 0);
  std::nth_element(order.begin(), order.begin() + to_remove, order.end(),
                   [&](std::int64_t a, std::int64_t b) {
                     return partial_errors[static_cast<std::size_t>(a)] >
                            partial_errors[static_cast<std::size_t>(b)];
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
