#include "core/delta.h"

#include <algorithm>

#include "util/cpu.h"
#include "util/logging.h"

namespace ptucker {

CoreEntryList::CoreEntryList(std::int64_t order,
                             Span<const std::int32_t> indices,
                             Span<const double> values)
    : order_(order),
      indices_(indices.begin(), indices.end()),
      values_(values.begin(), values.end()) {
  PTUCKER_CHECK(order_ >= 1);
  PTUCKER_CHECK(indices.size() ==
                values.size() * static_cast<std::size_t>(order_));
}

CoreEntryList::CoreEntryList(const DenseTensor& core) : order_(core.order()) {
  std::vector<std::int64_t> index(static_cast<std::size_t>(order_));
  for (std::int64_t linear = 0; linear < core.size(); ++linear) {
    const double value = core[linear];
    if (value == 0.0) continue;
    core.IndexOf(linear, index.data());
    for (std::int64_t k = 0; k < order_; ++k) {
      indices_.push_back(static_cast<std::int32_t>(
          index[static_cast<std::size_t>(k)]));
    }
    values_.push_back(value);
  }
}

void CoreEntryList::RefreshValues(const DenseTensor& core) {
  std::vector<std::int64_t> index(static_cast<std::size_t>(order_));
  for (std::int64_t b = 0; b < size(); ++b) {
    const std::int32_t* idx = this->index(b);
    for (std::int64_t k = 0; k < order_; ++k) {
      index[static_cast<std::size_t>(k)] = idx[k];
    }
    values_[static_cast<std::size_t>(b)] = core.at(index.data());
  }
}

std::int64_t CoreEntryList::Remove(const std::vector<char>& remove,
                                   DenseTensor* core) {
  PTUCKER_CHECK(static_cast<std::int64_t>(remove.size()) == size());
  std::vector<std::int64_t> index(static_cast<std::size_t>(order_));
  std::int64_t write = 0;
  std::int64_t removed = 0;
  for (std::int64_t b = 0; b < size(); ++b) {
    if (remove[static_cast<std::size_t>(b)]) {
      ++removed;
      if (core != nullptr) {
        const std::int32_t* idx = this->index(b);
        for (std::int64_t k = 0; k < order_; ++k) {
          index[static_cast<std::size_t>(k)] = idx[k];
        }
        core->at(index.data()) = 0.0;
      }
      continue;
    }
    if (write != b) {
      for (std::int64_t k = 0; k < order_; ++k) {
        indices_[static_cast<std::size_t>(write * order_ + k)] =
            indices_[static_cast<std::size_t>(b * order_ + k)];
      }
      values_[static_cast<std::size_t>(write)] =
          values_[static_cast<std::size_t>(b)];
    }
    ++write;
  }
  indices_.resize(static_cast<std::size_t>(write * order_));
  values_.resize(static_cast<std::size_t>(write));
  return removed;
}

void ComputeDelta(const CoreEntryList& core,
                  const std::vector<FactorView>& factors,
                  const std::int64_t* entry_index, std::int64_t mode,
                  double* delta) {
  const std::int64_t order = core.order();
  const std::int64_t rank = factors[static_cast<std::size_t>(mode)].cols();
  for (std::int64_t j = 0; j < rank; ++j) delta[j] = 0.0;

  const std::int64_t n_entries = core.size();
  for (std::int64_t b = 0; b < n_entries; ++b) {
    const std::int32_t* beta = core.index(b);
    double product = core.value(b);
    for (std::int64_t k = 0; k < order; ++k) {
      if (k == mode) continue;
      product *= factors[static_cast<std::size_t>(k)](entry_index[k],
                                                      beta[k]);
    }
    delta[beta[mode]] += product;
  }
}

double ReconstructFromList(const CoreEntryList& core,
                           const std::vector<FactorView>& factors,
                           const std::int64_t* entry_index) {
  const std::int64_t order = core.order();
  const std::int64_t n_entries = core.size();
  double sum = 0.0;
  for (std::int64_t b = 0; b < n_entries; ++b) {
    const std::int32_t* beta = core.index(b);
    double product = core.value(b);
    for (std::int64_t k = 0; k < order; ++k) {
      product *= factors[static_cast<std::size_t>(k)](entry_index[k],
                                                      beta[k]);
    }
    sum += product;
  }
  return sum;
}

namespace delta_generic {
#include "core/delta_batch.inc"
}  // namespace delta_generic

#if PTUCKER_AVX2_CLONES
#pragma GCC push_options
#pragma GCC target("avx2")
namespace delta_avx2 {
#include "core/delta_batch.inc"
}  // namespace delta_avx2
#pragma GCC pop_options
#endif

void ReconstructFromList(const CoreEntryList& core,
                         const std::vector<FactorView>& factors,
                         std::int64_t count, const std::int64_t* const* indices,
                         double* out) {
#if PTUCKER_AVX2_CLONES
  if (CpuHasAvx2()) {
    return delta_avx2::ReconstructFromList(core, factors, count, indices, out);
  }
#endif
  delta_generic::ReconstructFromList(core, factors, count, indices, out);
}

}  // namespace ptucker
