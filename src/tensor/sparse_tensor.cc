#include "tensor/sparse_tensor.h"

#include <cmath>
#include <utility>

#include "tensor/index.h"
#include "util/logging.h"

namespace ptucker {

SparseTensor::SparseTensor(std::vector<std::int64_t> dims)
    : dims_(std::move(dims)) {
  for (std::int64_t d : dims_) PTUCKER_CHECK(d > 0);
}

SparseTensor::SparseTensor(std::vector<std::int64_t> dims,
                           std::vector<std::int64_t> indices,
                           std::vector<double> values)
    : SparseTensor(std::move(dims)) {
  PTUCKER_CHECK(indices.size() == values.size() * dims_.size());
  for (std::size_t at = 0; at < indices.size(); at += dims_.size()) {
    PTUCKER_CHECK(IndexInBounds(indices.data() + at, dims_));
  }
  indices_ = std::move(indices);
  values_ = std::move(values);
}

void SparseTensor::Reserve(std::int64_t entries) {
  indices_.reserve(static_cast<std::size_t>(entries * order()));
  values_.reserve(static_cast<std::size_t>(entries));
}

void SparseTensor::AddEntry(const std::int64_t* index, double value) {
  PTUCKER_CHECK(IndexInBounds(index, dims_));
  indices_.insert(indices_.end(), index, index + order());
  values_.push_back(value);
  mode_index_built_ = false;
}

void SparseTensor::AddEntry(const std::vector<std::int64_t>& index,
                            double value) {
  PTUCKER_CHECK(static_cast<std::int64_t>(index.size()) == order());
  AddEntry(index.data(), value);
}

std::int64_t SparseTensor::RemoveEntries(const std::vector<char>& remove) {
  PTUCKER_CHECK(static_cast<std::int64_t>(remove.size()) == nnz());
  const std::int64_t n_modes = order();
  const std::int64_t entries = nnz();
  std::int64_t kept = 0;
  for (std::int64_t e = 0; e < entries; ++e) {
    if (remove[static_cast<std::size_t>(e)]) continue;
    if (kept != e) {
      for (std::int64_t m = 0; m < n_modes; ++m) {
        indices_[static_cast<std::size_t>(kept * n_modes + m)] =
            indices_[static_cast<std::size_t>(e * n_modes + m)];
      }
      values_[static_cast<std::size_t>(kept)] =
          values_[static_cast<std::size_t>(e)];
    }
    ++kept;
  }
  indices_.resize(static_cast<std::size_t>(kept * n_modes));
  values_.resize(static_cast<std::size_t>(kept));
  mode_index_built_ = false;
  return entries - kept;
}

double SparseTensor::FrobeniusNorm() const {
  double sum = 0.0;
  for (double v : values_) sum += v * v;
  return std::sqrt(sum);
}

void SparseTensor::BuildModeIndex() {
  const std::int64_t n_modes = order();
  const std::int64_t entries = nnz();
  slice_ptr_.assign(static_cast<std::size_t>(n_modes), {});
  slice_entries_.assign(static_cast<std::size_t>(n_modes), {});
  for (std::int64_t mode = 0; mode < n_modes; ++mode) {
    slice_ptr_[static_cast<std::size_t>(mode)].assign(
        static_cast<std::size_t>(dim(mode)) + 1, 0);
    slice_entries_[static_cast<std::size_t>(mode)].resize(
        static_cast<std::size_t>(entries));
  }

  // One counting sort of entry ids by their mode coordinate per mode; the
  // modes are independent. Their arrays are allocated above, on this
  // thread and in mode order, and each cursor lives only as long as its
  // sort: both keep a solve's peak RSS where it was with one thread
  // (docs/benchmarks.md).
#pragma omp parallel for schedule(static, 1)
  for (std::int64_t mode = 0; mode < n_modes; ++mode) {
    auto& ptr = slice_ptr_[static_cast<std::size_t>(mode)];
    auto& ids = slice_entries_[static_cast<std::size_t>(mode)];
    for (std::int64_t e = 0; e < entries; ++e) {
      ++ptr[static_cast<std::size_t>(index(e, mode)) + 1];
    }
    for (std::size_t i = 1; i < ptr.size(); ++i) ptr[i] += ptr[i - 1];
    std::vector<std::int64_t> cursor(ptr.begin(), ptr.end() - 1);
    for (std::int64_t e = 0; e < entries; ++e) {
      const std::size_t slice = static_cast<std::size_t>(index(e, mode));
      ids[static_cast<std::size_t>(cursor[slice]++)] = e;
    }
  }
  mode_index_built_ = true;
}

Span<const std::int64_t> SparseTensor::Slice(std::int64_t mode,
                                             std::int64_t i) const {
  PTUCKER_CHECK(mode_index_built_);
  const auto& ptr = slice_ptr_[static_cast<std::size_t>(mode)];
  const auto& ids = slice_entries_[static_cast<std::size_t>(mode)];
  const std::int64_t begin = ptr[static_cast<std::size_t>(i)];
  const std::int64_t end = ptr[static_cast<std::size_t>(i) + 1];
  return {ids.data() + begin, static_cast<std::size_t>(end - begin)};
}

std::int64_t SparseTensor::SliceSize(std::int64_t mode, std::int64_t i) const {
  PTUCKER_CHECK(mode_index_built_);
  const auto& ptr = slice_ptr_[static_cast<std::size_t>(mode)];
  return ptr[static_cast<std::size_t>(i) + 1] - ptr[static_cast<std::size_t>(i)];
}

std::int64_t SparseTensor::ByteSize() const {
  return static_cast<std::int64_t>(indices_.size() * sizeof(std::int64_t) +
                                   values_.size() * sizeof(double));
}

}  // namespace ptucker
