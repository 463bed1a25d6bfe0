#include "core/ptucker.h"

#include <memory>

#include "core/als_driver.h"
#include "core/reconstruction.h"
#include "tensor/nmode.h"
#include "util/logging.h"

namespace ptucker {

double TuckerFactorization::Predict(const std::int64_t* index) const {
  return ReconstructEntry(core, factors, index);
}

double TuckerFactorization::Predict(
    const std::vector<std::int64_t>& index) const {
  PTUCKER_CHECK(static_cast<std::int64_t>(index.size()) == core.order());
  return Predict(index.data());
}

double PTuckerResult::SecondsPerIteration() const {
  if (iterations.empty()) return 0.0;
  double total = 0.0;
  for (const auto& stats : iterations) total += stats.seconds;
  return total / static_cast<double>(iterations.size());
}

PTuckerResult PTuckerDecompose(const SparseTensor& x,
                               const PTuckerOptions& options) {
  std::int64_t slice_layout_bytes = 0;
  PTuckerResult result = RunAls(x, options, [&](AlsModel* model) {
    auto backend = std::make_unique<LocalAlsBackend>(x, options, model);
    slice_layout_bytes = backend->slice_layout_bytes();
    return backend;
  });
  result.slice_layout_bytes = slice_layout_bytes;
  return result;
}

}  // namespace ptucker
