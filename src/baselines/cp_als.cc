#include "baselines/cp_als.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/random.h"

namespace ptucker {

PTuckerResult CpAlsDecompose(const SparseTensor& x, const CpOptions& options) {
  if (x.nnz() == 0) {
    throw std::invalid_argument("CP-ALS: tensor has no observed entries");
  }
  if (!x.has_mode_index()) {
    throw std::invalid_argument(
        "CP-ALS: call SparseTensor::BuildModeIndex() first");
  }
  if (options.rank < 1) {
    throw std::invalid_argument("CP-ALS: rank must be >= 1");
  }
  if (!std::isfinite(options.lambda) || options.lambda < 0.0) {
    throw std::invalid_argument(
        "CP-ALS: lambda must be a finite non-negative number, got " +
        std::to_string(options.lambda));
  }
  if (options.max_iterations < 1) {
    throw std::invalid_argument("CP-ALS: max_iterations must be >= 1");
  }

  const std::int64_t order = x.order();
  const std::int64_t rank = options.rank;

  TuckerFactorization init;
  Rng rng(options.seed);
  for (std::int64_t n = 0; n < order; ++n) {
    Matrix factor(x.dim(n), rank);
    factor.FillUniform(rng);
    init.factors.push_back(std::move(factor));
  }
  const std::vector<std::int64_t> core_dims(static_cast<std::size_t>(order),
                                            rank);
  init.core = DenseTensor(core_dims);
  std::vector<std::int64_t> index(static_cast<std::size_t>(order));
  for (std::int64_t r = 0; r < rank; ++r) {
    for (auto& i : index) i = r;
    init.core.at(index.data()) = 1.0;
  }

  PTuckerOptions tucker;
  tucker.core_dims = core_dims;
  tucker.lambda = options.lambda;
  tucker.max_iterations = options.max_iterations;
  tucker.tolerance = options.tolerance;
  tucker.init_snapshot = &init;
  // The naive engine's δ and x̂ multiply in CDTF's order; the other
  // engines reassociate.
  tucker.delta_engine = DeltaEngineChoice::kNaive;
  tucker.orthogonalize_output = false;
  tucker.tracker = options.tracker;
  tucker.verbose = options.verbose;
  return PTuckerDecompose(x, tucker);
}

}  // namespace ptucker
