#include "core/reconstruction.h"

#include <cmath>

#include "core/delta_engine.h"
#include "util/parallel.h"

namespace ptucker {

namespace {

// Σ (X_α − x̂_α)² in parallel; the building block of both metrics.
// Deterministic combine order so fixed-seed solves are bit-reproducible.
double SquaredResidualSum(const SparseTensor& x, const DeltaEngine& engine) {
  double lane_sums[kReductionLanes];
  SquaredResidualLaneSums(x, engine, 0, kReductionLanes, lane_sums);
  return FoldLaneSums(lane_sums, kReductionLanes);
}

}  // namespace

void SquaredResidualLaneSums(const SparseTensor& x, const DeltaEngine& engine,
                             std::int64_t lane_begin, std::int64_t lane_end,
                             double* lane_sums) {
  DeterministicParallelLaneSums(
      x.nnz(), lane_begin, lane_end, lane_sums, [&] {
        return [&](std::int64_t e, double* local) {
          const double residual = x.value(e) - engine.Reconstruct(x.index(e));
          *local += residual * residual;
        };
      });
}

double ReconstructionError(const SparseTensor& x, const DeltaEngine& engine) {
  return std::sqrt(SquaredResidualSum(x, engine));
}

double ReconstructionError(const SparseTensor& x, const CoreEntryList& core,
                           const std::vector<Matrix>& factors) {
  const NaiveDeltaEngine engine(core, factors);
  return ReconstructionError(x, engine);
}

double ReconstructionError(const SparseTensor& x, const DenseTensor& core,
                           const std::vector<Matrix>& factors) {
  return ReconstructionError(x, CoreEntryList(core), factors);
}

double TestRmse(const SparseTensor& test, const DeltaEngine& engine) {
  if (test.nnz() == 0) return 0.0;
  return std::sqrt(SquaredResidualSum(test, engine) /
                   static_cast<double>(test.nnz()));
}

double TestRmse(const SparseTensor& test, const CoreEntryList& core,
                const std::vector<Matrix>& factors) {
  const NaiveDeltaEngine engine(core, factors);
  return TestRmse(test, engine);
}

double TestRmse(const SparseTensor& test, const DenseTensor& core,
                const std::vector<Matrix>& factors) {
  return TestRmse(test, CoreEntryList(core), factors);
}

void PredictEntries(std::int64_t count, const std::int64_t* const* indices,
                    const DeltaEngine& engine, double* out) {
#pragma omp parallel for schedule(static)
  for (std::int64_t e = 0; e < count; ++e) {
    out[e] = engine.Reconstruct(indices[e]);
  }
}

std::vector<double> PredictEntries(const SparseTensor& query,
                                   const DeltaEngine& engine) {
  std::vector<const std::int64_t*> indices(
      static_cast<std::size_t>(query.nnz()));
  for (std::int64_t e = 0; e < query.nnz(); ++e) {
    indices[static_cast<std::size_t>(e)] = query.index(e);
  }
  std::vector<double> predictions(indices.size());
  PredictEntries(query.nnz(), indices.data(), engine, predictions.data());
  return predictions;
}

std::vector<double> PredictEntries(const SparseTensor& query,
                                   const DenseTensor& core,
                                   const std::vector<Matrix>& factors) {
  const CoreEntryList list(core);
  const NaiveDeltaEngine engine(list, factors);
  return PredictEntries(query, engine);
}

}  // namespace ptucker
