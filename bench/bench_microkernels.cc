// google-benchmark microbenchmarks of the hot kernels: the δ computation
// (Eq. 12) that dominates P-Tucker's runtime, the Eq. 9 row solve, the
// cached δ path, and CSF vs COO TTMc. Without a system google-benchmark
// the vendored minibench harness (bench/minibench.h, same API subset)
// drives the same benchmarks, so this target builds and runs everywhere.
#ifdef PTUCKER_USE_MINIBENCH
#include "bench/minibench.h"
#else
#include <benchmark/benchmark.h>
#endif

#include "core/delta.h"
#include "core/delta_engine.h"
#include "data/synthetic.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "tensor/csf.h"
#include "tensor/nmode.h"
#include "util/random.h"

namespace ptucker {
namespace {

struct Fixture {
  SparseTensor x;
  DenseTensor core;
  CoreEntryList list;
  std::vector<Matrix> factors;

  explicit Fixture(std::int64_t rank) {
    Rng rng(1);
    x = UniformCubicTensor(3, 500, 5000, rng);
    core = DenseTensor({rank, rank, rank});
    core.FillUniform(rng);
    list = CoreEntryList(core);
    for (int k = 0; k < 3; ++k) {
      Matrix factor(500, rank);
      factor.FillUniform(rng);
      factors.push_back(std::move(factor));
    }
  }
};

void BM_ComputeDelta(benchmark::State& state) {
  Fixture f(state.range(0));
  const std::vector<FactorView> views = MakeFactorViews(f.factors);
  std::vector<double> delta(static_cast<std::size_t>(state.range(0)));
  std::int64_t entry = 0;
  for (auto _ : state) {
    ComputeDelta(f.list, views, f.x.index(entry), 0, delta.data());
    benchmark::DoNotOptimize(delta.data());
    entry = (entry + 1) % f.x.nnz();
  }
  state.SetItemsProcessed(state.iterations() * f.list.size());
}
BENCHMARK(BM_ComputeDelta)->Arg(4)->Arg(8)->Arg(12);

void BM_CachedDelta(benchmark::State& state) {
  Fixture f(state.range(0));
  CachedDeltaEngine cached(f.x, f.list, f.factors, nullptr);
  std::vector<double> delta(static_cast<std::size_t>(state.range(0)));
  std::int64_t entry = 0;
  for (auto _ : state) {
    cached.ComputeDelta(entry, f.x.index(entry), 0, delta.data());
    benchmark::DoNotOptimize(delta.data());
    entry = (entry + 1) % f.x.nnz();
  }
  state.SetItemsProcessed(state.iterations() * f.list.size());
}
BENCHMARK(BM_CachedDelta)->Arg(4)->Arg(8)->Arg(12);

void BM_RowSolve(benchmark::State& state) {
  const std::int64_t rank = state.range(0);
  Rng rng(2);
  Matrix b(rank, rank);
  std::vector<double> v(static_cast<std::size_t>(rank));
  for (int round = 0; round < 4 * rank; ++round) {
    for (auto& value : v) value = rng.Normal();
    SymmetricRank1Update(b, v.data());
  }
  for (std::int64_t i = 0; i < rank; ++i) b(i, i) += 0.01;
  std::vector<double> c(static_cast<std::size_t>(rank), 1.0);
  std::vector<double> row(static_cast<std::size_t>(rank));
  for (auto _ : state) {
    CholeskySolveRow(b, c.data(), row.data());
    benchmark::DoNotOptimize(row.data());
  }
}
BENCHMARK(BM_RowSolve)->Arg(4)->Arg(8)->Arg(16);

void BM_CooTtmc(benchmark::State& state) {
  Fixture f(4);
  for (auto _ : state) {
    Matrix y = SparseTtmChain(f.x, f.factors, 0);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * f.x.nnz());
}
BENCHMARK(BM_CooTtmc);

void BM_CsfTtmc(benchmark::State& state) {
  Fixture f(4);
  CsfTensor csf(f.x, {0, 1, 2});
  for (auto _ : state) {
    Matrix y = csf.TtmcRoot(f.factors);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * f.x.nnz());
}
BENCHMARK(BM_CsfTtmc);

void BM_SymmetricRank1(benchmark::State& state) {
  const std::int64_t rank = state.range(0);
  Matrix b(rank, rank);
  std::vector<double> v(static_cast<std::size_t>(rank), 0.7);
  for (auto _ : state) {
    SymmetricRank1Update(b, v.data());
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_SymmetricRank1)->Arg(4)->Arg(16);

}  // namespace
}  // namespace ptucker
