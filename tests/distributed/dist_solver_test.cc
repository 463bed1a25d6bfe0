#include "distributed/proc/dist_solver.h"

#include <gtest/gtest.h>

#include "core/ptucker.h"
#include "data/synthetic.h"
#include "util/random.h"

namespace ptucker {
namespace {

SparseTensor TestTensor(std::uint64_t seed) {
  Rng rng(seed);
  return SkewedSparseTensor({20, 16, 12}, 600, 1.0, rng);
}

PTuckerOptions TestOptions() {
  PTuckerOptions options;
  options.core_dims = {3, 2, 2};
  options.max_iterations = 3;
  return options;
}

// The tentpole invariant: not close, EQUAL. Every factor entry, every
// core entry, every per-iteration error must carry the exact bits the
// single-process solver produces.
void ExpectBitIdentical(const PTuckerResult& expected,
                        const PTuckerResult& actual,
                        const std::string& label) {
  ASSERT_EQ(expected.iterations.size(), actual.iterations.size()) << label;
  for (std::size_t i = 0; i < expected.iterations.size(); ++i) {
    EXPECT_EQ(expected.iterations[i].error, actual.iterations[i].error)
        << label << " iteration " << i + 1;
    EXPECT_EQ(expected.iterations[i].core_nnz, actual.iterations[i].core_nnz)
        << label << " iteration " << i + 1;
  }
  EXPECT_EQ(expected.converged, actual.converged) << label;
  EXPECT_EQ(expected.final_error, actual.final_error) << label;
  ASSERT_EQ(expected.model.factors.size(), actual.model.factors.size());
  for (std::size_t n = 0; n < expected.model.factors.size(); ++n) {
    const Matrix& a = expected.model.factors[n];
    const Matrix& b = actual.model.factors[n];
    ASSERT_EQ(a.rows(), b.rows()) << label;
    ASSERT_EQ(a.cols(), b.cols()) << label;
    for (std::int64_t i = 0; i < a.rows() * a.cols(); ++i) {
      ASSERT_EQ(a.data()[i], b.data()[i])
          << label << " factor " << n << " element " << i;
    }
  }
  ASSERT_EQ(expected.model.core.size(), actual.model.core.size()) << label;
  for (std::int64_t i = 0; i < expected.model.core.size(); ++i) {
    ASSERT_EQ(expected.model.core[i], actual.model.core[i])
        << label << " core element " << i;
  }
}

TEST(DistSolverTest, EveryEngineAndWorkerCountMatchesSingleProcessBitwise) {
  // The property sweep: random tensor x workers {1, 2, 3, 8} x all three
  // δ-engines, in-process transport, EXPECT_EQ against the one-process
  // trajectory. Fixed reduction lanes + rank-ordered merges make this an
  // equality, not a tolerance.
  const SparseTensor x = TestTensor(11);
  const DeltaEngineChoice engines[] = {
      DeltaEngineChoice::kNaive, DeltaEngineChoice::kModeMajor,
      DeltaEngineChoice::kCached};
  for (const DeltaEngineChoice engine : engines) {
    PTuckerOptions options = TestOptions();
    options.delta_engine = engine;
    const PTuckerResult expected = PTuckerDecompose(x, options);
    for (const std::int64_t workers : {1, 2, 3, 8}) {
      DistOptions dist;
      dist.workers = workers;
      dist.transport = DistTransport::kInProcess;
      const DistributedPTuckerResult distributed =
          DistributedPTuckerDecompose(x, options, dist);
      ExpectBitIdentical(expected, distributed.result,
                         "engine " + std::to_string(static_cast<int>(engine)) +
                             ", workers " + std::to_string(workers));
      EXPECT_EQ(distributed.stats.workers, workers);
      EXPECT_EQ(distributed.stats.iterations_run,
                static_cast<int>(expected.iterations.size()));
      EXPECT_GT(distributed.stats.total_comm_bytes, 0);
    }
  }
}

TEST(DistSolverTest, ForkedSocketpairWorkersMatchSingleProcessBitwise) {
  // Real multi-process execution: forked workers over AF_UNIX
  // socketpairs, N in {2, 4, 8}.
  const SparseTensor x = TestTensor(12);
  const PTuckerOptions options = TestOptions();
  const PTuckerResult expected = PTuckerDecompose(x, options);
  for (const std::int64_t workers : {2, 4, 8}) {
    DistOptions dist;
    dist.workers = workers;
    dist.transport = DistTransport::kSocketpair;
    const DistributedPTuckerResult distributed =
        DistributedPTuckerDecompose(x, options, dist);
    ExpectBitIdentical(expected, distributed.result,
                       "socketpair workers " + std::to_string(workers));
  }
}

TEST(DistSolverTest, TcpWorkersMatchSingleProcessBitwise) {
  // The same wire a real multi-host deployment would use.
  const SparseTensor x = TestTensor(13);
  const PTuckerOptions options = TestOptions();
  const PTuckerResult expected = PTuckerDecompose(x, options);
  DistOptions dist;
  dist.workers = 2;
  dist.transport = DistTransport::kTcp;
  const DistributedPTuckerResult distributed =
      DistributedPTuckerDecompose(x, options, dist);
  ExpectBitIdentical(expected, distributed.result, "tcp workers 2");
}

TEST(DistSolverTest, CoreUpdateRunsDistributedCgBitwise) {
  // update_core drives CG through the cluster: the coordinator runs the
  // control flow, workers compute the design products as lane partials.
  const SparseTensor x = TestTensor(14);
  PTuckerOptions options = TestOptions();
  options.update_core = true;
  options.core_update_cg_iterations = 4;
  const PTuckerResult expected = PTuckerDecompose(x, options);
  for (const std::int64_t workers : {2, 3}) {
    DistOptions dist;
    dist.workers = workers;
    dist.transport = DistTransport::kInProcess;
    const DistributedPTuckerResult distributed =
        DistributedPTuckerDecompose(x, options, dist);
    ExpectBitIdentical(expected, distributed.result,
                       "update_core workers " + std::to_string(workers));
  }
}

TEST(DistSolverTest, SubsampledSolveStaysPartitionInvariant) {
  // sample_rate < 1 keys subsample streams by (seed, iteration, mode,
  // row) — never by worker — so the distributed draw is the same draw.
  const SparseTensor x = TestTensor(15);
  PTuckerOptions options = TestOptions();
  options.sample_rate = 0.6;
  const PTuckerResult expected = PTuckerDecompose(x, options);
  DistOptions dist;
  dist.workers = 3;
  dist.transport = DistTransport::kInProcess;
  const DistributedPTuckerResult distributed =
      DistributedPTuckerDecompose(x, options, dist);
  ExpectBitIdentical(expected, distributed.result, "sample_rate 0.6");
}

TEST(DistSolverTest, ModesSmallerThanWorkerCountStillMatch) {
  // dims {3, 2, 5} with 8 workers: most workers own zero rows of most
  // modes and still participate in every merge and reduction.
  Rng rng(16);
  SparseTensor x = SkewedSparseTensor({3, 2, 5}, 25, 0.5, rng);
  PTuckerOptions options;
  options.core_dims = {2, 2, 2};
  options.max_iterations = 3;
  const PTuckerResult expected = PTuckerDecompose(x, options);
  for (const std::int64_t workers : {4, 8}) {
    DistOptions dist;
    dist.workers = workers;
    dist.transport = DistTransport::kInProcess;
    const DistributedPTuckerResult distributed =
        DistributedPTuckerDecompose(x, options, dist);
    ExpectBitIdentical(expected, distributed.result,
                       "tiny modes, workers " + std::to_string(workers));
  }
}

TEST(DistSolverTest, WarmStartSnapshotReplicatesAcrossWorkers) {
  const SparseTensor x = TestTensor(17);
  PTuckerOptions options = TestOptions();
  options.orthogonalize_output = false;
  const PTuckerResult first = PTuckerDecompose(x, options);
  PTuckerOptions resumed = options;
  resumed.init_snapshot = &first.model;
  const PTuckerResult expected = PTuckerDecompose(x, resumed);
  DistOptions dist;
  dist.workers = 2;
  dist.transport = DistTransport::kInProcess;
  const DistributedPTuckerResult distributed =
      DistributedPTuckerDecompose(x, resumed, dist);
  ExpectBitIdentical(expected, distributed.result, "warm start");
}

TEST(DistSolverTest, RejectsUnsupportedConfigurations) {
  const SparseTensor x = TestTensor(18);
  const PTuckerOptions options = TestOptions();
  DistOptions dist;
  dist.transport = DistTransport::kInProcess;

  dist.workers = 0;
  EXPECT_THROW(DistributedPTuckerDecompose(x, options, dist),
               std::invalid_argument);
  dist.workers = 65;  // more workers than reduction lanes
  EXPECT_THROW(DistributedPTuckerDecompose(x, options, dist),
               std::invalid_argument);

  dist.workers = 2;
  PTuckerOptions bad = options;
  bad.variant = PTuckerVariant::kApprox;
  EXPECT_THROW(DistributedPTuckerDecompose(x, bad, dist),
               std::invalid_argument);

  bad = options;
  MemoryTracker tracker(1 << 20);
  bad.tracker = &tracker;
  EXPECT_THROW(DistributedPTuckerDecompose(x, bad, dist),
               std::invalid_argument);

  bad = options;
  bad.core_dims = {3, 2};  // wrong order
  EXPECT_THROW(DistributedPTuckerDecompose(x, bad, dist),
               std::invalid_argument);
}

}  // namespace
}  // namespace ptucker
