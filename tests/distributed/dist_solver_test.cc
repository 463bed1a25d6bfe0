#include "distributed/proc/dist_solver.h"

#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/delta_engine.h"
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
  // The property sweep: random tensor x workers {1, 2, 3, 8} x all four
  // δ-engines, forked workers, EXPECT_EQ against the one-process
  // trajectory. Fixed reduction lanes + rank-ordered merges make this an
  // equality, not a tolerance — also for the reassociated contraction
  // engine, whose state is a function of the replicated model alone.
  const SparseTensor x = TestTensor(11);
  const DeltaEngineChoice engines[] = {
      DeltaEngineChoice::kNaive, DeltaEngineChoice::kModeMajor,
      DeltaEngineChoice::kCached, DeltaEngineChoice::kContraction};
  for (const DeltaEngineChoice engine : engines) {
    PTuckerOptions options = TestOptions();
    options.delta_engine = engine;
    const PTuckerResult expected = PTuckerDecompose(x, options);
    for (const std::int64_t workers : {1, 2, 3, 8}) {
      DistOptions dist;
      dist.workers = workers;
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
    const DistributedPTuckerResult distributed =
        DistributedPTuckerDecompose(x, options, dist);
    ExpectBitIdentical(expected, distributed.result,
                       "socketpair workers " + std::to_string(workers));
  }
}

TEST(DistSolverTest, CoreUpdateRunsDistributedCgBitwise) {
  // update_core drives CG through the cluster: the coordinator runs the
  // control flow, workers compute the design products as lane partials.
  const SparseTensor x = TestTensor(14);
  PTuckerOptions options = TestOptions();
  options.update_core = true;
  const PTuckerResult expected = PTuckerDecompose(x, options);
  for (const std::int64_t workers : {2, 3}) {
    DistOptions dist;
    dist.workers = workers;
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
  const DistributedPTuckerResult distributed =
      DistributedPTuckerDecompose(x, resumed, dist);
  ExpectBitIdentical(expected, distributed.result, "warm start");
}

TEST(DistSolverTest, RejectsUnsupportedConfigurations) {
  const SparseTensor x = TestTensor(18);
  const PTuckerOptions options = TestOptions();
  DistOptions dist;

  dist.workers = 0;
  EXPECT_THROW(DistributedPTuckerDecompose(x, options, dist),
               std::invalid_argument);
  dist.workers = 65;  // more workers than reduction lanes
  EXPECT_THROW(DistributedPTuckerDecompose(x, options, dist),
               std::invalid_argument);

  dist.workers = 2;
  for (const int timeout_ms : {0, -5}) {  // rejected before any fork
    dist.recv_timeout_ms = timeout_ms;
    EXPECT_THROW(DistributedPTuckerDecompose(x, options, dist),
                 std::invalid_argument)
        << "recv_timeout_ms " << timeout_ms;
  }
  dist.recv_timeout_ms = DistOptions().recv_timeout_ms;

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

  // An order past DeltaEngine::kMaxOrder fails validation before any
  // worker starts, rather than aborting inside one.
  const std::int64_t order = DeltaEngine::kMaxOrder + 1;
  SparseTensor high(
      std::vector<std::int64_t>(static_cast<std::size_t>(order), 2));
  high.AddEntry(std::vector<std::int64_t>(static_cast<std::size_t>(order), 0),
                1.0);
  high.BuildModeIndex();
  bad = options;
  bad.core_dims.assign(static_cast<std::size_t>(order), 1);
  EXPECT_THROW(DistributedPTuckerDecompose(high, bad, dist),
               std::invalid_argument);
}

TEST(DistSolverTest, RejectsWhatTheLocalSolverRejects) {
  // One validation behind both front doors: every input the single-process
  // solver rejects, the distributed one rejects too, before any worker is
  // launched.
  const SparseTensor x = TestTensor(19);
  TuckerFactorization misshapen;  // mode 2 has 11 rows, the tensor 12
  misshapen.factors = {Matrix(20, 3), Matrix(16, 2), Matrix(11, 2)};
  misshapen.core = DenseTensor({3, 2, 2});
  const std::vector<
      std::pair<std::string, std::function<void(PTuckerOptions*)>>>
      cases = {
          {"lambda -1", [](PTuckerOptions* o) { o->lambda = -1.0; }},
          {"lambda NaN",
           [](PTuckerOptions* o) {
             o->lambda = std::numeric_limits<double>::quiet_NaN();
           }},
          {"lambda +Inf",
           [](PTuckerOptions* o) {
             o->lambda = std::numeric_limits<double>::infinity();
           }},
          {"max_iterations 0",
           [](PTuckerOptions* o) { o->max_iterations = 0; }},
          {"sample_rate 0", [](PTuckerOptions* o) { o->sample_rate = 0.0; }},
          {"sample_rate 1.5", [](PTuckerOptions* o) { o->sample_rate = 1.5; }},
          {"sample_rate NaN",
           [](PTuckerOptions* o) {
             o->sample_rate = std::numeric_limits<double>::quiet_NaN();
           }},
          {"num_threads -2", [](PTuckerOptions* o) { o->num_threads = -2; }},
          {"tile_width 0", [](PTuckerOptions* o) { o->tile_width = 0; }},
          {"truncation_rate 1",
           [](PTuckerOptions* o) { o->truncation_rate = 1.0; }},
          {"truncation_rate NaN",
           [](PTuckerOptions* o) {
             o->truncation_rate = std::numeric_limits<double>::quiet_NaN();
           }},
          {"adaptive_epsilon 0.2",
           [](PTuckerOptions* o) { o->adaptive_epsilon = 0.2; }},
          {"core_dims order", [](PTuckerOptions* o) { o->core_dims = {3, 2}; }},
          {"rank above dim",
           [](PTuckerOptions* o) {
             o->core_dims = {3, 2, 13};
             o->orthogonalize_output = true;
           }},
          {"init_snapshot shape",
           [&](PTuckerOptions* o) { o->init_snapshot = &misshapen; }},
      };
  DistOptions dist;
  dist.workers = 2;
  for (const auto& [label, corrupt] : cases) {
    PTuckerOptions bad = TestOptions();
    corrupt(&bad);
    EXPECT_THROW(PTuckerDecompose(x, bad), std::invalid_argument) << label;
    EXPECT_THROW(DistributedPTuckerDecompose(x, bad, dist),
                 std::invalid_argument)
        << label;
  }
}

}  // namespace
}  // namespace ptucker
