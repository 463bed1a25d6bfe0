// Distributed span collection (docs/observability.md): with tracing on,
// a forked-worker solve must land each rank's dist.* spans in the
// coordinator's tracer via the kBye payload, stamped pid = rank + 1 —
// the merged timeline --trace-out exports. And tracing must stay
// observability-only: the traced distributed trajectory is bit-identical
// to the untraced single-process one.
#include "distributed/proc/dist_solver.h"

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ptucker.h"
#include "data/synthetic.h"
#include "obs/trace.h"
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

TEST(DistTraceTest, ForkedWorkersShipSpansPerRankWithoutPerturbingSolve) {
  const SparseTensor x = TestTensor(21);
  const PTuckerOptions options = TestOptions();

  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Disable();
  tracer.Clear();
  const PTuckerResult expected = PTuckerDecompose(x, options);

  DistOptions dist;
  dist.workers = 4;
  tracer.Enable();
  const DistributedPTuckerResult traced =
      DistributedPTuckerDecompose(x, options, dist);
  const std::vector<obs::TraceEvent> events = tracer.Snapshot();
  tracer.Disable();
  tracer.Clear();

  // Spans arrived from at least 2 distinct worker ranks (pid = rank + 1;
  // pid 0 is the coordinator), and they carry the dist.* phase names.
  // The coordinator records the driver's spans, the wrap-up included.
  std::set<int> worker_pids;
  std::set<std::string> worker_span_names;
  std::set<std::string> coordinator_span_names;
  for (const obs::TraceEvent& event : events) {
    if (event.pid > 0) {
      worker_pids.insert(event.pid);
      worker_span_names.insert(event.name);
    } else {
      coordinator_span_names.insert(event.name);
    }
  }
  EXPECT_GE(worker_pids.size(), 2u);
  EXPECT_NE(worker_span_names.count("dist.row_solve"), 0u);
  EXPECT_NE(worker_span_names.count("dist.row_exchange"), 0u);
  EXPECT_NE(coordinator_span_names.count("als.orthogonalize"), 0u);
  EXPECT_NE(coordinator_span_names.count("als.final_error"), 0u);

  // Tracing never touches the numbers: bit-equal to the untraced
  // single-process trajectory.
  ASSERT_EQ(expected.iterations.size(), traced.result.iterations.size());
  for (std::size_t i = 0; i < expected.iterations.size(); ++i) {
    EXPECT_EQ(std::memcmp(&expected.iterations[i].error,
                          &traced.result.iterations[i].error,
                          sizeof(double)),
              0)
        << "iteration " << i;
  }
  EXPECT_EQ(std::memcmp(&expected.final_error, &traced.result.final_error,
                        sizeof(double)),
            0);
}

}  // namespace
}  // namespace ptucker
