#include <sys/wait.h>

#include <cerrno>
#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/ptucker.h"
#include "data/synthetic.h"
#include "distributed/proc/dist_solver.h"
#include "util/random.h"

namespace ptucker {
namespace {

SparseTensor TestTensor(std::uint64_t seed) {
  Rng rng(seed);
  return SkewedSparseTensor({18, 14, 10}, 400, 1.0, rng);
}

PTuckerOptions TestOptions() {
  PTuckerOptions options;
  options.core_dims = {2, 2, 2};
  options.max_iterations = 3;
  return options;
}

DistOptions FaultyCluster(DistFaultInjection::Kind kind) {
  DistOptions dist;
  dist.workers = 3;
  dist.recv_timeout_ms = 30000;
  dist.fault.kind = kind;
  dist.fault.rank = 1;
  dist.fault.iteration = 2;  // mid-solve, after one clean iteration
  dist.fault.mode = 1;
  return dist;
}

// No zombie children may survive a solve, successful or aborted: with
// every child reaped, waitpid(-1) has nothing to report.
void ExpectNoChildProcesses() {
  const pid_t got = ::waitpid(-1, nullptr, WNOHANG);
  const int err = errno;
  EXPECT_TRUE(got < 0 && err == ECHILD)
      << "unreaped child state: waitpid returned " << got;
}

TEST(DistFaultTest, WorkerDeathMidIterationIsLoudAndLeavesNoZombies) {
  const SparseTensor x = TestTensor(21);
  const DistOptions dist =
      FaultyCluster(DistFaultInjection::Kind::kKillWorker);
  try {
    DistributedPTuckerDecompose(x, TestOptions(), dist);
    FAIL() << "a dead worker must abort the solve";
  } catch (const DistError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("worker 1"), std::string::npos) << message;
    EXPECT_NE(message.find("connection closed"), std::string::npos)
        << message;
  }
  ExpectNoChildProcesses();
}

TEST(DistFaultTest, CorruptFrameConvictsWorkerAtFirstBadByte) {
  const SparseTensor x = TestTensor(22);
  const DistOptions dist =
      FaultyCluster(DistFaultInjection::Kind::kCorruptFrame);
  try {
    DistributedPTuckerDecompose(x, TestOptions(), dist);
    FAIL() << "a corrupt frame must abort the solve";
  } catch (const DistError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("worker 1"), std::string::npos) << message;
    EXPECT_NE(message.find("bad magic byte at offset 0 (0x58)"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("not a PTKD stream"), std::string::npos)
        << message;
  }
  ExpectNoChildProcesses();
}

TEST(DistFaultTest, TruncatedFrameReportsMidFrameClose) {
  const SparseTensor x = TestTensor(23);
  const DistOptions dist =
      FaultyCluster(DistFaultInjection::Kind::kTruncatedFrame);
  try {
    DistributedPTuckerDecompose(x, TestOptions(), dist);
    FAIL() << "a truncated frame must abort the solve";
  } catch (const DistError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("worker 1"), std::string::npos) << message;
    EXPECT_NE(message.find("closed mid-frame"), std::string::npos) << message;
  }
  ExpectNoChildProcesses();
}

TEST(DistFaultTest, CleanSolveReapsAllWorkers) {
  const SparseTensor x = TestTensor(25);
  DistOptions dist;
  dist.workers = 2;
  const DistributedPTuckerResult result =
      DistributedPTuckerDecompose(x, TestOptions(), dist);
  EXPECT_GT(result.result.iterations.size(), 0u);
  ExpectNoChildProcesses();
}

TEST(DistFaultTest, FaultBeforeFirstCleanIterationStillAborts) {
  // Death during iteration 1, mode 0 — nothing has been merged yet.
  const SparseTensor x = TestTensor(26);
  DistOptions dist = FaultyCluster(DistFaultInjection::Kind::kKillWorker);
  dist.fault.rank = 0;
  dist.fault.iteration = 1;
  dist.fault.mode = 0;
  EXPECT_THROW(DistributedPTuckerDecompose(x, TestOptions(), dist),
               DistError);
  ExpectNoChildProcesses();
}

TEST(DistFaultTest, NonFiniteErrorStopsBothSolversAndReapsWorkers) {
  // One NaN observation poisons its rows and then the error. Both front
  // doors share the non-finite check in RunAls: stop at iteration 1 with
  // an error that names it, instead of iterating to a NaN model. The
  // forked cluster is aborted and every worker reaped on the way out.
  SparseTensor x = TestTensor(27);
  x.set_value(x.nnz() / 2, std::numeric_limits<double>::quiet_NaN());
  DistOptions dist;
  dist.workers = 3;
  for (const bool distributed : {false, true}) {
    try {
      if (distributed) {
        DistributedPTuckerDecompose(x, TestOptions(), dist);
      } else {
        PTuckerDecompose(x, TestOptions());
      }
      FAIL() << "a NaN error must stop the solve (distributed="
             << distributed << ")";
    } catch (const std::runtime_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("iteration 1"), std::string::npos) << message;
    }
  }
  ExpectNoChildProcesses();
}

}  // namespace
}  // namespace ptucker
