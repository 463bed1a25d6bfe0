// The multi-process solver's row ownership: rank r of W owns rows
// [WorkerBlockBegin(rows, r, W), WorkerBlockBegin(rows, r + 1, W)) of each
// mode (util/parallel.h).
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/parallel.h"

namespace ptucker {
namespace {

// The rows rank `rank` of `workers` owns, in ascending order.
std::vector<std::int64_t> OwnedRows(std::int64_t rows, std::int64_t rank,
                                    std::int64_t workers) {
  std::vector<std::int64_t> owned;
  for (std::int64_t row = WorkerBlockBegin(rows, rank, workers);
       row < WorkerBlockBegin(rows, rank + 1, workers); ++row) {
    owned.push_back(row);
  }
  return owned;
}

void ExpectValidPartition(std::int64_t rows, std::int64_t workers) {
  std::set<std::int64_t> seen;
  for (std::int64_t w = 0; w < workers; ++w) {
    for (const std::int64_t row : OwnedRows(rows, w, workers)) {
      EXPECT_TRUE(seen.insert(row).second) << "row " << row << " duplicated";
      EXPECT_GE(row, 0);
      EXPECT_LT(row, rows);
    }
  }
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), rows);
}

TEST(PartitionTest, BlockCoversAllRowsDisjointly) {
  for (const std::int64_t rows : {200, 150, 100}) {
    for (const std::int64_t workers : {1, 2, 3, 7}) {
      ExpectValidPartition(rows, workers);
    }
  }
}

TEST(PartitionTest, BlockWithMoreWorkersThanRowsLeavesSomeWorkersEmpty) {
  // The multi-process solver's edge case: dims smaller than the worker
  // count mean some workers own zero rows of a mode — the blocks must
  // still be valid, disjoint, and contiguous.
  ExpectValidPartition(3, 8);
  std::int64_t empty = 0;
  for (std::int64_t w = 0; w < 8; ++w) {
    if (OwnedRows(3, w, 8).empty()) ++empty;
  }
  EXPECT_EQ(empty, 5);
}

TEST(PartitionTest, BlockPartitionIsContiguousAndOrdered) {
  // The distributed row exchange ships each worker's rows as one
  // contiguous block, so the blocks must be consecutive, ascending runs
  // that chain across workers and differ in size by at most one row.
  for (const std::int64_t workers : {1, 2, 5, 13, 64}) {
    std::int64_t next = 0;
    for (std::int64_t w = 0; w < workers; ++w) {
      const std::vector<std::int64_t> owned = OwnedRows(100, w, workers);
      const std::int64_t size = static_cast<std::int64_t>(owned.size());
      EXPECT_GE(size, 100 / workers) << "workers " << workers;
      EXPECT_LE(size, 100 / workers + 1) << "workers " << workers;
      for (const std::int64_t row : owned) {
        EXPECT_EQ(row, next) << "workers " << workers;
        ++next;
      }
    }
    EXPECT_EQ(next, 100) << "workers " << workers;
  }
}

TEST(PartitionTest, SingleRowModePutsTheRowOnExactlyOneWorker) {
  for (const std::int64_t workers : {1, 2, 4}) {
    ExpectValidPartition(1, workers);
    std::int64_t owners = 0;
    for (std::int64_t w = 0; w < workers; ++w) {
      if (!OwnedRows(1, w, workers).empty()) ++owners;
    }
    EXPECT_EQ(owners, 1) << "workers " << workers;
  }
}

TEST(PartitionTest, LanesSplitByTheSameFormula) {
  // Reduction lanes are owned by the row-block formula over Λ lanes: the
  // workers' lane ranges tile [0, Λ) in rank order.
  for (const std::int64_t workers : {1, 3, 7, 64}) {
    EXPECT_EQ(WorkerLaneBegin(0, workers), 0);
    EXPECT_EQ(WorkerLaneBegin(workers, workers), kReductionLanes);
    for (std::int64_t w = 0; w < workers; ++w) {
      EXPECT_EQ(WorkerLaneBegin(w, workers),
                WorkerBlockBegin(kReductionLanes, w, workers));
      EXPECT_LT(WorkerLaneBegin(w, workers), WorkerLaneBegin(w + 1, workers))
          << "workers " << workers << " rank " << w;
    }
  }
}

}  // namespace
}  // namespace ptucker
