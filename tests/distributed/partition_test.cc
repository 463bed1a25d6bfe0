#include "distributed/partition.h"

#include <set>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "util/random.h"

namespace ptucker {
namespace {

SparseTensor SkewedTensor(std::uint64_t seed) {
  Rng rng(seed);
  return SkewedSparseTensor({200, 150, 100}, 5000, 1.2, rng);
}

void ExpectValidPartition(const RowPartition& partition, std::int64_t rows) {
  std::set<std::int64_t> seen;
  for (const auto& owned : partition.rows_per_worker) {
    for (const std::int64_t row : owned) {
      EXPECT_TRUE(seen.insert(row).second) << "row " << row << " duplicated";
      EXPECT_GE(row, 0);
      EXPECT_LT(row, rows);
    }
  }
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), rows);
}

TEST(PartitionTest, BlockCoversAllRowsDisjointly) {
  SparseTensor x = SkewedTensor(1);
  for (const std::int64_t workers : {1, 2, 3, 7}) {
    RowPartition partition = PartitionRowsBlock(x, 0, workers);
    ASSERT_EQ(partition.num_workers(), workers);
    ExpectValidPartition(partition, x.dim(0));
  }
}

TEST(PartitionTest, BlockWithMoreWorkersThanRowsLeavesTrailingWorkersEmpty) {
  // The multi-process solver's edge case: dims smaller than the worker
  // count mean some workers own zero rows of a mode — the partition must
  // still be valid, disjoint, and contiguous.
  SparseTensor x({3, 3});
  x.AddEntry({0, 0}, 1.0);
  x.AddEntry({1, 1}, 1.0);
  x.AddEntry({2, 2}, 1.0);
  x.BuildModeIndex();
  RowPartition partition = PartitionRowsBlock(x, 0, 8);
  ASSERT_EQ(partition.num_workers(), 8);
  ExpectValidPartition(partition, 3);
  std::int64_t empty = 0;
  for (const auto& owned : partition.rows_per_worker) {
    if (owned.empty()) ++empty;
  }
  EXPECT_EQ(empty, 5);
}

TEST(PartitionTest, BlockPartitionIsContiguousAndOrdered) {
  // The distributed row exchange ships each worker's rows as one
  // contiguous block, so PartitionRowsBlock must hand out consecutive,
  // ascending runs that chain across workers.
  SparseTensor x = SkewedTensor(6);
  for (const std::int64_t workers : {1, 2, 5, 13, 64}) {
    RowPartition partition = PartitionRowsBlock(x, 2, workers);
    std::int64_t next = 0;
    for (const auto& owned : partition.rows_per_worker) {
      for (const std::int64_t row : owned) {
        EXPECT_EQ(row, next) << "workers " << workers;
        ++next;
      }
    }
    EXPECT_EQ(next, x.dim(2)) << "workers " << workers;
  }
}

TEST(PartitionTest, SingleRowModePutsTheRowOnExactlyOneWorker) {
  SparseTensor x({1, 6});
  x.AddEntry({0, 0}, 1.0);
  x.AddEntry({0, 5}, 2.0);
  x.BuildModeIndex();
  for (const std::int64_t workers : {1, 2, 4}) {
    RowPartition partition = PartitionRowsBlock(x, 0, workers);
    ExpectValidPartition(partition, 1);
    std::int64_t owners = 0;
    for (const auto& owned : partition.rows_per_worker) {
      if (!owned.empty()) ++owners;
    }
    EXPECT_EQ(owners, 1) << "workers " << workers;
  }
}

TEST(PartitionTest, EmptySlicesStillGetAssigned) {
  // Rows with no observed entries (empty Ω(n,in)) are real rows: they
  // must land on some worker (the solver zeroes them).
  SparseTensor x({5, 2});
  x.AddEntry({2, 0}, 1.0);  // rows 0, 1, 3, 4 of mode 0 are empty
  x.BuildModeIndex();
  ExpectValidPartition(PartitionRowsBlock(x, 0, 3), 5);
}

}  // namespace
}  // namespace ptucker
