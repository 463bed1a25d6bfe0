#include "distributed/partition.h"

#include "util/logging.h"

namespace ptucker {

std::int64_t RowUpdateCost(const SparseTensor& x, std::int64_t mode,
                           std::int64_t row) {
  // |Ω(n,in)| + 1: the +1 stands for the per-row solve, so an empty row
  // is never free.
  return x.SliceSize(mode, row) + 1;
}

RowPartition PartitionRowsBlock(const SparseTensor& x, std::int64_t mode,
                                std::int64_t workers) {
  PTUCKER_CHECK(workers >= 1);
  const std::int64_t rows = x.dim(mode);
  RowPartition partition;
  partition.rows_per_worker.resize(static_cast<std::size_t>(workers));
  for (std::int64_t w = 0; w < workers; ++w) {
    const std::int64_t begin = rows * w / workers;
    const std::int64_t end = rows * (w + 1) / workers;
    auto& owned = partition.rows_per_worker[static_cast<std::size_t>(w)];
    owned.reserve(static_cast<std::size_t>(end - begin));
    for (std::int64_t row = begin; row < end; ++row) owned.push_back(row);
  }
  return partition;
}

}  // namespace ptucker
