#ifndef PTUCKER_DISTRIBUTED_PARTITION_H_
#define PTUCKER_DISTRIBUTED_PARTITION_H_

#include <cstdint>
#include <vector>

#include "tensor/sparse_tensor.h"

namespace ptucker {

/// Assignment of one mode's factor rows to workers. rows_per_worker[w]
/// lists the row indices owned by worker w (disjoint, covering all rows).
struct RowPartition {
  std::vector<std::vector<std::int64_t>> rows_per_worker;

  std::int64_t num_workers() const {
    return static_cast<std::int64_t>(rows_per_worker.size());
  }
};

/// Cost of updating one row of A(mode): proportional to |Ω(n,in)| (the δ
/// computations dominate; the J³ solve is constant per row). The unit of
/// DistributedStats' makespan model (distributed/proc/dist_solver.h).
std::int64_t RowUpdateCost(const SparseTensor& x, std::int64_t mode,
                           std::int64_t row);

/// Contiguous equal-count row blocks: worker w owns rows
/// [rows·w/W, rows·(w+1)/W). The multi-process solver's ownership rule.
RowPartition PartitionRowsBlock(const SparseTensor& x, std::int64_t mode,
                                std::int64_t workers);

}  // namespace ptucker

#endif  // PTUCKER_DISTRIBUTED_PARTITION_H_
