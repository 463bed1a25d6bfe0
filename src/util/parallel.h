/// \file
/// \brief Deterministic parallel reductions over a fixed lane partition:
/// the index range [0, n) is split into kReductionLanes contiguous lanes
/// (independent of the thread count), each lane is accumulated in index
/// order, and the per-lane partials are combined sequentially in lane
/// order. Unlike OpenMP `reduction` (completion order) or a per-thread
/// partition (thread-count dependent), the result is bit-identical for
/// every thread count — and the lane partials are a distribution
/// boundary: a cluster worker that owns a contiguous lane subrange
/// computes exactly the partials the single-process fold consumes, so a
/// coordinator that gathers all lanes and folds them in lane order
/// reproduces the one-process sum bit for bit (src/distributed/proc/).
/// Every sum here goes through the scalar lane-range primitive or the
/// vector lane-sum primitive and the two folds, so all of them share one
/// partition/combine implementation.
#ifndef PTUCKER_UTIL_PARALLEL_H_
#define PTUCKER_UTIL_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ptucker {

/// Number of fixed reduction lanes Λ. Every deterministic sum splits its
/// index range into this many contiguous lanes regardless of the thread
/// count, so results are invariant to OMP_NUM_THREADS and a distributed
/// run can assign contiguous lane subranges to workers (workers must be
/// <= Λ). 64 keeps the fold cost trivial while giving plenty of
/// parallel slack on any realistic core count.
inline constexpr std::int64_t kReductionLanes = 64;

/// First index of `lane` in the fixed Λ-way partition of [0, n): the
/// balanced `n·l/Λ` boundary formula, so lanes differ in size by at most
/// one index. Lane Λ maps to n (the exclusive end of the last lane).
inline constexpr std::int64_t ReductionLaneBegin(std::int64_t n,
                                                 std::int64_t lane) {
  return n * lane / kReductionLanes;
}

/// First of `count` items (a mode's rows) that rank `rank` of `workers`
/// owns: [count·r/W, count·(r+1)/W). The single process is rank 0 of 1.
inline constexpr std::int64_t WorkerBlockBegin(std::int64_t count,
                                               std::int64_t rank,
                                               std::int64_t workers) {
  return count * rank / workers;
}

/// First reduction lane rank `rank` of `workers` owns.
inline constexpr std::int64_t WorkerLaneBegin(std::int64_t rank,
                                              std::int64_t workers) {
  return WorkerBlockBegin(kReductionLanes, rank, workers);
}

/// The primitive under DeterministicParallelLaneSums: lane l of
/// [lane_begin, lane_end) stores `lane_partial(begin, end)` at
/// `lane_sums[l − lane_begin]`, where [begin, end) is the lane's index
/// range. `lane_partial` must accumulate its range in index order from
/// +0.0, so each partial depends only on (n, lane, the summed terms).
/// Lanes run in parallel.
template <typename LanePartialFn>
void DeterministicParallelLaneRanges(std::int64_t n, std::int64_t lane_begin,
                                     std::int64_t lane_end, double* lane_sums,
                                     LanePartialFn&& lane_partial) {
  const std::int64_t lanes = lane_end - lane_begin;
#pragma omp parallel for schedule(static)
  for (std::int64_t l = 0; l < lanes; ++l) {
    const std::int64_t lane = lane_begin + l;
    lane_sums[static_cast<std::size_t>(l)] = lane_partial(
        ReductionLaneBegin(n, lane), ReductionLaneBegin(n, lane + 1));
  }
}

/// Fills `lane_sums[0 .. lane_end-lane_begin)` with the per-lane partial
/// sums of lanes [lane_begin, lane_end): lane l covers indices
/// [ReductionLaneBegin(n, l), ReductionLaneBegin(n, l+1)), accumulated in
/// index order through a fresh worker: `make_worker()` runs once per lane
/// and returns a callable `worker(i, double* local)` that adds index i's
/// term into `*local` (and may own per-lane scratch). Lanes are
/// independent, so the loop parallelizes freely; each lane's partial
/// depends only on (n, lane, the summed terms) — never on the thread
/// count or on which process computes it. This is the primitive the
/// distributed solver ships across the wire.
template <typename WorkerFactory>
void DeterministicParallelLaneSums(std::int64_t n, std::int64_t lane_begin,
                                   std::int64_t lane_end, double* lane_sums,
                                   WorkerFactory&& make_worker) {
  DeterministicParallelLaneRanges(
      n, lane_begin, lane_end, lane_sums,
      [&make_worker](std::int64_t begin, std::int64_t end) {
        double local = 0.0;
        auto worker = make_worker();
        for (std::int64_t i = begin; i < end; ++i) worker(i, &local);
        return local;
      });
}

/// Vector-valued counterpart of DeterministicParallelLaneSums: lane l's
/// width-sized partial lands at `lane_sums + (l - lane_begin) * width`,
/// zero-initialized and accumulated in index order.
template <typename WorkerFactory>
void DeterministicParallelVectorLaneSums(std::int64_t n, std::size_t width,
                                         std::int64_t lane_begin,
                                         std::int64_t lane_end,
                                         double* lane_sums,
                                         WorkerFactory&& make_worker) {
  const std::int64_t lanes = lane_end - lane_begin;
#pragma omp parallel for schedule(static)
  for (std::int64_t l = 0; l < lanes; ++l) {
    const std::int64_t lane = lane_begin + l;
    double* local = lane_sums + static_cast<std::size_t>(l) * width;
    for (std::size_t j = 0; j < width; ++j) local[j] = 0.0;
    auto worker = make_worker();
    const std::int64_t begin = ReductionLaneBegin(n, lane);
    const std::int64_t end = ReductionLaneBegin(n, lane + 1);
    for (std::int64_t i = begin; i < end; ++i) worker(i, local);
  }
}

/// Sequential lane-order fold of scalar lane partials — THE combine step.
/// Single-process sums and the distributed coordinator both reduce
/// through this exact loop (lane 0 first, ascending), which is what makes
/// an N-process gather bit-identical to the local sum.
inline double FoldLaneSums(const double* lane_sums, std::int64_t lanes) {
  double total = 0.0;
  for (std::int64_t l = 0; l < lanes; ++l) {
    total += lane_sums[static_cast<std::size_t>(l)];
  }
  return total;
}

/// Vector counterpart of FoldLaneSums: out[j] = Σ_l lane_sums[l][j],
/// accumulated lane 0 first for every component.
inline void FoldVectorLaneSums(const double* lane_sums, std::int64_t lanes,
                               std::size_t width, double* out) {
  for (std::size_t j = 0; j < width; ++j) out[j] = 0.0;
  for (std::int64_t l = 0; l < lanes; ++l) {
    const double* local = lane_sums + static_cast<std::size_t>(l) * width;
    for (std::size_t j = 0; j < width; ++j) out[j] += local[j];
  }
}

/// Sums `term(i)` for i in [0, n) in parallel with a result that is
/// bit-identical at every thread count: all kReductionLanes lane partials
/// (DeterministicParallelLaneSums) folded in lane order.
template <typename TermFn>
double DeterministicParallelSum(std::int64_t n, TermFn&& term) {
  double lane_sums[kReductionLanes];
  DeterministicParallelLaneSums(n, 0, kReductionLanes, lane_sums, [&term] {
    return [&term](std::int64_t i, double* local) { *local += term(i); };
  });
  return FoldLaneSums(lane_sums, kReductionLanes);
}

/// Vector-valued counterpart of DeterministicParallelSum: fills
/// `out[0..width)` with Σ_i contribution(i). `make_worker()` runs once
/// per lane and returns a callable `worker(i, double* local)` that may
/// own per-lane scratch. Same lane partition and lane-order fold as the
/// scalar sum — no `omp critical` or atomics anywhere on a merge path.
template <typename WorkerFactory>
void DeterministicParallelVectorSum(std::int64_t n, std::size_t width,
                                    double* out,
                                    WorkerFactory&& make_worker) {
  std::vector<double> lane_sums(static_cast<std::size_t>(kReductionLanes) *
                                width);
  DeterministicParallelVectorLaneSums(
      n, width, 0, kReductionLanes, lane_sums.data(),
      std::forward<WorkerFactory>(make_worker));
  FoldVectorLaneSums(lane_sums.data(), kReductionLanes, width, out);
}

}  // namespace ptucker

#endif  // PTUCKER_UTIL_PARALLEL_H_
