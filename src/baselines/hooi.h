#ifndef PTUCKER_BASELINES_HOOI_H_
#define PTUCKER_BASELINES_HOOI_H_

#include "baselines/common.h"

namespace ptucker {

/// Conventional Tucker-ALS / HOOI (paper Algorithm 1, De Lathauwer et
/// al.): per mode, materialize Y(n) = X ×_{k≠n} A(k)ᵀ as an In × Π Jk
/// matrix and take its Jn leading left singular vectors; missing entries
/// are treated as zeros.
///
/// This is the method whose "intermediate data explosion" motivates the
/// paper: the materialized Y(n) is charged to the tracker, so large
/// tensors hit the O.O.M. budget exactly as in Figs. 6/7/11.
PTuckerResult HooiDecompose(const SparseTensor& x,
                            const HooiOptions& options);

}  // namespace ptucker

#endif  // PTUCKER_BASELINES_HOOI_H_
