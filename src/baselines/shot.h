#ifndef PTUCKER_BASELINES_SHOT_H_
#define PTUCKER_BASELINES_SHOT_H_

#include "baselines/hooi.h"

namespace ptucker {

/// S-HOT_scan-style Tucker-ALS (Oh et al., WSDM 2017): identical fixed
/// point to HOOI (missing entries as zeros) but *never materializes* the
/// In × Π_{k≠n} Jk matrix Y(n). The leading left singular vectors are
/// found by orthogonal iteration where each product Y·(Yᵀ·U) is evaluated
/// on the fly by streaming the nonzeros, so intermediate data stays
/// O(Jᴺ⁻¹·Jn + In·Jn) — avoiding the M-bottleneck, as the paper's Table
/// III records for S-HOT. Each mode takes three orthogonal-iteration
/// steps per sweep, warm-started from the previous sweep.
///
/// `x` needs its mode index (SparseTensor::BuildModeIndex).
PTuckerResult ShotDecompose(const SparseTensor& x,
                            const HooiOptions& options);

}  // namespace ptucker

#endif  // PTUCKER_BASELINES_SHOT_H_
