#ifndef PTUCKER_BASELINES_TUCKER_CSF_H_
#define PTUCKER_BASELINES_TUCKER_CSF_H_

#include "baselines/hooi.h"

namespace ptucker {

/// TUCKER-CSF (Smith & Karypis, Euro-Par 2017 / SPLATT): HOOI where the
/// TTMc Y(n) is evaluated over compressed-sparse-fiber trees so shared
/// index prefixes are expanded once instead of once per nonzero.
///
/// We build one CSF tree rooted at each mode (SPLATT's ALLMODE layout; the
/// paper configured one allocation, which trades memory for a little
/// time — the asymptotics in Table III are unchanged). Like HOOI, Y(n) is
/// materialized (memory O(In·Jᴺ⁻¹)) and missing entries are zeros, so the
/// accuracy matches HOOI/S-HOT in Fig. 11. It runs on HOOI's own driver
/// (hooi.cc) and differs from HOOI only in how Y(n) is evaluated.
PTuckerResult TuckerCsfDecompose(const SparseTensor& x,
                                 const HooiOptions& options);

}  // namespace ptucker

#endif  // PTUCKER_BASELINES_TUCKER_CSF_H_
