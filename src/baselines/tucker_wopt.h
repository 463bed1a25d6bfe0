#ifndef PTUCKER_BASELINES_TUCKER_WOPT_H_
#define PTUCKER_BASELINES_TUCKER_WOPT_H_

#include "baselines/common.h"

namespace ptucker {

/// TUCKER-WOPT (Filipović & Jukić, 2015): Tucker *weighted* optimization.
/// Minimizes Σ_{α∈Ω}(X_α − X̂_α)² over the core and all factors jointly by
/// Polak-Ribière nonlinear conjugate gradients — the accuracy-focused
/// competitor of the paper (it ignores missing entries like P-Tucker).
///
/// Faithful to the original, the gradients are evaluated with *dense*
/// tensor algebra: the masked residual tensor W ⊛ (X̂ − X) is materialized
/// at the full size Π In and pushed through dense mode-product chains
/// (memory O(Iᴺ⁻¹J), paper Table III). All dense temporaries are charged
/// to the tracker, which is why this method — and only this method — hits
/// O.O.M. across most of Figs. 6/7/11. `options.max_iterations` caps the
/// NCG iterations.
PTuckerResult TuckerWoptDecompose(const SparseTensor& x,
                                  const HooiOptions& options);

}  // namespace ptucker

#endif  // PTUCKER_BASELINES_TUCKER_WOPT_H_
