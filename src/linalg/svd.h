#ifndef PTUCKER_LINALG_SVD_H_
#define PTUCKER_LINALG_SVD_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace ptucker {

/// Thin singular value decomposition for the tall matrices of Tucker-ALS.
///
/// Algorithm 1 (HOOI) needs "the Jn leading left singular vectors of Y(n)"
/// where Y(n) is In x K with K = Π_{m≠n} Jm. We compute them through the
/// K x K Gram matrix YᵀY: its eigenvectors are the right singular vectors
/// V, singular values are √λ, and U = Y V Σ⁻¹. This never materializes an
/// In x In matrix — the same trick the paper's baselines rely on.
struct SvdResult {
  Matrix u;                             // m x r, orthonormal columns
  std::vector<double> singular_values;  // descending, length r
  Matrix v;                             // n x r, orthonormal columns
};

/// Right singular vectors + singular values recovered from a Gram matrix
/// G = AᵀA: the eigendecomposition step of ThinSvd, its only caller in
/// the library.
struct GramSvd {
  Matrix v;                             // n x r
  std::vector<double> singular_values;  // descending, length r
};

/// Requires `gram` symmetric PSD; keeps the `rank` leading components.
GramSvd RightSingularVectorsFromGram(const Matrix& gram, std::int64_t rank);

/// Given AV (= A * V, m x r) and the singular values, forms U by scaling
/// each column by 1/σ. Columns with numerically zero σ are replaced by an
/// orthonormal completion so U always has orthonormal columns.
Matrix NormalizeBySingularValues(const Matrix& av,
                                 const std::vector<double>& singular_values);

/// Thin SVD keeping `rank` components (rank <= min(m, n)).
SvdResult ThinSvd(const Matrix& a, std::int64_t rank);

/// The Jn leading left singular vectors of `a`, computed with a truncated
/// (rank-limited) decomposition.
Matrix LeadingLeftSingularVectors(const Matrix& a, std::int64_t rank);

/// Full thin SVD by one-sided Jacobi (Hestenes): plane rotations
/// orthogonalize the columns of A in place; the column norms become the
/// singular values and the rotations accumulate V. Unlike the Gram route
/// this never squares the condition number, achieving high relative
/// accuracy, at LAPACK-class cost O(sweeps · m · n²). Requires m >= n.
SvdResult OneSidedJacobiSvd(const Matrix& a, int max_sweeps = 64);

/// Left singular vectors via a FULL exact SVD: all min(m, n) components
/// are computed (one-sided Jacobi when m >= n, Gram eigendecomposition of
/// the m x m side otherwise), then truncated to `rank`. This is the cost
/// model of the paper's baselines (Algorithm 1 line 5), which call
/// LAPACK's exact SVD — O(min(m·n², m²·n)) work regardless of the
/// requested rank. The HOOI/Tucker-CSF reimplementations use this so
/// their measured cost matches the systems the paper evaluated.
Matrix ExactSvdLeftSingularVectors(const Matrix& a, std::int64_t rank);

}  // namespace ptucker

#endif  // PTUCKER_LINALG_SVD_H_
