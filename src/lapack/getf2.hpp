// getf2.hpp — unblocked Gaussian elimination with partial pivoting
// (LAPACK dgetf2). This is the BLAS-2 baseline the paper measures as
// "MKL_dgetf2" and also the kernel executed at every node of the TSLU
// tournament.
#pragma once

#include "matrix/permutation.hpp"
#include "matrix/view.hpp"

namespace camult::lapack {

/// Factor A = P * L * U in place. On exit the unit lower triangle of L and
/// the upper triangle of U overwrite A; ipiv (resized to min(m,n)) records
/// the interchanges.
///
/// Returns 0 on success, or the 1-based index of the first exactly-zero
/// pivot (the factorization still completes, as in LAPACK).
idx getf2(MatrixView a, PivotVector& ipiv);

/// getf2's unblocked loop on an m x n block, with the min(m, n) pivots
/// written to ipiv[0..) relative to the block's top row. rgetf2 factors its
/// base blocks with it. Per column: pivot search, a row swap across the
/// block, reciprocal scaling, and a rank-1 update of the block's remaining
/// columns that skips no zero multiplier (NaN and Inf propagate as through
/// gemm). Allocates nothing; returns what getf2 returns.
idx getf2_block(MatrixView a, idx* ipiv);

/// Same factorization, additionally reporting the pivot-growth factor
/// max|U| / max|A_in| in *growth (0 for an all-zero input; growth == nullptr
/// is allowed and bit-identical to the two-argument form). This is the
/// per-panel health metric the CALU monitor tracks — GEPP bounds it by
/// 2^(n-1), tournament pivoting does not.
idx getf2(MatrixView a, PivotVector& ipiv, double* growth);

}  // namespace camult::lapack
