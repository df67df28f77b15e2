// getrf.hpp — LU factorization drivers.
//
//  * rgetf2: recursive LU (Toledo / LAPACK dgetrf2). This is the fast
//    sequential panel kernel the paper uses inside TSLU ("rgetf2").
//  * getrf: classic blocked right-looking LU (LAPACK dgetrf). Serves as the
//    sequential vendor-style baseline; the task-parallel version lives in
//    src/baseline.
#pragma once

#include "matrix/permutation.hpp"
#include "matrix/view.hpp"

namespace camult::lapack {

/// rgetf2's recursion stops at blocks of at most this many columns and
/// factors them with getf2's unblocked loop (getf2_block), from the sweep
/// in docs/benchmarks.md § LU leaf kernel.
inline constexpr idx kLuBaseCols = 8;

/// Recursive LU with partial pivoting, any m x n. Same in-place contract as
/// getf2. Returns 0 or the 1-based index of the first zero pivot.
idx rgetf2(MatrixView a, PivotVector& ipiv);

/// Which kernel factors each panel of getrf.
enum class LuPanelKernel { Getf2, Recursive };

struct GetrfOptions {
  idx nb = 128;                                    ///< panel width
  LuPanelKernel panel = LuPanelKernel::Recursive;  ///< panel kernel
};

/// Blocked right-looking LU with partial pivoting. In-place; ipiv is global
/// (row interchanges relative to row 0). Returns 0 or 1-based first zero
/// pivot index.
idx getrf(MatrixView a, PivotVector& ipiv, const GetrfOptions& opts = {});

}  // namespace camult::lapack
