#include "blas/trmm.hpp"

#include <algorithm>
#include <cassert>

#include "blas/gemm.hpp"
#include "blas/kernel.hpp"
#include "blas/level1.hpp"
#include "blas/level2.hpp"

namespace camult::blas {
namespace {

// Same register-tile-derived cutoff as trsm.cpp.
idx base_size() { return std::max<idx>(32, 2 * active_kernel().blocking.mr); }

// op(A) is upper triangular exactly when (uplo == Upper) == (trans ==
// NoTrans): column j of op(A) then reaches rows p < j, otherwise p > j.
inline bool op_upper(Uplo uplo, Trans trans) {
  return (uplo == Uplo::Upper) == (trans == Trans::NoTrans);
}

// Left base case: one trmv per (contiguous) column of B.
void trmm_left_base(Uplo uplo, Trans trans, Diag diag, double alpha,
                    ConstMatrixView a, MatrixView b) {
  for (idx j = 0; j < b.cols(); ++j) {
    trmv(uplo, trans, diag, a, b.col_ptr(j), 1);
    if (alpha != 1.0) scal(b.rows(), alpha, b.col_ptr(j), 1);
  }
}

// Right base case, column-oriented: column j of alpha B op(A) is
// alpha op(A)(j, j) B(:, j) + sum_p alpha op(A)(p, j) B(:, p), formed in
// place in the order that leaves every B(:, p) it reads unmodified
// (descending j when op(A) is upper, ascending when lower). Every inner
// loop runs down a contiguous column of B.
void trmm_right_base(Uplo uplo, Trans trans, Diag diag, double alpha,
                     ConstMatrixView a, MatrixView b) {
  const idx n = a.rows();
  const idx m = b.rows();
  const bool upper = op_upper(uplo, trans);
  // op(A)(p0:p1, j) is column j of A (NoTrans) or row j of A (Trans).
  const idx incc = trans == Trans::NoTrans ? 1 : a.ld();
  for (idx s = 0; s < n; ++s) {
    const idx j = upper ? n - 1 - s : s;
    const idx p0 = upper ? 0 : j + 1;
    const idx p1 = upper ? j : n;
    double* xj = b.col_ptr(j);
    const double d = diag == Diag::Unit ? alpha : alpha * a(j, j);
    if (d != 1.0) scal(m, d, xj, 1);
    if (p1 > p0) {
      const double* c = trans == Trans::NoTrans ? &a(p0, j) : &a(j, p0);
      axpy_columns(m, p1 - p0, alpha, c, incc, b.col_ptr(p0), b.ld(), xj);
    }
  }
}

void trmm_rec(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
              ConstMatrixView a, MatrixView b) {
  const idx n_tri = a.rows();
  if (n_tri <= base_size()) {
    if (side == Side::Left) {
      trmm_left_base(uplo, trans, diag, alpha, a, b);
    } else {
      trmm_right_base(uplo, trans, diag, alpha, a, b);
    }
    return;
  }
  const idx h = n_tri / 2;
  const idx r = n_tri - h;
  ConstMatrixView a11 = a.block(0, 0, h, h);
  ConstMatrixView a22 = a.block(h, h, r, r);

  if (side == Side::Left) {
    MatrixView b1 = b.rows_range(0, h);
    MatrixView b2 = b.rows_range(h, r);
    if (uplo == Uplo::Upper && trans == Trans::NoTrans) {
      ConstMatrixView a12 = a.block(0, h, h, r);
      trmm_rec(side, uplo, trans, diag, alpha, a11, b1);
      gemm(Trans::NoTrans, Trans::NoTrans, alpha, a12, b2, 1.0, b1);
      trmm_rec(side, uplo, trans, diag, alpha, a22, b2);
    } else if (uplo == Uplo::Upper && trans == Trans::Trans) {
      ConstMatrixView a12 = a.block(0, h, h, r);
      trmm_rec(side, uplo, trans, diag, alpha, a22, b2);
      gemm(Trans::Trans, Trans::NoTrans, alpha, a12, b1, 1.0, b2);
      trmm_rec(side, uplo, trans, diag, alpha, a11, b1);
    } else if (uplo == Uplo::Lower && trans == Trans::NoTrans) {
      ConstMatrixView a21 = a.block(h, 0, r, h);
      trmm_rec(side, uplo, trans, diag, alpha, a22, b2);
      gemm(Trans::NoTrans, Trans::NoTrans, alpha, a21, b1, 1.0, b2);
      trmm_rec(side, uplo, trans, diag, alpha, a11, b1);
    } else {  // Lower, Trans
      ConstMatrixView a21 = a.block(h, 0, r, h);
      trmm_rec(side, uplo, trans, diag, alpha, a11, b1);
      gemm(Trans::Trans, Trans::NoTrans, alpha, a21, b2, 1.0, b1);
      trmm_rec(side, uplo, trans, diag, alpha, a22, b2);
    }
  } else {
    MatrixView b1 = b.cols_range(0, h);
    MatrixView b2 = b.cols_range(h, r);
    if (uplo == Uplo::Upper && trans == Trans::NoTrans) {
      ConstMatrixView a12 = a.block(0, h, h, r);
      trmm_rec(side, uplo, trans, diag, alpha, a22, b2);
      gemm(Trans::NoTrans, Trans::NoTrans, alpha, b1, a12, 1.0, b2);
      trmm_rec(side, uplo, trans, diag, alpha, a11, b1);
    } else if (uplo == Uplo::Upper && trans == Trans::Trans) {
      ConstMatrixView a12 = a.block(0, h, h, r);
      trmm_rec(side, uplo, trans, diag, alpha, a11, b1);
      gemm(Trans::NoTrans, Trans::Trans, alpha, b2, a12, 1.0, b1);
      trmm_rec(side, uplo, trans, diag, alpha, a22, b2);
    } else if (uplo == Uplo::Lower && trans == Trans::NoTrans) {
      ConstMatrixView a21 = a.block(h, 0, r, h);
      trmm_rec(side, uplo, trans, diag, alpha, a11, b1);
      gemm(Trans::NoTrans, Trans::NoTrans, alpha, b2, a21, 1.0, b1);
      trmm_rec(side, uplo, trans, diag, alpha, a22, b2);
    } else {  // Lower, Trans
      ConstMatrixView a21 = a.block(h, 0, r, h);
      trmm_rec(side, uplo, trans, diag, alpha, a22, b2);
      gemm(Trans::NoTrans, Trans::Trans, alpha, b1, a21, 1.0, b2);
      trmm_rec(side, uplo, trans, diag, alpha, a11, b1);
    }
  }
}

}  // namespace

void trmm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView a, MatrixView b) {
  assert(a.rows() == a.cols());
  const idx n_tri = (side == Side::Left) ? b.rows() : b.cols();
  assert(a.rows() == n_tri);
  (void)n_tri;
  if (b.rows() == 0 || b.cols() == 0) return;
  trmm_rec(side, uplo, trans, diag, alpha, a, b);
}

}  // namespace camult::blas
