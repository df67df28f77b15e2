#include "blas/trsm.hpp"

#include <algorithm>
#include <cassert>

#include "blas/gemm.hpp"
#include "blas/kernel.hpp"
#include "blas/level1.hpp"
#include "blas/level2.hpp"

namespace camult::blas {
namespace {

// Recursion base tied to the dispatched kernel's register tile: the gemm
// halves above the base need at least a couple of MR-row tiles to amortize
// packing, so a wider kernel (AVX-512, MR=16) raises the base-case cutoff.
idx base_size() { return std::max<idx>(32, 2 * active_kernel().blocking.mr); }

// op(A) is upper triangular exactly when (uplo == Upper) == (trans ==
// NoTrans): column j of op(A) then reaches rows p < j, otherwise p > j.
inline bool op_upper(Uplo uplo, Trans trans) {
  return (uplo == Uplo::Upper) == (trans == Trans::NoTrans);
}

void scale_all(MatrixView b, double alpha) {
  if (alpha == 1.0) return;
  for (idx j = 0; j < b.cols(); ++j) scal(b.rows(), alpha, b.col_ptr(j), 1);
}

// Left base case: one trsv per (contiguous) column of B.
void trsm_left_base(Uplo uplo, Trans trans, Diag diag, double alpha,
                    ConstMatrixView a, MatrixView b) {
  scale_all(b, alpha);
  for (idx j = 0; j < b.cols(); ++j) {
    trsv(uplo, trans, diag, a, b.col_ptr(j), 1);
  }
}

// Right base case, column-oriented: X(:, j) op(A)(j, j) = alpha B(:, j) -
// sum_p X(:, p) op(A)(p, j), solved in the order that makes every X(:, p)
// it reads final (ascending j when op(A) is upper, descending when lower).
// Every inner loop runs down a contiguous column of B.
void trsm_right_base(Uplo uplo, Trans trans, Diag diag, double alpha,
                     ConstMatrixView a, MatrixView b) {
  const idx n = a.rows();
  const idx m = b.rows();
  const bool upper = op_upper(uplo, trans);
  // op(A)(p0:p1, j) is column j of A (NoTrans) or row j of A (Trans).
  const idx incc = trans == Trans::NoTrans ? 1 : a.ld();
  for (idx s = 0; s < n; ++s) {
    const idx j = upper ? s : n - 1 - s;
    const idx p0 = upper ? 0 : j + 1;
    const idx p1 = upper ? j : n;
    double* xj = b.col_ptr(j);
    if (alpha != 1.0) scal(m, alpha, xj, 1);
    if (p1 > p0) {
      const double* c = trans == Trans::NoTrans ? &a(p0, j) : &a(j, p0);
      axpy_columns(m, p1 - p0, -1.0, c, incc, b.col_ptr(p0), b.ld(), xj);
    }
    if (diag == Diag::NonUnit) scal(m, 1.0 / a(j, j), xj, 1);
  }
}

void trsm_rec(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
              ConstMatrixView a, MatrixView b) {
  const idx n_tri = a.rows();
  if (n_tri <= base_size()) {
    if (side == Side::Left) {
      trsm_left_base(uplo, trans, diag, alpha, a, b);
    } else {
      trsm_right_base(uplo, trans, diag, alpha, a, b);
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
    if (uplo == Uplo::Lower && trans == Trans::NoTrans) {
      ConstMatrixView a21 = a.block(h, 0, r, h);
      trsm_rec(side, uplo, trans, diag, alpha, a11, b1);
      gemm(Trans::NoTrans, Trans::NoTrans, -1.0, a21, b1, alpha, b2);
      trsm_rec(side, uplo, trans, diag, 1.0, a22, b2);
    } else if (uplo == Uplo::Lower && trans == Trans::Trans) {
      ConstMatrixView a21 = a.block(h, 0, r, h);
      trsm_rec(side, uplo, trans, diag, alpha, a22, b2);
      gemm(Trans::Trans, Trans::NoTrans, -1.0, a21, b2, alpha, b1);
      trsm_rec(side, uplo, trans, diag, 1.0, a11, b1);
    } else if (uplo == Uplo::Upper && trans == Trans::NoTrans) {
      ConstMatrixView a12 = a.block(0, h, h, r);
      trsm_rec(side, uplo, trans, diag, alpha, a22, b2);
      gemm(Trans::NoTrans, Trans::NoTrans, -1.0, a12, b2, alpha, b1);
      trsm_rec(side, uplo, trans, diag, 1.0, a11, b1);
    } else {  // Upper, Trans
      ConstMatrixView a12 = a.block(0, h, h, r);
      trsm_rec(side, uplo, trans, diag, alpha, a11, b1);
      gemm(Trans::Trans, Trans::NoTrans, -1.0, a12, b1, alpha, b2);
      trsm_rec(side, uplo, trans, diag, 1.0, a22, b2);
    }
  } else {
    MatrixView b1 = b.cols_range(0, h);
    MatrixView b2 = b.cols_range(h, r);
    if (uplo == Uplo::Upper && trans == Trans::NoTrans) {
      ConstMatrixView a12 = a.block(0, h, h, r);
      trsm_rec(side, uplo, trans, diag, alpha, a11, b1);
      gemm(Trans::NoTrans, Trans::NoTrans, -1.0, b1, a12, alpha, b2);
      trsm_rec(side, uplo, trans, diag, 1.0, a22, b2);
    } else if (uplo == Uplo::Upper && trans == Trans::Trans) {
      ConstMatrixView a12 = a.block(0, h, h, r);
      trsm_rec(side, uplo, trans, diag, alpha, a22, b2);
      gemm(Trans::NoTrans, Trans::Trans, -1.0, b2, a12, alpha, b1);
      trsm_rec(side, uplo, trans, diag, 1.0, a11, b1);
    } else if (uplo == Uplo::Lower && trans == Trans::NoTrans) {
      ConstMatrixView a21 = a.block(h, 0, r, h);
      trsm_rec(side, uplo, trans, diag, alpha, a22, b2);
      gemm(Trans::NoTrans, Trans::NoTrans, -1.0, b2, a21, alpha, b1);
      trsm_rec(side, uplo, trans, diag, 1.0, a11, b1);
    } else {  // Lower, Trans
      ConstMatrixView a21 = a.block(h, 0, r, h);
      trsm_rec(side, uplo, trans, diag, alpha, a11, b1);
      gemm(Trans::NoTrans, Trans::Trans, -1.0, b1, a21, alpha, b2);
      trsm_rec(side, uplo, trans, diag, 1.0, a22, b2);
    }
  }
}

}  // namespace

idx trsm_right_row_block(idx n_tri) {
  constexpr idx kBlockBytes = 256 * 1024;
  const idx rows = kBlockBytes / (static_cast<idx>(sizeof(double)) *
                                  std::max<idx>(n_tri, 1));
  return std::max<idx>(16, rows / 16 * 16);
}

void trsm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView a, MatrixView b) {
  assert(a.rows() == a.cols());
  const idx n_tri = (side == Side::Left) ? b.rows() : b.cols();
  assert(a.rows() == n_tri);
  if (b.rows() == 0 || b.cols() == 0) return;
  if (side == Side::Left) {
    trsm_rec(side, uplo, trans, diag, alpha, a, b);
    return;
  }
  // The rows of X are independent: solve B one L2-sized row block at a time
  // so the whole recursion (gemm halves and base cases) reuses it in cache.
  const idx rb = trsm_right_row_block(n_tri);
  for (idx i = 0; i < b.rows(); i += rb) {
    trsm_rec(side, uplo, trans, diag, alpha, a,
             b.rows_range(i, std::min(rb, b.rows() - i)));
  }
}

}  // namespace camult::blas
