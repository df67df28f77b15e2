#include "blas/level2.hpp"

#include <cassert>

#include "blas/gemm.hpp"

namespace camult::blas {

void gemv(Trans trans, double alpha, ConstMatrixView a, const double* x,
          idx incx, double beta, double* y, idx incy) {
  const idx m = a.rows();
  const idx n = a.cols();
  const idx ylen = (trans == Trans::NoTrans) ? m : n;

  if (beta == 0.0) {
    for (idx i = 0; i < ylen; ++i) y[i * incy] = 0.0;
  } else if (beta != 1.0) {
    for (idx i = 0; i < ylen; ++i) y[i * incy] *= beta;
  }
  if (alpha == 0.0 || m == 0 || n == 0) return;

  if (trans == Trans::NoTrans) {
    // y += alpha * A * x, column by column (stride-1 on A).
    for (idx j = 0; j < n; ++j) {
      const double t = alpha * x[j * incx];
      if (t == 0.0) continue;
      const double* col = a.col_ptr(j);
      if (incy == 1) {
        for (idx i = 0; i < m; ++i) y[i] += t * col[i];
      } else {
        for (idx i = 0; i < m; ++i) y[i * incy] += t * col[i];
      }
    }
  } else if (incx == 1) {
    // y_j += alpha * dot(A(:,j), x): gemm_inner with x as the k x 1 B
    // operand, or, for a strided y, as the A operand of a 1 x n C whose
    // leading dimension is incy. Both give every y_j the same bits.
    const ConstMatrixView xv(x, m, 1, m);
    if (incy == 1) {
      gemm_inner(alpha, a, xv, MatrixView(y, n, 1, n));
    } else {
      gemm_inner(alpha, xv, a, MatrixView(y, 1, n, incy));
    }
  } else {
    for (idx j = 0; j < n; ++j) {
      const double* col = a.col_ptr(j);
      double s = 0.0;
      for (idx i = 0; i < m; ++i) s += col[i] * x[i * incx];
      y[j * incy] += alpha * s;
    }
  }
}

void ger(double alpha, const double* x, idx incx, const double* y, idx incy,
         MatrixView a) {
  if (alpha == 0.0) return;
  const idx m = a.rows();
  const idx n = a.cols();
  for (idx j = 0; j < n; ++j) {
    const double t = alpha * y[j * incy];
    if (t == 0.0) continue;
    double* col = a.col_ptr(j);
    if (incx == 1) {
      for (idx i = 0; i < m; ++i) col[i] += t * x[i];
    } else {
      for (idx i = 0; i < m; ++i) col[i] += t * x[i * incx];
    }
  }
}

void trsv(Uplo uplo, Trans trans, Diag diag, ConstMatrixView a, double* x,
          idx incx) {
  assert(a.rows() == a.cols());
  const idx n = a.rows();
  const bool unit = (diag == Diag::Unit);

  if (trans == Trans::NoTrans) {
    if (uplo == Uplo::Lower) {
      // Forward substitution.
      for (idx j = 0; j < n; ++j) {
        if (!unit) x[j * incx] /= a(j, j);
        const double t = x[j * incx];
        for (idx i = j + 1; i < n; ++i) x[i * incx] -= t * a(i, j);
      }
    } else {
      // Backward substitution.
      for (idx j = n - 1; j >= 0; --j) {
        if (!unit) x[j * incx] /= a(j, j);
        const double t = x[j * incx];
        for (idx i = 0; i < j; ++i) x[i * incx] -= t * a(i, j);
      }
    }
  } else {
    if (uplo == Uplo::Lower) {
      // Solve A^T x = b with A lower => backward over columns of A.
      for (idx j = n - 1; j >= 0; --j) {
        double s = x[j * incx];
        for (idx i = j + 1; i < n; ++i) s -= a(i, j) * x[i * incx];
        x[j * incx] = unit ? s : s / a(j, j);
      }
    } else {
      for (idx j = 0; j < n; ++j) {
        double s = x[j * incx];
        for (idx i = 0; i < j; ++i) s -= a(i, j) * x[i * incx];
        x[j * incx] = unit ? s : s / a(j, j);
      }
    }
  }
}

void trmv(Uplo uplo, Trans trans, Diag diag, ConstMatrixView a, double* x,
          idx incx) {
  assert(a.rows() == a.cols());
  const idx n = a.rows();
  const bool unit = (diag == Diag::Unit);

  if (trans == Trans::NoTrans) {
    if (uplo == Uplo::Upper) {
      for (idx j = 0; j < n; ++j) {
        // x_i (i<j) accumulate contributions of x_j before x_j is scaled.
        const double t = x[j * incx];
        if (t != 0.0) {
          for (idx i = 0; i < j; ++i) x[i * incx] += t * a(i, j);
        }
        if (!unit) x[j * incx] = t * a(j, j);
      }
    } else {
      for (idx j = n - 1; j >= 0; --j) {
        const double t = x[j * incx];
        if (t != 0.0) {
          for (idx i = j + 1; i < n; ++i) x[i * incx] += t * a(i, j);
        }
        if (!unit) x[j * incx] = t * a(j, j);
      }
    }
  } else {
    if (uplo == Uplo::Upper) {
      for (idx j = n - 1; j >= 0; --j) {
        double s = unit ? x[j * incx] : x[j * incx] * a(j, j);
        for (idx i = 0; i < j; ++i) s += a(i, j) * x[i * incx];
        x[j * incx] = s;
      }
    } else {
      for (idx j = 0; j < n; ++j) {
        double s = unit ? x[j * incx] : x[j * incx] * a(j, j);
        for (idx i = j + 1; i < n; ++i) s += a(i, j) * x[i * incx];
        x[j * incx] = s;
      }
    }
  }
}

}  // namespace camult::blas
