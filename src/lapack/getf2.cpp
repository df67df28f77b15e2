#include "lapack/getf2.hpp"

#include <cmath>

#include "blas/level1.hpp"

namespace camult::lapack {

namespace {

// max |a(i, j)| over the given triangle of the matrix (whole = both).
double absmax_all(ConstMatrixView a) {
  double m = 0.0;
  for (idx j = 0; j < a.cols(); ++j) {
    const double* col = a.col_ptr(j);
    for (idx i = 0; i < a.rows(); ++i) {
      const double v = std::abs(col[i]);
      if (v > m) m = v;
    }
  }
  return m;
}

double absmax_upper(ConstMatrixView a) {
  double m = 0.0;
  for (idx j = 0; j < a.cols(); ++j) {
    const idx imax = std::min(j + 1, a.rows());
    for (idx i = 0; i < imax; ++i) {
      const double v = std::abs(a(i, j));
      if (v > m) m = v;
    }
  }
  return m;
}

}  // namespace

idx getf2(MatrixView a, PivotVector& ipiv, double* growth) {
  double amax = 0.0;
  if (growth != nullptr) amax = absmax_all(a);
  const idx info = getf2(a, ipiv);
  if (growth != nullptr) {
    *growth = amax > 0.0 ? absmax_upper(a) / amax : 0.0;
  }
  return info;
}

idx getf2(MatrixView a, PivotVector& ipiv) {
  ipiv.assign(static_cast<std::size_t>(std::min(a.rows(), a.cols())), 0);
  return getf2_block(a, ipiv.data());
}

idx getf2_block(MatrixView a, idx* ipiv) {
  const idx m = a.rows();
  const idx n = a.cols();
  const idx k = std::min(m, n);
  idx info = 0;

  for (idx j = 0; j < k; ++j) {
    // Pivot: largest magnitude in column j at or below the diagonal.
    const idx p = j + blas::iamax(m - j, a.col_ptr(j) + j, 1);
    ipiv[j] = p;
    if (a(p, j) != 0.0) {
      if (p != j) {
        blas::swap(n, a.data() + j, a.ld(), a.data() + p, a.ld());
      }
      if (j < m - 1) {
        blas::scal(m - j - 1, 1.0 / a(j, j), a.col_ptr(j) + j + 1, 1);
      }
    } else if (info == 0) {
      info = j + 1;
    }
    // Rank-1 update of the trailing submatrix. No zero-skip, as in
    // gemm_small: a NaN or Inf multiplier reaches every column it
    // multiplies, also one whose U entry is exactly 0.
    const double* l = a.col_ptr(j) + j + 1;
    for (idx jj = j + 1; jj < n; ++jj) {
      double* col = a.col_ptr(jj) + j + 1;
      const double u = -a(j, jj);
      for (idx i = 0; i < m - j - 1; ++i) col[i] += u * l[i];
    }
  }
  return info;
}

}  // namespace camult::lapack
