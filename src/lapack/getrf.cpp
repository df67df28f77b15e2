#include "lapack/getrf.hpp"

#include "blas/blas.hpp"
#include "lapack/getf2.hpp"
#include "lapack/laswp.hpp"

namespace camult::lapack {
namespace {

// Recursive worker: ipiv must already be sized to min(m,n); entries are
// written at [piv_offset, piv_offset + min(m,n)).
idx rgetf2_rec(MatrixView a, PivotVector& ipiv, std::size_t piv_offset) {
  const idx m = a.rows();
  const idx n = a.cols();
  const idx k = std::min(m, n);
  if (k == 0) return 0;

  if (m == 1) {
    ipiv[piv_offset] = 0;
    return (a(0, 0) == 0.0) ? 1 : 0;
  }
  if (n <= kLuBaseCols) return getf2_block(a, ipiv.data() + piv_offset);

  const idx n1 = k / 2;
  const idx n2 = n - n1;

  // Factor the left half [A11; A21].
  MatrixView left = a.cols_range(0, n1);
  idx info = rgetf2_rec(left, ipiv, piv_offset);

  // Apply its interchanges to the right half, then solve/update.
  MatrixView right = a.cols_range(n1, n2);
  for (idx kk = 0; kk < n1; ++kk) {
    const idx p = ipiv[piv_offset + static_cast<std::size_t>(kk)];
    if (p != kk) {
      blas::swap(n2, right.data() + kk, right.ld(), right.data() + p,
                 right.ld());
    }
  }
  blas::trsm(blas::Side::Left, blas::Uplo::Lower, blas::Trans::NoTrans,
             blas::Diag::Unit, 1.0, a.block(0, 0, n1, n1),
             right.rows_range(0, n1));
  blas::gemm(blas::Trans::NoTrans, blas::Trans::NoTrans, -1.0,
             a.block(n1, 0, m - n1, n1), right.rows_range(0, n1), 1.0,
             right.rows_range(n1, m - n1));

  // Factor the trailing block and pull its interchanges back into the left
  // columns.
  MatrixView a22 = a.block(n1, n1, m - n1, n2);
  const idx info2 =
      rgetf2_rec(a22, ipiv, piv_offset + static_cast<std::size_t>(n1));
  if (info == 0 && info2 != 0) info = info2 + n1;

  MatrixView left_below = a.block(n1, 0, m - n1, n1);
  const idx k2 = std::min(m - n1, n2);
  for (idx kk = 0; kk < k2; ++kk) {
    const std::size_t slot = piv_offset + static_cast<std::size_t>(n1 + kk);
    const idx p = ipiv[slot];
    if (p != kk) {
      blas::swap(n1, left_below.data() + kk, left_below.ld(),
                 left_below.data() + p, left_below.ld());
    }
    // Rebase the pivot index to the top of this (sub)matrix.
    ipiv[slot] = p + n1;
  }
  return info;
}

}  // namespace

idx rgetf2(MatrixView a, PivotVector& ipiv) {
  const idx k = std::min(a.rows(), a.cols());
  ipiv.assign(static_cast<std::size_t>(k), 0);
  return rgetf2_rec(a, ipiv, 0);
}

idx getrf(MatrixView a, PivotVector& ipiv, const GetrfOptions& opts) {
  const idx m = a.rows();
  const idx n = a.cols();
  const idx k = std::min(m, n);
  ipiv.assign(static_cast<std::size_t>(k), 0);
  idx info = 0;

  PivotVector panel_piv;
  for (idx j = 0; j < k; j += opts.nb) {
    const idx jb = std::min(opts.nb, k - j);
    MatrixView panel = a.block(j, j, m - j, jb);

    const idx panel_info = (opts.panel == LuPanelKernel::Recursive)
                               ? rgetf2(panel, panel_piv)
                               : getf2(panel, panel_piv);
    if (info == 0 && panel_info != 0) info = panel_info + j;

    // Record global pivots and apply the interchanges to the columns to the
    // left and to the right of the panel (rows j..m).
    for (idx i = 0; i < jb; ++i) {
      ipiv[static_cast<std::size_t>(j + i)] =
          panel_piv[static_cast<std::size_t>(i)] + j;
    }
    if (j > 0) {
      laswp(a.block(j, 0, m - j, j), 0, jb, panel_piv);
    }
    if (j + jb < n) {
      MatrixView right = a.block(j, j + jb, m - j, n - j - jb);
      laswp(right, 0, jb, panel_piv);
      blas::trsm(blas::Side::Left, blas::Uplo::Lower, blas::Trans::NoTrans,
                 blas::Diag::Unit, 1.0, a.block(j, j, jb, jb),
                 right.rows_range(0, jb));
      if (j + jb < m) {
        blas::gemm(blas::Trans::NoTrans, blas::Trans::NoTrans, -1.0,
                   a.block(j + jb, j, m - j - jb, jb), right.rows_range(0, jb),
                   1.0, right.rows_range(jb, m - j - jb));
      }
    }
  }
  return info;
}

}  // namespace camult::lapack
