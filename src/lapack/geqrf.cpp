#include "lapack/geqrf.hpp"

#include <algorithm>
#include <cassert>

#include "blas/blas.hpp"
#include "lapack/householder.hpp"
#include "matrix/matrix.hpp"

namespace camult::lapack {

namespace {

// geqr2 into caller-owned tau (min(m, n) entries) and work (n entries).
void geqr2_body(MatrixView a, double* tau, double* work) {
  const idx m = a.rows();
  const idx n = a.cols();
  const idx k = std::min(m, n);
  for (idx j = 0; j < k; ++j) {
    double* v_tail = (j + 1 < m) ? a.col_ptr(j) + j + 1 : nullptr;
    tau[j] = larfg(m - j, a(j, j), v_tail, 1);
    if (j + 1 < n) {
      apply_reflector_left(tau[j], v_tail,
                           a.block(j, j + 1, m - j, n - j - 1), work);
    }
  }
}

}  // namespace

void geqr2(MatrixView a, std::vector<double>& tau) {
  tau.assign(static_cast<std::size_t>(std::min(a.rows(), a.cols())), 0.0);
  blas::ScratchBuffer work(static_cast<std::size_t>(a.cols()));
  geqr2_body(a, tau.data(), work.data());
}

namespace {

// T from the Gram matrix of a block of k reflectors: g(j, i) = V(:, j)^T
// V(:, i) for j < i (the rest of g is not read). T(0:i, i) =
// -tau_i T(0:i, 0:i) G(0:i, i), T(i, i) = tau_i.
void larft_gram(ConstMatrixView g, const double* tau, MatrixView t) {
  for (idx i = 0; i < g.cols(); ++i) {
    const double taui = tau[i];
    for (idx j = 0; j < i; ++j) t(j, i) = taui == 0.0 ? 0.0 : -taui * g(j, i);
    if (taui != 0.0) {
      blas::trmv(blas::Uplo::Upper, blas::Trans::NoTrans, blas::Diag::NonUnit,
                 t.block(0, 0, i, i), t.col_ptr(i), 1);
    }
    t(i, i) = taui;
  }
}

}  // namespace

void larft(ConstMatrixView v, const double* tau, MatrixView t) {
  const idx m = v.rows();
  const idx k = v.cols();
  assert(m >= k);
  assert(t.rows() >= k && t.cols() >= k);
  if (k == 0) return;

  // G(j, i) = V(:, j)^T V(:, i) for j < i, with V unit lower-trapezoidal:
  // the rows below the k x k top in one inner product V2^T V2, plus the
  // top's rows i..k, where V(i, i) = 1.
  blas::ScratchBuffer gbuf(static_cast<std::size_t>(k * k));
  MatrixView g(gbuf.data(), k, k, k);
  fill(g, 0.0);
  if (m > k) {
    ConstMatrixView v2 = v.block(k, 0, m - k, k);
    blas::gemm_inner(1.0, v2, v2, g);
  }
  for (idx i = 1; i < k; ++i) {
    for (idx j = 0; j < i; ++j) {
      double s = v(i, j);
      for (idx r = i + 1; r < k; ++r) s += v(r, j) * v(r, i);
      g(j, i) += s;
    }
  }
  larft_gram(g, tau, t);
}

namespace {

// Apply I - V T V^T (NoTrans) or I - V T^T V^T (Trans) to the stacked
// [c1; c2] with V = [V1; v2]: larfb_left's body (v1 the unit lower
// triangle) and tpmqrt's (v1 null: V1 = I, so the trmm on it drops out).
// vp (when non-null) supplies pre-packed copies of v2 for the two gemms,
// everything else is identical.
void apply_block_reflector(blas::Trans trans, const ConstMatrixView* v1,
                           ConstMatrixView v2, ConstMatrixView t,
                           const LarfbPackedV* vp, MatrixView c1,
                           MatrixView c2) {
  const idx n = c1.cols();
  const idx k = c1.rows();
  assert(v2.rows() == c2.rows() && v2.cols() == k && c2.cols() == n);
  assert(t.rows() >= k && t.cols() >= k);
  if (n == 0 || k == 0) return;
  const bool has_v2 = c2.rows() > 0;

  // W = C^T V = C1^T V1 + C2^T V2   (n x k)
  blas::ScratchBuffer wbuf(static_cast<std::size_t>(n * k));
  MatrixView w(wbuf.data(), n, k, n);
  for (idx j = 0; j < k; ++j) {
    for (idx i = 0; i < n; ++i) w(i, j) = c1(j, i);
  }
  if (v1 != nullptr) {
    blas::trmm(blas::Side::Right, blas::Uplo::Lower, blas::Trans::NoTrans,
               blas::Diag::Unit, 1.0, *v1, w);
  }
  if (has_v2) {
    if (vp != nullptr) {
      blas::gemm_packed(blas::Trans::Trans, 1.0, c2, vp->v2_b, 1.0, w);
    } else {
      blas::gemm(blas::Trans::Trans, blas::Trans::NoTrans, 1.0, c2, v2, 1.0,
                 w);
    }
  }

  // W := W * T^T (apply Q) or W * T (apply Q^T).
  blas::trmm(blas::Side::Right, blas::Uplo::Upper,
             trans == blas::Trans::NoTrans ? blas::Trans::Trans
                                           : blas::Trans::NoTrans,
             blas::Diag::NonUnit, 1.0, t.block(0, 0, k, k), w);

  // C2 -= V2 * W^T
  if (has_v2) {
    if (vp != nullptr) {
      blas::gemm_packed(-1.0, vp->v2_a, blas::Trans::Trans, w, 1.0, c2);
    } else {
      blas::gemm(blas::Trans::NoTrans, blas::Trans::Trans, -1.0, v2, w, 1.0,
                 c2);
    }
  }
  // W := W * V1^T, then C1 -= W^T.
  if (v1 != nullptr) {
    blas::trmm(blas::Side::Right, blas::Uplo::Lower, blas::Trans::Trans,
               blas::Diag::Unit, 1.0, *v1, w);
  }
  for (idx j = 0; j < k; ++j) {
    for (idx i = 0; i < n; ++i) c1(j, i) -= w(i, j);
  }
}

// larfb_left on v = [V1; V2] and the matching rows of c.
void larfb_left_impl(blas::Trans trans, ConstMatrixView v, ConstMatrixView t,
                     const LarfbPackedV* vp, MatrixView c) {
  const idx m = c.rows();
  const idx k = v.cols();
  assert(v.rows() == m);
  if (m == 0 || c.cols() == 0 || k == 0) return;
  const ConstMatrixView v1 = v.block(0, 0, k, k);  // unit lower triangular
  apply_block_reflector(trans, &v1, v.block(k, 0, m - k, k), t, vp,
                        c.rows_range(0, k), c.rows_range(k, m - k));
}

// Both gemm layouts of a reflector block's rectangular part.
LarfbPackedV pack_v2(ConstMatrixView v2) {
  LarfbPackedV vp;
  vp.v2_a = blas::pack_a(v2, blas::Trans::NoTrans);
  vp.v2_b = blas::pack_b(v2, blas::Trans::NoTrans);
  return vp;
}

}  // namespace

void larfb_left(blas::Trans trans, ConstMatrixView v, ConstMatrixView t,
                MatrixView c) {
  larfb_left_impl(trans, v, t, nullptr, c);
}

LarfbPackedV larfb_pack_v(ConstMatrixView v) {
  const idx m = v.rows();
  const idx k = v.cols();
  if (m <= k) return {};
  return pack_v2(v.block(k, 0, m - k, k));
}

void larfb_left(blas::Trans trans, ConstMatrixView v, ConstMatrixView t,
                const LarfbPackedV& vp, MatrixView c) {
  // A degenerate pack (m == k: no V2) falls back to the plain body.
  larfb_left_impl(trans, v, t, vp.empty() ? nullptr : &vp, c);
}

void geqrf(MatrixView a, std::vector<double>& tau, const GeqrfOptions& opts) {
  const idx m = a.rows();
  const idx n = a.cols();
  const idx k = std::min(m, n);
  tau.assign(static_cast<std::size_t>(k), 0.0);

  std::vector<double> panel_tau;
  Matrix t(opts.nb, opts.nb);
  for (idx j = 0; j < k; j += opts.nb) {
    const idx jb = std::min(opts.nb, k - j);
    MatrixView panel = a.block(j, j, m - j, jb);
    MatrixView tb = t.block(0, 0, jb, jb);
    if (opts.recursive_panel) {
      geqr3(panel, panel_tau, tb);
    } else {
      geqr2(panel, panel_tau);
      larft(panel, panel_tau.data(), tb);
    }
    for (idx i = 0; i < jb; ++i) {
      tau[static_cast<std::size_t>(j + i)] =
          panel_tau[static_cast<std::size_t>(i)];
    }
    if (j + jb < n) {
      larfb_left(blas::Trans::Trans, panel, tb,
                 a.block(j, j + jb, m - j, n - j - jb));
    }
  }
}

namespace {

// geqr3's recursion; work holds kGeqr3Base doubles for the base case.
void geqr3_rec(MatrixView a, double* tau, MatrixView t, double* work) {
  const idx m = a.rows();
  const idx n = a.cols();
  if (n <= kGeqr3Base) {
    geqr2_body(a, tau, work);
    larft(a, tau, t);
    return;
  }
  const idx n1 = n / 2;
  const idx n2 = n - n1;

  MatrixView left = a.cols_range(0, n1);
  MatrixView t1 = t.block(0, 0, n1, n1);
  geqr3_rec(left, tau, t1, work);

  // Apply Q1^T to the right half.
  MatrixView right = a.cols_range(n1, n2);
  larfb_left(blas::Trans::Trans, left, t1, right);

  // Factor the lower-right block.
  MatrixView t2 = t.block(n1, n1, n2, n2);
  geqr3_rec(a.block(n1, n1, m - n1, n2), tau + n1, t2, work);

  larft_join(a, n1, t);
}

}  // namespace

void larft_join(ConstMatrixView v, idx n1, MatrixView t) {
  const idx m = v.rows();
  const idx n2 = v.cols() - n1;
  // V1 rows n1..m are stored in v(n1:m, 0:n1); V2 is the unit
  // lower-trapezoidal v(n1:m, n1:n).
  MatrixView t12 = t.block(0, n1, n1, n2);
  ConstMatrixView b1 = v.block(n1, 0, n2, n1);
  for (idx j = 0; j < n2; ++j) {
    for (idx i = 0; i < n1; ++i) t12(i, j) = b1(j, i);
  }
  blas::trmm(blas::Side::Right, blas::Uplo::Lower, blas::Trans::NoTrans,
             blas::Diag::Unit, 1.0, v.block(n1, n1, n2, n2), t12);
  if (m > n1 + n2) {
    blas::gemm(blas::Trans::Trans, blas::Trans::NoTrans, 1.0,
               v.block(n1 + n2, 0, m - n1 - n2, n1),
               v.block(n1 + n2, n1, m - n1 - n2, n2), 1.0, t12);
  }
  blas::trmm(blas::Side::Left, blas::Uplo::Upper, blas::Trans::NoTrans,
             blas::Diag::NonUnit, -1.0, t.block(0, 0, n1, n1), t12);
  blas::trmm(blas::Side::Right, blas::Uplo::Upper, blas::Trans::NoTrans,
             blas::Diag::NonUnit, 1.0, t.block(n1, n1, n2, n2), t12);
}

void geqr3(MatrixView a, std::vector<double>& tau, MatrixView t) {
  const idx n = a.cols();
  assert(a.rows() >= n);
  assert(t.rows() >= n && t.cols() >= n);
  tau.assign(static_cast<std::size_t>(n), 0.0);
  if (n == 0) return;
  blas::ScratchBuffer work(static_cast<std::size_t>(kGeqr3Base));
  geqr3_rec(a, tau.data(), t, work.data());
}

void tpmqrt(blas::Trans trans, ConstMatrixView v, ConstMatrixView t,
            MatrixView c_top, MatrixView c_bot) {
  apply_block_reflector(trans, nullptr, v, t, nullptr, c_top, c_bot);
}

LarfbPackedV tpmqrt_pack_v(ConstMatrixView v) {
  if (v.empty()) return {};
  return pack_v2(v);
}

void tpmqrt(blas::Trans trans, ConstMatrixView v, ConstMatrixView t,
            const LarfbPackedV& vp, MatrixView c_top, MatrixView c_bot) {
  apply_block_reflector(trans, nullptr, v, t, vp.empty() ? nullptr : &vp,
                        c_top, c_bot);
}

namespace {

// tpqrt's recursion on [r; b]; work holds kGeqr3Base doubles for the base
// case. V = [I; V_B], and the identity rows of two different reflectors
// never meet, so every V^T V product below is a product of B columns only.
void tpqrt_rec(MatrixView r, MatrixView b, double* tau, MatrixView t,
               double* work) {
  const idx n = r.cols();
  if (n <= kGeqr3Base) {
    // Column j's reflector meets row j of R and all of B.
    for (idx j = 0; j < n; ++j) {
      tau[j] = larfg(b.rows() + 1, r(j, j), b.col_ptr(j), 1);
      if (j + 1 < n) {
        apply_reflector_left(tau[j], b.col_ptr(j),
                             r.block(j, j + 1, 1, n - j - 1),
                             b.cols_range(j + 1, n - j - 1), work);
      }
    }
    blas::ScratchBuffer gbuf(static_cast<std::size_t>(n * n));
    MatrixView g(gbuf.data(), n, n, n);
    fill(g, 0.0);
    blas::gemm_inner(1.0, b, b, g);
    larft_gram(g, tau, t);
    return;
  }
  const idx n1 = n / 2;
  const idx n2 = n - n1;
  MatrixView b1 = b.cols_range(0, n1);
  MatrixView b2 = b.cols_range(n1, n2);
  MatrixView t1 = t.block(0, 0, n1, n1);
  MatrixView t2 = t.block(n1, n1, n2, n2);

  tpqrt_rec(r.block(0, 0, n1, n1), b1, tau, t1, work);
  // Q1^T on the right half: R's rows n1..n are not in V1 = [I; 0; B1].
  tpmqrt(blas::Trans::Trans, b1, t1, r.block(0, n1, n1, n2), b2);
  tpqrt_rec(r.block(n1, n1, n2, n2), b2, tau + n1, t2, work);

  // T12 = -T1 (B1^T B2) T2.
  MatrixView t12 = t.block(0, n1, n1, n2);
  blas::gemm(blas::Trans::Trans, blas::Trans::NoTrans, 1.0, b1, b2, 0.0, t12);
  blas::trmm(blas::Side::Left, blas::Uplo::Upper, blas::Trans::NoTrans,
             blas::Diag::NonUnit, -1.0, t1, t12);
  blas::trmm(blas::Side::Right, blas::Uplo::Upper, blas::Trans::NoTrans,
             blas::Diag::NonUnit, 1.0, t2, t12);
}

}  // namespace

void tpqrt(MatrixView r, MatrixView b, double* tau, MatrixView t) {
  const idx n = r.cols();
  assert(r.rows() == n && b.cols() == n);
  assert(t.rows() >= n && t.cols() >= n);
  if (n == 0) return;
  blas::ScratchBuffer work(static_cast<std::size_t>(kGeqr3Base));
  tpqrt_rec(r, b, tau, t, work.data());
}

}  // namespace camult::lapack
