#include "lapack/householder.hpp"

#include <cassert>
#include <cmath>
#include <limits>

#include "blas/level1.hpp"
#include "blas/level2.hpp"

namespace camult::lapack {

double larfg(idx n, double& alpha, double* x, idx incx) {
  if (n <= 1) return 0.0;
  double xnorm = blas::nrm2(n - 1, x, incx);
  if (xnorm == 0.0) return 0.0;

  double beta = -std::copysign(std::hypot(alpha, xnorm), alpha);

  // Guard against denormalized beta, as in dlarfg.
  const double safmin =
      std::numeric_limits<double>::min() / std::numeric_limits<double>::epsilon();
  int rescales = 0;
  double alpha_s = alpha;
  while (std::abs(beta) < safmin && rescales < 20) {
    const double inv = 1.0 / safmin;
    blas::scal(n - 1, inv, x, incx);
    beta *= inv;
    alpha_s *= inv;
    xnorm = blas::nrm2(n - 1, x, incx);
    beta = -std::copysign(std::hypot(alpha_s, xnorm), alpha_s);
    ++rescales;
  }

  const double tau = (beta - alpha_s) / beta;
  blas::scal(n - 1, 1.0 / (alpha_s - beta), x, incx);
  for (int r = 0; r < rescales; ++r) beta *= safmin;
  alpha = beta;
  return tau;
}

void apply_reflector_left(double tau, const double* v_tail, MatrixView c,
                          double* work) {
  assert(c.rows() >= 1);
  apply_reflector_left(tau, v_tail, c.rows_range(0, 1),
                       c.rows_range(1, c.rows() - 1), work);
}

void apply_reflector_left(double tau, const double* v_tail, MatrixView top,
                          MatrixView below, double* work) {
  if (tau == 0.0 || top.cols() == 0) return;
  const idx m = below.rows();
  const idx n = top.cols();
  assert(top.rows() == 1 && below.cols() == n);

  // work = top^T + below^T * v_tail
  for (idx j = 0; j < n; ++j) work[j] = top(0, j);
  if (m > 0) {
    blas::gemv(blas::Trans::Trans, 1.0, below, v_tail, 1, 1.0, work, 1);
  }
  // top -= tau * work; below -= tau * v_tail * work^T
  for (idx j = 0; j < n; ++j) top(0, j) -= tau * work[j];
  if (m > 0) blas::ger(-tau, v_tail, 1, work, 1, below);
}

}  // namespace camult::lapack
