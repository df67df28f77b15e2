// Tests for BLAS level-2 kernels against naive references. gemv(Trans)
// with incx == 1 runs on the inner-product kernel, so it is checked for
// every runnable kernel, over contraction tails and blocks and strided
// views.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/kernel.hpp"
#include "blas/level2.hpp"
#include "common/test_utils.hpp"
#include "matrix/random.hpp"

namespace camult::blas {
namespace {

using camult::test::KernelGuard;
using camult::test::matrices_near;

TEST(Gemv, NoTransMatchesReference) {
  Matrix a = random_matrix(7, 5, 1);
  std::vector<double> x(5), y(7), y_ref(7);
  for (int i = 0; i < 5; ++i) x[i] = i + 1;
  for (int i = 0; i < 7; ++i) y[i] = y_ref[i] = 0.5 * i;

  gemv(Trans::NoTrans, 2.0, a, x.data(), 1, 3.0, y.data(), 1);
  for (idx i = 0; i < 7; ++i) {
    double s = 0;
    for (idx j = 0; j < 5; ++j) s += a(i, j) * x[static_cast<std::size_t>(j)];
    y_ref[static_cast<std::size_t>(i)] =
        2.0 * s + 3.0 * y_ref[static_cast<std::size_t>(i)];
  }
  for (int i = 0; i < 7; ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-13);
}

TEST(Gemv, TransMatchesReference) {
  Matrix a = random_matrix(7, 5, 2);
  std::vector<double> x(7), y(5), y_ref(5);
  for (int i = 0; i < 7; ++i) x[i] = i - 3;
  for (int i = 0; i < 5; ++i) y[i] = y_ref[i] = 1.0;

  gemv(Trans::Trans, -1.5, a, x.data(), 1, 0.0, y.data(), 1);
  for (idx j = 0; j < 5; ++j) {
    double s = 0;
    for (idx i = 0; i < 7; ++i) s += a(i, j) * x[static_cast<std::size_t>(i)];
    y_ref[static_cast<std::size_t>(j)] = -1.5 * s;
  }
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-13);
}

TEST(Gemv, BetaZeroOverwritesGarbage) {
  Matrix a = random_matrix(3, 3, 3);
  std::vector<double> x = {1, 1, 1};
  std::vector<double> y = {std::numeric_limits<double>::quiet_NaN(), 0, 0};
  gemv(Trans::NoTrans, 1.0, a, x.data(), 1, 0.0, y.data(), 1);
  EXPECT_FALSE(std::isnan(y[0]));
}

// y = alpha * A^T x + beta * y with A (m x n) viewed at row `off` of a
// taller matrix (ld > m), x contiguous or strided and y strided by incy.
// beta == 0 must overwrite NaN garbage; y's gaps must stay untouched.
void check_gemv_trans(idx m, idx n, idx incx, idx incy, double alpha,
                      double beta, idx off, std::uint64_t seed) {
  const Matrix abig = random_matrix(m + 2 * off, n + 1, seed);
  const ConstMatrixView a = abig.view().block(off, 1, m, n);
  const Matrix xm = random_matrix(m * incx, 1, seed + 1);
  const Matrix ym = random_matrix(n * incy, 1, seed + 2);
  std::vector<double> y(ym.data(), ym.data() + n * incy);
  std::vector<double> y_ref = y;
  if (beta == 0.0) {
    for (idx j = 0; j < n; ++j) {
      y[static_cast<std::size_t>(j * incy)] =
          std::numeric_limits<double>::quiet_NaN();
    }
  }
  gemv(Trans::Trans, alpha, a, xm.data(), incx, beta, y.data(), incy);
  for (idx j = 0; j < n; ++j) {
    double s = 0.0;
    for (idx i = 0; i < m; ++i) s += a(i, j) * xm.data()[i * incx];
    double& r = y_ref[static_cast<std::size_t>(j * incy)];
    r = alpha * s + (beta == 0.0 ? 0.0 : beta * r);
  }
  const double tol = 1e-12 * static_cast<double>(std::max<idx>(m, 1));
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], y_ref[i], tol)
        << active_kernel().name << " m=" << m << " n=" << n << " incx="
        << incx << " incy=" << incy << " alpha=" << alpha << " beta=" << beta
        << " at " << i;
  }
}

TEST(Gemv, TransEveryKernelTailsBlocksAndViews) {
  // Lane widths 8 and 4, the contraction block kInnerKc, and column counts
  // covering every fringe of the inner-product register tiles.
  const idx ms[] = {1,  3,  4,  5,  7,  8,  9,  100,
                    kInnerKc - 1, kInnerKc, kInnerKc + 1};
  const idx ns[] = {1, 4, 7, 13};
  const double alphas[] = {1.0, -1.0, 0.5};
  const double betas[] = {0.0, 1.0, 2.0};
  KernelGuard guard;
  for (const KernelInfo& k : kernel_registry()) {
    if (!k.supported) continue;
    ASSERT_TRUE(set_active_kernel(k.name));
    int s = 0;
    for (idx m : ms) {
      for (idx n : ns) {
        for (idx incy : {1, 3}) {
          check_gemv_trans(m, n, 1, incy, alphas[s % 3], betas[(s / 3) % 3],
                           s % 4, 500 + static_cast<std::uint64_t>(s));
          ++s;
        }
      }
    }
    // The strided-x loop keeps its own path.
    check_gemv_trans(33, 5, 2, 1, 0.5, 2.0, 1, 599);
  }
}

TEST(Gemv, TransNanAndInfPropagateEveryKernel) {
  // No zero-skip: a NaN in x poisons every y_j, even through a zero
  // column; an Inf in column j poisons y_j only.
  const idx m = 37, n = 5;
  KernelGuard guard;
  for (const KernelInfo& k : kernel_registry()) {
    if (!k.supported) continue;
    ASSERT_TRUE(set_active_kernel(k.name));
    Matrix a = random_matrix(m, n, 81);
    for (idx i = 0; i < m; ++i) a(i, 1) = 0.0;
    std::vector<double> x(static_cast<std::size_t>(m), 0.25);
    std::vector<double> y(static_cast<std::size_t>(n), 1.0);
    x[36] = std::numeric_limits<double>::quiet_NaN();
    gemv(Trans::Trans, 1.0, a, x.data(), 1, 1.0, y.data(), 1);
    for (idx j = 0; j < n; ++j) {
      EXPECT_TRUE(std::isnan(y[static_cast<std::size_t>(j)]))
          << k.name << " y" << j;
    }
    x[36] = 0.25;
    a(20, 3) = std::numeric_limits<double>::infinity();
    std::fill(y.begin(), y.end(), 1.0);
    gemv(Trans::Trans, 1.0, a, x.data(), 1, 1.0, y.data(), 1);
    for (idx j = 0; j < n; ++j) {
      EXPECT_EQ(std::isfinite(y[static_cast<std::size_t>(j)]), j != 3)
          << k.name << " y" << j;
    }
  }
}

TEST(Ger, Rank1Update) {
  Matrix a = Matrix::zeros(4, 3);
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {5, 6, 7};
  ger(2.0, x.data(), 1, y.data(), 1, a.view());
  for (idx j = 0; j < 3; ++j) {
    for (idx i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(a(i, j), 2.0 * x[static_cast<std::size_t>(i)] *
                                    y[static_cast<std::size_t>(j)]);
    }
  }
}

struct TrsvCase {
  Uplo uplo;
  Trans trans;
  Diag diag;
};

class TrsvTest : public ::testing::TestWithParam<TrsvCase> {};

TEST_P(TrsvTest, SolveMatchesMultiply) {
  const auto& p = GetParam();
  const idx n = 9;
  Matrix a = random_matrix(n, n, 11);
  for (idx i = 0; i < n; ++i) a(i, i) += 4.0;  // well conditioned

  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) x_true[static_cast<std::size_t>(i)] = 1.0 + 0.1 * static_cast<double>(i);

  // b = op(T) * x_true via trmv on a copy.
  std::vector<double> b = x_true;
  trmv(p.uplo, p.trans, p.diag, a, b.data(), 1);
  // Solve in place.
  trsv(p.uplo, p.trans, p.diag, a, b.data(), 1);
  for (idx i = 0; i < n; ++i) {
    EXPECT_NEAR(b[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TrsvTest,
    ::testing::Values(TrsvCase{Uplo::Lower, Trans::NoTrans, Diag::NonUnit},
                      TrsvCase{Uplo::Lower, Trans::NoTrans, Diag::Unit},
                      TrsvCase{Uplo::Lower, Trans::Trans, Diag::NonUnit},
                      TrsvCase{Uplo::Lower, Trans::Trans, Diag::Unit},
                      TrsvCase{Uplo::Upper, Trans::NoTrans, Diag::NonUnit},
                      TrsvCase{Uplo::Upper, Trans::NoTrans, Diag::Unit},
                      TrsvCase{Uplo::Upper, Trans::Trans, Diag::NonUnit},
                      TrsvCase{Uplo::Upper, Trans::Trans, Diag::Unit}));

class TrmvTest : public ::testing::TestWithParam<TrsvCase> {};

TEST_P(TrmvTest, MatchesExplicitTriangleMultiply) {
  const auto& p = GetParam();
  const idx n = 8;
  Matrix a = random_matrix(n, n, 13);
  Matrix t = test::reference_triangle(a, p.uplo, p.diag);

  std::vector<double> x(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) x[static_cast<std::size_t>(i)] = static_cast<double>(i) - 2.5;
  std::vector<double> x_ref(static_cast<std::size_t>(n), 0.0);
  for (idx i = 0; i < n; ++i) {
    double s = 0;
    for (idx j = 0; j < n; ++j) {
      const double tij = p.trans == Trans::NoTrans ? t(i, j) : t(j, i);
      s += tij * x[static_cast<std::size_t>(j)];
    }
    x_ref[static_cast<std::size_t>(i)] = s;
  }
  trmv(p.uplo, p.trans, p.diag, a, x.data(), 1);
  for (idx i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                x_ref[static_cast<std::size_t>(i)], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TrmvTest,
    ::testing::Values(TrsvCase{Uplo::Lower, Trans::NoTrans, Diag::NonUnit},
                      TrsvCase{Uplo::Lower, Trans::NoTrans, Diag::Unit},
                      TrsvCase{Uplo::Lower, Trans::Trans, Diag::NonUnit},
                      TrsvCase{Uplo::Lower, Trans::Trans, Diag::Unit},
                      TrsvCase{Uplo::Upper, Trans::NoTrans, Diag::NonUnit},
                      TrsvCase{Uplo::Upper, Trans::NoTrans, Diag::Unit},
                      TrsvCase{Uplo::Upper, Trans::Trans, Diag::NonUnit},
                      TrsvCase{Uplo::Upper, Trans::Trans, Diag::Unit}));

}  // namespace
}  // namespace camult::blas
