// LU factorization tests: getf2, rgetf2, blocked getrf, laswp. Invariants:
// small scaled residual ||PA - LU||, exact agreement of pivot choices between
// the variants on distinct-magnitude matrices, correct handling of singular
// and rank-deficient inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "blas/blas.hpp"
#include "common/test_utils.hpp"
#include "lapack/lapack.hpp"
#include "matrix/norms.hpp"
#include "matrix/random.hpp"

namespace camult::lapack {
namespace {

using camult::test::kResidualThreshold;
using camult::test::matrices_near;

TEST(Laswp, AppliesSwapSequence) {
  Matrix a = random_matrix(5, 3, 1);
  Matrix orig = a;
  PivotVector ipiv = {3, 2, 4};
  laswp(a.view(), 0, 3, ipiv);
  Permutation perm = ipiv_to_permutation(ipiv, 5);
  Matrix expect = permute_rows(perm, orig);
  EXPECT_EQ(test::max_diff(a, expect), 0.0);
}

TEST(Laswp, InverseUndoes) {
  Matrix a = random_matrix(7, 4, 2);
  Matrix orig = a;
  PivotVector ipiv = {6, 5, 2, 3};
  laswp(a.view(), 0, 4, ipiv);
  laswp_inverse(a.view(), 0, 4, ipiv);
  EXPECT_EQ(test::max_diff(a, orig), 0.0);
}

TEST(Laswp, PartialRange) {
  Matrix a = random_matrix(6, 2, 3);
  Matrix b = a;
  PivotVector ipiv = {5, 4, 3};
  laswp(a.view(), 1, 3, ipiv);
  // Same as applying only swaps 1 and 2 by hand.
  blas::swap(2, b.data() + 1, b.ld(), b.data() + 4, b.ld());
  blas::swap(2, b.data() + 2, b.ld(), b.data() + 3, b.ld());
  EXPECT_EQ(test::max_diff(a, b), 0.0);
}

// The oracle: the row-by-row loop, one ld-strided swap across every column
// per interchange, in order (or in reverse order).
void laswp_row_loop(MatrixView a, idx k1, idx k2, const PivotVector& ipiv,
                    bool reverse) {
  for (idx s = k1; s < k2; ++s) {
    const idx k = reverse ? k2 - 1 - (s - k1) : s;
    const idx p = ipiv[static_cast<std::size_t>(k)];
    if (p != k) {
      blas::swap(a.cols(), a.data() + k, a.ld(), a.data() + p, a.ld());
    }
  }
}

TEST(Laswp, ColumnWalkMatchesRowLoopOnViews) {
  // Views at (3, 1) of hosts with spare rows and columns (ld > rows): every
  // host entry must carry the bits of the row loop's result, and nothing
  // outside the view may move. Pivot sets: a random one, identity pivots,
  // pivot rows repeated across interchanges, and k1 > 0.
  struct Case {
    idx rows, cols, k1, k2;
    PivotVector ipiv;
  };
  const PivotVector random_piv = [] {
    PivotVector p;
    for (idx k = 0; k < 40; ++k) p.push_back(k + (k * 37 + 11) % (300 - k));
    return p;
  }();
  const std::vector<Case> cases = {
      {300, 7, 0, 40, random_piv},
      {300, 7, 13, 40, random_piv},
      {9, 5, 0, 6, {0, 1, 2, 3, 4, 5}},
      {9, 5, 0, 6, {8, 8, 8, 3, 8, 8}},
      {9, 5, 2, 5, {4, 1, 4, 4, 4}},
      {12, 1, 0, 11, {11, 11, 2, 11, 5, 6, 11, 8, 9, 11, 10}},
      {5, 3, 0, 0, {}},
  };
  for (const Case& c : cases) {
    for (bool reverse : {false, true}) {
      Matrix host = random_matrix(c.rows + 6, c.cols + 3, 40 + c.rows);
      Matrix ref = host;
      MatrixView a = host.view().block(3, 1, c.rows, c.cols);
      if (reverse) {
        laswp_inverse(a, c.k1, c.k2, c.ipiv);
      } else {
        laswp(a, c.k1, c.k2, c.ipiv);
      }
      laswp_row_loop(ref.view().block(3, 1, c.rows, c.cols), c.k1, c.k2,
                     c.ipiv, reverse);
      for (idx j = 0; j < host.cols(); ++j) {
        for (idx i = 0; i < host.rows(); ++i) {
          ASSERT_EQ(std::memcmp(&host(i, j), &ref(i, j), sizeof(double)), 0)
              << c.rows << "x" << c.cols << " [" << c.k1 << ", " << c.k2
              << ") reverse=" << reverse << " at (" << i << ", " << j << ")";
        }
      }
    }
  }
}

using LuShape = std::tuple<idx, idx>;

class Getf2Shapes : public ::testing::TestWithParam<LuShape> {};

TEST_P(Getf2Shapes, ResidualSmall) {
  auto [m, n] = GetParam();
  Matrix a = random_matrix(m, n, 7);
  Matrix lu = a;
  PivotVector ipiv;
  const idx info = getf2(lu.view(), ipiv);
  EXPECT_EQ(info, 0);
  EXPECT_LT(lu_residual(a, lu, ipiv), kResidualThreshold);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Getf2Shapes,
                         ::testing::Values(LuShape{1, 1}, LuShape{4, 4},
                                           LuShape{10, 10}, LuShape{13, 7},
                                           LuShape{7, 13}, LuShape{100, 20},
                                           LuShape{64, 64}, LuShape{33, 50}));

class Rgetf2Shapes : public ::testing::TestWithParam<LuShape> {};

TEST_P(Rgetf2Shapes, ResidualSmall) {
  auto [m, n] = GetParam();
  Matrix a = random_matrix(m, n, 8);
  Matrix lu = a;
  PivotVector ipiv;
  const idx info = rgetf2(lu.view(), ipiv);
  EXPECT_EQ(info, 0);
  EXPECT_LT(lu_residual(a, lu, ipiv), kResidualThreshold);
}

// W = kLuBaseCols, the widest block rgetf2 factors with getf2's loop.
constexpr idx kW = kLuBaseCols;

INSTANTIATE_TEST_SUITE_P(Shapes, Rgetf2Shapes,
                         ::testing::Values(LuShape{1, 1}, LuShape{2, 2},
                                           LuShape{5, 5}, LuShape{16, 16},
                                           LuShape{100, 30}, LuShape{31, 17},
                                           LuShape{17, 31}, LuShape{257, 64},
                                           LuShape{1000, 100}));

// Widths at the base block's edge, tall and wide, m = 1 and n = 1 included,
// and one pass of a tournament leaf (2,066 x 100).
INSTANTIATE_TEST_SUITE_P(
    BaseBlockEdges, Rgetf2Shapes,
    ::testing::Values(LuShape{100, kW - 1}, LuShape{100, kW},
                      LuShape{100, kW + 1}, LuShape{100, 2 * kW + 1},
                      LuShape{kW - 1, 40}, LuShape{kW, 40},
                      LuShape{kW + 1, 40}, LuShape{2 * kW + 1, 40},
                      LuShape{1, kW}, LuShape{1, 2 * kW + 1},
                      LuShape{kW + 1, 1}, LuShape{300, 1},
                      LuShape{2066, 100}));

TEST(Rgetf2, ViewInsideTallerHostTouchesOnlyTheView) {
  // A base block, a recursion over base blocks, and a tournament stack,
  // each viewed at a row and column offset inside a taller host: every
  // host entry outside the view keeps its bits.
  for (auto [m, n] : {LuShape{37, kW}, LuShape{137, 2 * kW + 1},
                      LuShape{2066, 100}}) {
    const Matrix host0 = random_matrix(m + 11, n + 3, 27);
    Matrix host = host0;
    MatrixView view = host.view().block(5, 2, m, n);
    PivotVector ipiv;
    EXPECT_EQ(rgetf2(view, ipiv), 0);
    EXPECT_LT(lu_residual(host0.view().block(5, 2, m, n), view, ipiv),
              kResidualThreshold)
        << m << "x" << n;
    for (idx j = 0; j < n + 3; ++j) {
      for (idx i = 0; i < m + 11; ++i) {
        const bool inside = i >= 5 && i < 5 + m && j >= 2 && j < 2 + n;
        if (!inside) {
          ASSERT_EQ(host(i, j), host0(i, j))
              << m << "x" << n << " touched (" << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST(Rgetf2, ZeroColumnsReportGetf2sInfoAndComplete) {
  // Exact zero columns of a 120 x 100 panel: inside the first base block
  // (column 2), inside a later base block of the left half (40), and in the
  // top-level right half (75), reached only through the recursion's
  // updates. A zero input column stays exactly zero under every update, so
  // each is a zero pivot; info is the first, as getf2 reports it, and the
  // factorization goes on past it.
  const std::vector<std::vector<idx>> cases = {{2}, {40}, {75}, {75, 40, 2}};
  for (const std::vector<idx>& zeros : cases) {
    Matrix a = random_matrix(120, 100, 29);
    for (idx j : zeros) {
      for (idx i = 0; i < 120; ++i) a(i, j) = 0.0;
    }
    Matrix lu1 = a, lu2 = a;
    PivotVector p1, p2;
    const idx info1 = getf2(lu1.view(), p1);
    const idx info2 = rgetf2(lu2.view(), p2);
    EXPECT_EQ(info2, info1) << "first zero column " << zeros.back();
    EXPECT_EQ(info2, zeros.back() + 1);
    for (idx j = 0; j < 100; ++j) {
      for (idx i = 0; i < 120; ++i) {
        ASSERT_TRUE(std::isfinite(lu2(i, j))) << "(" << i << ", " << j << ")";
      }
    }
    EXPECT_LT(lu_residual(a, lu2, p2), kResidualThreshold);
    EXPECT_LT(lu_residual(a, lu1, p1), kResidualThreshold);
  }
}

TEST(Rgetf2, NanMultiplierReachesAColumnWithAZeroUEntry) {
  // Column 0 elects row 0 (10.0) and turns a NaN in row 2 into a NaN
  // multiplier. Column 3 is zero except in row 2, so every U entry above
  // row 2 in it is exactly 0; the rank-1 updates skip no zero multiplier,
  // so the NaN still reaches U(2, 3), through a base block and through
  // the recursion's gemm alike. A zero-skipping update would leave 5.0.
  for (idx n : {idx{4}, 2 * kW + 1}) {
    const idx col = n - 1;
    Matrix a = random_matrix(12, n, 31);
    a(0, 0) = 10.0;
    a(2, 0) = std::numeric_limits<double>::quiet_NaN();
    for (idx i = 0; i < 12; ++i) a(i, col) = 0.0;
    a(2, col) = 5.0;
    for (int kernel = 0; kernel < 2; ++kernel) {
      Matrix lu = a;
      PivotVector ipiv;
      if (kernel == 0) {
        getf2(lu.view(), ipiv);
      } else {
        rgetf2(lu.view(), ipiv);
      }
      EXPECT_EQ(ipiv[0], 0);
      EXPECT_TRUE(std::isnan(lu(2, col)))
          << (kernel == 0 ? "getf2" : "rgetf2") << " n=" << n
          << " U(2, col) = " << lu(2, col);
    }
  }
}

TEST(Rgetf2, MatchesGetf2Exactly) {
  // Partial pivoting is deterministic on distinct-magnitude inputs, and
  // recursive LU performs the same pivot choices. The factors can differ in
  // rounding (different operation order), so compare pivots exactly and
  // factors loosely.
  for (auto [m, n] : {LuShape{40, 40}, LuShape{60, 24}, LuShape{128, 32},
                      LuShape{2066, 100}}) {
    Matrix a = random_distinct_magnitude_matrix(m, n, 17);
    Matrix lu1 = a, lu2 = a;
    PivotVector p1, p2;
    EXPECT_EQ(getf2(lu1.view(), p1), 0);
    EXPECT_EQ(rgetf2(lu2.view(), p2), 0);
    EXPECT_EQ(p1, p2) << "pivot sequences differ at m=" << m << " n=" << n;
    EXPECT_TRUE(matrices_near(lu1, lu2, 1e-8));
  }
}

struct GetrfParam {
  idx m, n, nb;
  LuPanelKernel panel;
};

class GetrfSweep : public ::testing::TestWithParam<GetrfParam> {};

TEST_P(GetrfSweep, ResidualSmall) {
  const auto& p = GetParam();
  Matrix a = random_matrix(p.m, p.n, 9);
  Matrix lu = a;
  PivotVector ipiv;
  GetrfOptions opts;
  opts.nb = p.nb;
  opts.panel = p.panel;
  const idx info = getrf(lu.view(), ipiv, opts);
  EXPECT_EQ(info, 0);
  EXPECT_LT(lu_residual(a, lu, ipiv), kResidualThreshold);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GetrfSweep,
    ::testing::Values(
        GetrfParam{64, 64, 16, LuPanelKernel::Getf2},
        GetrfParam{64, 64, 16, LuPanelKernel::Recursive},
        GetrfParam{100, 100, 32, LuPanelKernel::Recursive},
        GetrfParam{127, 127, 32, LuPanelKernel::Recursive},
        GetrfParam{128, 128, 128, LuPanelKernel::Recursive},  // single panel
        GetrfParam{128, 128, 200, LuPanelKernel::Recursive},  // nb > n
        GetrfParam{200, 120, 32, LuPanelKernel::Recursive},   // tall
        GetrfParam{120, 200, 32, LuPanelKernel::Recursive},   // wide
        GetrfParam{97, 61, 13, LuPanelKernel::Getf2},         // odd everything
        GetrfParam{300, 300, 64, LuPanelKernel::Recursive}));

TEST(Getrf, MatchesUnblockedPivots) {
  Matrix a = random_distinct_magnitude_matrix(90, 90, 23);
  Matrix lu1 = a, lu2 = a;
  PivotVector p1, p2;
  EXPECT_EQ(getf2(lu1.view(), p1), 0);
  GetrfOptions opts;
  opts.nb = 24;
  EXPECT_EQ(getrf(lu2.view(), p2, opts), 0);
  EXPECT_EQ(p1, p2);
  EXPECT_TRUE(matrices_near(lu1, lu2, 1e-8));
}

TEST(Getf2, SingularMatrixReportsInfo) {
  // An exactly-zero third column gives an exact zero pivot at step 2; the
  // factorization must still complete and report the 1-based column index.
  Matrix a = random_matrix(4, 4, 5);
  for (idx i = 0; i < 4; ++i) a(i, 2) = 0.0;
  PivotVector ipiv;
  const idx info = getf2(a.view(), ipiv);
  EXPECT_EQ(info, 3);  // 1-based index of the zero pivot column
  EXPECT_EQ(ipiv.size(), 4u);
}

TEST(Getf2, ZeroMatrixInfoIsFirstColumn) {
  Matrix a = Matrix::zeros(5, 5);
  PivotVector ipiv;
  EXPECT_EQ(getf2(a.view(), ipiv), 1);
}

TEST(Getf2, PivotsAreLargestInColumn) {
  Matrix a = random_matrix(30, 10, 33);
  Matrix lu = a;
  PivotVector ipiv;
  getf2(lu.view(), ipiv);
  // After the factorization, |L| <= 1 everywhere (the partial pivoting
  // invariant).
  for (idx j = 0; j < 10; ++j) {
    for (idx i = j + 1; i < 30; ++i) {
      EXPECT_LE(std::abs(lu(i, j)), 1.0 + 1e-15);
    }
  }
}

TEST(Rgetf2, PartialPivotingInvariantHolds) {
  Matrix a = random_matrix(200, 64, 35);
  Matrix lu = a;
  PivotVector ipiv;
  rgetf2(lu.view(), ipiv);
  for (idx j = 0; j < 64; ++j) {
    for (idx i = j + 1; i < 200; ++i) {
      EXPECT_LE(std::abs(lu(i, j)), 1.0 + 1e-15);
    }
  }
}

TEST(Getrf, GrowthMatrixExhibitsExpectedGrowth) {
  // The classic worst case: growth factor 2^(n-1) under partial pivoting.
  const idx n = 20;
  Matrix a = gepp_growth_matrix(n);
  Matrix lu = a;
  PivotVector ipiv;
  EXPECT_EQ(getrf(lu.view(), ipiv), 0);
  const double growth = pivot_growth(a, lu);
  EXPECT_NEAR(growth, std::pow(2.0, static_cast<double>(n - 1)), 1e-3);
  // Residual is still fine in exact-ish arithmetic at this size.
  EXPECT_LT(lu_residual(a, lu, ipiv), 1e6);
}

TEST(Getrf, DiagonallyDominantNoSwaps) {
  Matrix a = random_diagonally_dominant_matrix(50, 77);
  Matrix lu = a;
  PivotVector ipiv;
  EXPECT_EQ(getrf(lu.view(), ipiv), 0);
  for (std::size_t k = 0; k < ipiv.size(); ++k) {
    EXPECT_EQ(ipiv[k], static_cast<idx>(k));  // diagonal always wins
  }
}

TEST(Getrf, SolveRecoversKnownSolution) {
  // End-to-end: factor, then solve A x = b via the factors.
  const idx n = 80;
  Matrix a = random_matrix(n, n, 55);
  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) {
    x_true[static_cast<std::size_t>(i)] = std::sin(static_cast<double>(i));
  }
  std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  blas::gemv(blas::Trans::NoTrans, 1.0, a, x_true.data(), 1, 0.0, b.data(), 1);

  Matrix lu = a;
  PivotVector ipiv;
  ASSERT_EQ(getrf(lu.view(), ipiv), 0);
  // Apply P to b, then L y = Pb, U x = y.
  MatrixView bv(b.data(), n, 1, n);
  laswp(bv, 0, n, ipiv);
  blas::trsv(blas::Uplo::Lower, blas::Trans::NoTrans, blas::Diag::Unit, lu,
             b.data(), 1);
  blas::trsv(blas::Uplo::Upper, blas::Trans::NoTrans, blas::Diag::NonUnit, lu,
             b.data(), 1);
  for (idx i = 0; i < n; ++i) {
    EXPECT_NEAR(b[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(Getrf, RankDeficientReportsSingular) {
  Matrix a = random_rank_deficient_matrix(30, 30, 10, 66);
  Matrix lu = a;
  PivotVector ipiv;
  const idx info = getrf(lu.view(), ipiv);
  // Exact zero pivots may be perturbed by rounding; either info > 10 or the
  // trailing diagonal of U is tiny.
  if (info == 0) {
    double min_diag = 1e300;
    for (idx i = 10; i < 30; ++i) {
      min_diag = std::min(min_diag, std::abs(lu(i, i)));
    }
    EXPECT_LT(min_diag, 1e-10 * norm_max(a));
  } else {
    EXPECT_GT(info, 10);
  }
}

}  // namespace
}  // namespace camult::lapack
