// trsm/trmm correctness across all side/uplo/trans/diag combinations,
// including sizes that cross the recursive base-case threshold and, for
// Side::Right, tall and strided B that crosses trsm's row blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "blas/blas.hpp"
#include "common/test_utils.hpp"
#include "matrix/norms.hpp"
#include "matrix/random.hpp"

namespace camult::blas {
namespace {

using camult::test::matrices_near;
using camult::test::reference_gemm;
using camult::test::reference_triangle;
using camult::test::reference_trsm;

struct Combo {
  Side side;
  Uplo uplo;
  Trans trans;
  Diag diag;
};

std::vector<Combo> all_combos() {
  std::vector<Combo> v;
  for (Side s : {Side::Left, Side::Right}) {
    for (Uplo u : {Uplo::Lower, Uplo::Upper}) {
      for (Trans t : {Trans::NoTrans, Trans::Trans}) {
        for (Diag d : {Diag::NonUnit, Diag::Unit}) v.push_back({s, u, t, d});
      }
    }
  }
  return v;
}

class TrsmAllCombos : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(TrsmAllCombos, MatchesReference) {
  auto [m, n] = GetParam();
  int seed = 0;
  for (const Combo& c : all_combos()) {
    const idx n_tri = (c.side == Side::Left) ? m : n;
    Matrix a = random_matrix(n_tri, n_tri, 300 + seed);
    for (idx i = 0; i < n_tri; ++i) a(i, i) += 3.0;  // well conditioned
    Matrix b = random_matrix(m, n, 400 + seed);

    Matrix x = b;
    trsm(c.side, c.uplo, c.trans, c.diag, 1.5, a, x.view());
    Matrix x_ref = reference_trsm(c.side, c.uplo, c.trans, c.diag, 1.5, a, b);
    // Unit-diagonal random triangles are ill conditioned, so solutions grow
    // large; compare with a tolerance relative to the solution magnitude.
    const double tol =
        1e-13 * std::max(1.0, norm_max(x_ref)) * static_cast<double>(n_tri);
    EXPECT_TRUE(matrices_near(x, x_ref, tol))
        << "side=" << (c.side == Side::Right) << " uplo="
        << (c.uplo == Uplo::Upper) << " trans=" << (c.trans == Trans::Trans)
        << " diag=" << (c.diag == Diag::Unit) << " m=" << m << " n=" << n;
    ++seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TrsmAllCombos,
                         ::testing::Values(std::tuple<idx, idx>{1, 1},
                                           std::tuple<idx, idx>{5, 7},
                                           std::tuple<idx, idx>{17, 9},
                                           std::tuple<idx, idx>{63, 65},
                                           std::tuple<idx, idx>{64, 64},
                                           std::tuple<idx, idx>{100, 130},
                                           std::tuple<idx, idx>{129, 40}));

class TrmmAllCombos : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(TrmmAllCombos, MatchesExplicitMultiply) {
  auto [m, n] = GetParam();
  int seed = 0;
  for (const Combo& c : all_combos()) {
    const idx n_tri = (c.side == Side::Left) ? m : n;
    Matrix a = random_matrix(n_tri, n_tri, 500 + seed);
    Matrix b = random_matrix(m, n, 600 + seed);

    Matrix x = b;
    trmm(c.side, c.uplo, c.trans, c.diag, 2.0, a, x.view());

    // Reference: explicit triangle times B.
    Matrix t = reference_triangle(a, c.uplo, c.diag);
    Matrix x_ref = Matrix::zeros(m, n);
    if (c.side == Side::Left) {
      reference_gemm(c.trans, Trans::NoTrans, 2.0, t, b, 0.0, x_ref.view());
    } else {
      reference_gemm(Trans::NoTrans, c.trans, 2.0, b, t, 0.0, x_ref.view());
    }
    EXPECT_TRUE(matrices_near(x, x_ref, 1e-11))
        << "side=" << (c.side == Side::Right) << " uplo="
        << (c.uplo == Uplo::Upper) << " trans=" << (c.trans == Trans::Trans)
        << " diag=" << (c.diag == Diag::Unit) << " m=" << m << " n=" << n;
    ++seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TrmmAllCombos,
                         ::testing::Values(std::tuple<idx, idx>{1, 1},
                                           std::tuple<idx, idx>{6, 8},
                                           std::tuple<idx, idx>{16, 11},
                                           std::tuple<idx, idx>{63, 65},
                                           std::tuple<idx, idx>{64, 64},
                                           std::tuple<idx, idx>{101, 90},
                                           std::tuple<idx, idx>{128, 33}));

TEST(Trsm, TriangularOppositeHalfNotRead) {
  // Poison the unreferenced triangle with NaN: trsm must not read it.
  const idx n = 40;
  Matrix a = random_matrix(n, n, 9);
  for (idx i = 0; i < n; ++i) a(i, i) += 3.0;
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < j; ++i) {
      a(i, j) = std::numeric_limits<double>::quiet_NaN();  // upper half
    }
  }
  Matrix b = random_matrix(n, 5, 10);
  trsm(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::NonUnit, 1.0, a,
       b.view());
  for (idx j = 0; j < 5; ++j) {
    for (idx i = 0; i < n; ++i) EXPECT_FALSE(std::isnan(b(i, j)));
  }
}

TEST(Trmm, UnitDiagonalNotRead) {
  const idx n = 24;
  Matrix a = random_matrix(n, n, 11);
  for (idx i = 0; i < n; ++i) {
    a(i, i) = std::numeric_limits<double>::quiet_NaN();
  }
  Matrix b = random_matrix(n, 3, 12);
  trmm(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::Unit, 1.0, a, b.view());
  for (idx j = 0; j < 3; ++j) {
    for (idx i = 0; i < n; ++i) EXPECT_FALSE(std::isnan(b(i, j)));
  }
}

// ---- Side::Right: the column-oriented base case and trsm's row blocks ----

std::vector<Combo> right_combos() {
  std::vector<Combo> v;
  for (const Combo& c : all_combos()) {
    if (c.side == Side::Right) v.push_back(c);
  }
  return v;
}

std::string describe(const Combo& c) {
  return std::string("uplo=") + (c.uplo == Uplo::Upper ? "U" : "L") +
         " trans=" + (c.trans == Trans::Trans ? "T" : "N") +
         " diag=" + (c.diag == Diag::Unit ? "U" : "N");
}

// A triangle that is well conditioned for either diag: off-diagonal
// entries of size 1/n, diagonal near 3.
Matrix right_triangle(idx n, std::uint64_t seed) {
  Matrix a = random_matrix(n, n, seed);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) a(i, j) /= static_cast<double>(n);
  }
  for (idx i = 0; i < n; ++i) a(i, i) += 3.0;
  return a;
}

constexpr double kAlpha = -0.75;

// trsm (solve = true) or trmm of B against `a` on the right, in place.
void apply_right(bool solve, const Combo& c, ConstMatrixView a,
                 MatrixView b) {
  if (solve) {
    trsm(Side::Right, c.uplo, c.trans, c.diag, kAlpha, a, b);
  } else {
    trmm(Side::Right, c.uplo, c.trans, c.diag, kAlpha, a, b);
  }
}

// What apply_right should produce, from the explicit triangle.
Matrix reference_right(bool solve, const Combo& c, ConstMatrixView a,
                       ConstMatrixView b) {
  if (solve) {
    return reference_trsm(Side::Right, c.uplo, c.trans, c.diag, kAlpha, a, b);
  }
  Matrix x = Matrix::zeros(b.rows(), b.cols());
  reference_gemm(Trans::NoTrans, c.trans, kAlpha, b,
                 reference_triangle(a, c.uplo, c.diag), 0.0, x.view());
  return x;
}

double right_tol(ConstMatrixView x_ref) {
  return 1e-13 * std::max(1.0, norm_max(x_ref)) *
         static_cast<double>(x_ref.cols());
}

bool row_has_nan(ConstMatrixView x, idx i) {
  for (idx j = 0; j < x.cols(); ++j) {
    if (std::isnan(x(i, j))) return true;
  }
  return false;
}

class RightTall : public ::testing::TestWithParam<idx> {};

// Tall B: one row short of trsm's row block, exactly one block, one row
// into the next block, and many blocks with a ragged tail.
TEST_P(RightTall, MatchesReferenceAcrossRowBlocks) {
  const idx n = GetParam();
  const idx block = trsm_right_row_block(n);
  ASSERT_LT(block + 1, 5000);
  std::uint64_t seed = 700;
  for (const idx m : {block - 1, block, block + 1, idx{5000}}) {
    for (const Combo& c : right_combos()) {
      for (const bool solve : {true, false}) {
        const Matrix a = right_triangle(n, ++seed);
        const Matrix b = random_matrix(m, n, ++seed);
        Matrix x = b;
        apply_right(solve, c, a, x.view());
        const Matrix x_ref = reference_right(solve, c, a, b);
        EXPECT_TRUE(matrices_near(x, x_ref, right_tol(x_ref)))
            << (solve ? "trsm " : "trmm ") << describe(c) << " m=" << m
            << " n=" << n << " block=" << block;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, RightTall,
                         ::testing::Values(idx{33}, idx{100}, idx{130}));

TEST(TrsmTrmmRight, SubViewWithLargerLd) {
  // B is an interior block of a larger matrix (ld > rows) whose other
  // entries are NaN: they must be neither read (the result would turn NaN)
  // nor written. The view spans more than one trsm row block.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const idx n = 40;
  const idx m = trsm_right_row_block(n) + 37;
  const idx i0 = 7, j0 = 2;
  std::uint64_t seed = 900;
  for (const Combo& c : right_combos()) {
    for (const bool solve : {true, false}) {
      const Matrix a = right_triangle(n, ++seed);
      const Matrix b = random_matrix(m, n, ++seed);
      Matrix outer(m + 19, n + 5);
      fill(outer.view(), nan);
      MatrixView x = outer.block(i0, j0, m, n);
      copy_into(b.view(), x);
      apply_right(solve, c, a, x);
      const Matrix x_ref = reference_right(solve, c, a, b);
      EXPECT_TRUE(matrices_near(x, x_ref, right_tol(x_ref)))
          << (solve ? "trsm " : "trmm ") << describe(c);
      idx overwritten = 0;
      for (idx j = 0; j < outer.cols(); ++j) {
        for (idx i = 0; i < outer.rows(); ++i) {
          const bool inside =
              i >= i0 && i < i0 + m && j >= j0 && j < j0 + n;
          if (!inside && !std::isnan(outer(i, j))) ++overwritten;
        }
      }
      EXPECT_EQ(overwritten, 0) << (solve ? "trsm " : "trmm ") << describe(c);
    }
  }
}

TEST(TrsmTrmmRight, OppositeTriangleAndUnitDiagonalNotRead) {
  // NaN in the unreferenced triangle, and on the diagonal when it is
  // implicitly one: neither the base case (n = 24) nor the recursion
  // (n = 100) may read them.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t seed = 1100;
  for (const idx n : {idx{24}, idx{100}}) {
    for (const Combo& c : right_combos()) {
      for (const bool solve : {true, false}) {
        Matrix a = right_triangle(n, ++seed);
        for (idx j = 0; j < n; ++j) {
          for (idx i = 0; i < n; ++i) {
            const bool opposite = c.uplo == Uplo::Upper ? i > j : i < j;
            if (opposite || (i == j && c.diag == Diag::Unit)) a(i, j) = nan;
          }
        }
        const Matrix b = random_matrix(50, n, ++seed);
        Matrix x = b;
        apply_right(solve, c, a, x.view());
        const Matrix x_ref = reference_right(solve, c, a, b);
        EXPECT_TRUE(matrices_near(x, x_ref, right_tol(x_ref)))
            << (solve ? "trsm " : "trmm ") << describe(c) << " n=" << n;
      }
    }
  }
}

TEST(TrsmTrmmRight, NanInRowStaysInRow) {
  // The rows of X are independent: a NaN in row i of B reaches row i of
  // the result and no other row, wherever row i sits in the row blocks.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const idx n = 100;
  const idx block = trsm_right_row_block(n);
  const idx m = 2 * block + 5;
  std::uint64_t seed = 1300;
  for (const idx row : {idx{0}, block - 1, block, m - 1}) {
    for (const Combo& c : right_combos()) {
      for (const bool solve : {true, false}) {
        const Matrix a = right_triangle(n, ++seed);
        Matrix x = random_matrix(m, n, ++seed);
        x(row, 37) = nan;
        apply_right(solve, c, a, x.view());
        EXPECT_TRUE(row_has_nan(x, row))
            << (solve ? "trsm " : "trmm ") << describe(c) << " row=" << row;
        idx poisoned = 0;
        for (idx i = 0; i < m; ++i) {
          if (i != row && row_has_nan(x, i)) ++poisoned;
        }
        EXPECT_EQ(poisoned, 0)
            << (solve ? "trsm " : "trmm ") << describe(c) << " row=" << row;
      }
    }
  }
}

TEST(Trsm, EmptyRhsIsNoop) {
  Matrix a = random_matrix(4, 4, 1);
  Matrix b(4, 0);
  trsm(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::Unit, 1.0, a, b.view());
  SUCCEED();
}

TEST(Syrk, MatchesGemmOnTriangle) {
  const idx n = 20, k = 7;
  Matrix a = random_matrix(n, k, 31);
  Matrix c = random_matrix(n, n, 32);
  Matrix c_before = c;
  Matrix c_full = c;

  syrk(Uplo::Lower, Trans::NoTrans, 2.0, a, 0.5, c.view());
  reference_gemm(Trans::NoTrans, Trans::Trans, 2.0, a, a, 0.5, c_full.view());
  for (idx j = 0; j < n; ++j) {
    for (idx i = j; i < n; ++i) EXPECT_NEAR(c(i, j), c_full(i, j), 1e-12);
    for (idx i = 0; i < j; ++i) EXPECT_DOUBLE_EQ(c(i, j), c_before(i, j))
        << "upper triangle must not be modified";
  }
}

// A NaN anywhere in a referenced A row must poison the referenced triangle
// even when the scaled row value t is exactly zero — the NoTrans branch
// used to skip t == 0.0 terms, hiding NaNs that the Trans branch (and gemm)
// propagate. Both branches must agree.
TEST(Syrk, NanPropagatesThroughZeroTerms) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const idx n = 9, k = 5;
  Matrix a = random_matrix(n, k, 51);
  a(2, 0) = 0.0;  // t = alpha * a(j=2, p=0) == 0 in the NoTrans branch
  a(4, 0) = nan;  // ... multiplied against this NaN
  Matrix c = random_matrix(n, n, 52);
  syrk(Uplo::Lower, Trans::NoTrans, 1.0, a, 1.0, c.view());
  EXPECT_TRUE(std::isnan(c(4, 2)));  // 0 * NaN term lands here
  EXPECT_TRUE(std::isnan(c(4, 4)));  // diagonal sees NaN^2
  EXPECT_FALSE(std::isnan(c(3, 2)));

  // Trans variant on the transposed data must flag the mirrored element.
  Matrix at(k, n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < k; ++i) at(i, j) = a(j, i);
  }
  Matrix ct = random_matrix(n, n, 53);
  syrk(Uplo::Upper, Trans::Trans, 1.0, at, 1.0, ct.view());
  EXPECT_TRUE(std::isnan(ct(2, 4)));
  EXPECT_FALSE(std::isnan(ct(2, 3)));
}

TEST(Syrk, TransVariantUpper) {
  const idx n = 11, k = 9;
  Matrix a = random_matrix(k, n, 41);
  Matrix c = random_matrix(n, n, 42);
  Matrix c_before = c;
  Matrix c_full = c;

  syrk(Uplo::Upper, Trans::Trans, 1.0, a, 0.0, c.view());
  reference_gemm(Trans::Trans, Trans::NoTrans, 1.0, a, a, 0.0, c_full.view());
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i <= j; ++i) EXPECT_NEAR(c(i, j), c_full(i, j), 1e-12);
    for (idx i = j + 1; i < n; ++i) EXPECT_DOUBLE_EQ(c(i, j), c_before(i, j));
  }
}

}  // namespace
}  // namespace camult::blas
