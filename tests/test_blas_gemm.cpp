// gemm correctness: all transpose combinations, strided views, edge shapes,
// blocking boundaries, and alpha/beta handling — against the naive reference.
// The inner-product path (Trans, NoTrans on a narrow C) is checked for every
// runnable kernel: contraction tails and blocks, the routing rule's
// boundary, views, NaN/Inf propagation, shape-independent element bits and
// its GemmTraffic count. The short-product path ((NoTrans, NoTrans) and
// (NoTrans, Trans) on a narrow C with a short contraction) must give the
// packed path's bits for every runnable kernel, at the routing rule's
// boundary, on views, row tails and non-finite inputs. A long contraction
// must split where the fixed blocking's kGemmKC says, for every kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/level2.hpp"
#include "common/test_utils.hpp"
#include "matrix/random.hpp"

namespace camult::blas {
namespace {

using camult::test::KernelGuard;
using camult::test::matrices_near;
using camult::test::reference_gemm;
using camult::test::runnable_kernels;

Matrix make_operand(Trans t, idx rows_op, idx cols_op, std::uint64_t seed) {
  // Storage shape depends on whether the operand is transposed.
  return t == Trans::NoTrans ? random_matrix(rows_op, cols_op, seed)
                             : random_matrix(cols_op, rows_op, seed);
}

void check_gemm(Trans ta, Trans tb, idx m, idx n, idx k, double alpha,
                double beta, std::uint64_t seed) {
  Matrix a = make_operand(ta, m, k, seed);
  Matrix b = make_operand(tb, k, n, seed + 1);
  Matrix c = random_matrix(m, n, seed + 2);
  Matrix c_ref = c;

  gemm(ta, tb, alpha, a, b, beta, c.view());
  reference_gemm(ta, tb, alpha, a, b, beta, c_ref.view());

  const double tol = 1e-12 * static_cast<double>(std::max<idx>(k, 1));
  EXPECT_TRUE(matrices_near(c, c_ref, tol))
      << "m=" << m << " n=" << n << " k=" << k << " ta="
      << (ta == Trans::Trans) << " tb=" << (tb == Trans::Trans);
}

using ShapeParam = std::tuple<idx, idx, idx>;

class GemmShapes : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(GemmShapes, AllTransCombos) {
  auto [m, n, k] = GetParam();
  int s = 0;
  for (Trans ta : {Trans::NoTrans, Trans::Trans}) {
    for (Trans tb : {Trans::NoTrans, Trans::Trans}) {
      check_gemm(ta, tb, m, n, k, 1.0, 0.0, 100 + s);
      check_gemm(ta, tb, m, n, k, -0.5, 2.0, 200 + s);
      ++s;
    }
  }
}

// Shapes chosen to hit microkernel edges (MR=8, NR=6), cache-block edges
// (MC=192, KC=256, NC=768) and degenerate sizes.
INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, GemmShapes,
    ::testing::Values(
        ShapeParam{1, 1, 1}, ShapeParam{2, 3, 4}, ShapeParam{8, 6, 8},
        ShapeParam{7, 5, 9}, ShapeParam{9, 7, 3}, ShapeParam{16, 12, 16},
        ShapeParam{17, 13, 19}, ShapeParam{1, 50, 1}, ShapeParam{50, 1, 7},
        ShapeParam{33, 1, 1}, ShapeParam{64, 64, 64}, ShapeParam{100, 100, 100},
        ShapeParam{193, 10, 257}, ShapeParam{10, 769, 5},
        ShapeParam{200, 60, 300}));

TEST(Gemm, ZeroKScalesCOnly) {
  Matrix a(5, 0);
  Matrix b(0, 4);
  Matrix c = random_matrix(5, 4, 7);
  Matrix c0 = c;
  gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a, b, 2.0, c.view());
  for (idx j = 0; j < 4; ++j) {
    for (idx i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(c(i, j), 2.0 * c0(i, j));
  }
}

TEST(Gemm, AlphaZeroOnlyScales) {
  Matrix a = random_matrix(6, 7, 1);
  Matrix b = random_matrix(7, 5, 2);
  Matrix c = random_matrix(6, 5, 3);
  Matrix c0 = c;
  gemm(Trans::NoTrans, Trans::NoTrans, 0.0, a, b, 0.5, c.view());
  for (idx j = 0; j < 5; ++j) {
    for (idx i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(c(i, j), 0.5 * c0(i, j));
  }
}

TEST(Gemm, BetaZeroOverwritesNaN) {
  Matrix a = random_matrix(4, 4, 1);
  Matrix b = random_matrix(4, 4, 2);
  Matrix c(4, 4);
  fill(c.view(), std::numeric_limits<double>::quiet_NaN());
  gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a, b, 0.0, c.view());
  for (idx j = 0; j < 4; ++j) {
    for (idx i = 0; i < 4; ++i) EXPECT_FALSE(std::isnan(c(i, j)));
  }
}

TEST(Gemm, WorksOnStridedSubviews) {
  // Operate on interior blocks of larger allocations (ld > rows).
  Matrix big_a = random_matrix(40, 40, 11);
  Matrix big_b = random_matrix(40, 40, 12);
  Matrix big_c = random_matrix(40, 40, 13);
  Matrix big_c_ref = big_c;

  auto a = big_a.view().block(3, 5, 20, 15);
  auto b = big_b.view().block(1, 2, 15, 18);
  auto c = big_c.view().block(7, 9, 20, 18);
  auto c_ref = big_c_ref.view().block(7, 9, 20, 18);

  gemm(Trans::NoTrans, Trans::NoTrans, 1.5, a, b, -1.0, c);
  reference_gemm(Trans::NoTrans, Trans::NoTrans, 1.5, a, b, -1.0, c_ref);
  EXPECT_TRUE(matrices_near(big_c, big_c_ref, 1e-11));
  // Elements outside the C block are untouched: compare the full matrices
  // (the reference only modified the same block).
}

TEST(Gemm, LargeCrossesAllCacheBlocks) {
  // One shape larger than MC/KC/NC in every dimension.
  const idx m = 250, n = 800, k = 300;
  Matrix a = random_matrix(m, k, 21);
  Matrix b = random_matrix(k, n, 22);
  Matrix c = Matrix::zeros(m, n);
  Matrix c_ref = Matrix::zeros(m, n);
  gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a, b, 0.0, c.view());
  reference_gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a, b, 0.0,
                 c_ref.view());
  EXPECT_TRUE(matrices_near(c, c_ref, 1e-10));
}

// A quiet NaN in A must reach C even when the matching B element is zero:
// the small-path used to skip bv == 0.0 terms as an "optimization", which
// silently laundered NaN * 0 into 0 and made NaN visibility depend on which
// code path (small vs blocked) the problem size selected. The health
// monitor's poison screening relies on propagation being path-independent.
TEST(Gemm, NanPropagatesThroughZeroBTerms) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Small path: m*n*k well under the blocked cutoff.
  {
    Matrix a = random_matrix(8, 8, 31);
    Matrix b = Matrix::zeros(8, 8);  // every bv is exactly 0.0
    Matrix c = random_matrix(8, 8, 32);
    a(3, 2) = nan;
    gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a, b, 1.0, c.view());
    for (idx j = 0; j < 8; ++j) {
      EXPECT_TRUE(std::isnan(c(3, j))) << "col " << j;
      EXPECT_FALSE(std::isnan(c(0, j))) << "col " << j;
    }
  }
  // Blocked path: same poison pattern, size past the small cutoff.
  {
    Matrix a = random_matrix(64, 64, 33);
    Matrix b = Matrix::zeros(64, 64);
    Matrix c = random_matrix(64, 64, 34);
    a(3, 2) = nan;
    gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a, b, 1.0, c.view());
    for (idx j = 0; j < 64; ++j) {
      EXPECT_TRUE(std::isnan(c(3, j))) << "col " << j;
      EXPECT_FALSE(std::isnan(c(0, j))) << "col " << j;
    }
  }
}

// Small-vs-blocked parity on the same poisoned values: embed the small
// problem in the corner of a zero-padded blocked-size problem and the
// shared region must agree on WHERE the NaNs are (values may differ in
// rounding order, NaN placement may not).
TEST(Gemm, NanPlacementMatchesSmallVsBlocked) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const idx m = 10, n = 6, k = 9;    // small path: 540 flops
  const idx M = 40, N = 40, K = 40;  // blocked path
  Matrix a = random_matrix(m, k, 41);
  Matrix b = random_matrix(k, n, 42);
  a(1, 4) = nan;
  b(7, 2) = 0.0;  // zero B term against a NaN-free A row
  a(5, 7) = nan;  // NaN against the zero B term: must still poison row 5
  Matrix c_small = Matrix::zeros(m, n);
  gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a, b, 0.0, c_small.view());

  Matrix ap = Matrix::zeros(M, K);
  Matrix bp = Matrix::zeros(K, N);
  for (idx j = 0; j < k; ++j) {
    for (idx i = 0; i < m; ++i) ap(i, j) = a(i, j);
  }
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < k; ++i) bp(i, j) = b(i, j);
  }
  Matrix c_blocked = Matrix::zeros(M, N);
  gemm(Trans::NoTrans, Trans::NoTrans, 1.0, ap, bp, 0.0, c_blocked.view());
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) {
      EXPECT_EQ(std::isnan(c_small(i, j)), std::isnan(c_blocked(i, j)))
          << "(" << i << ", " << j << ")";
    }
  }
  // Rows 1 and 5 carry the planted NaNs.
  EXPECT_TRUE(std::isnan(c_small(1, 0)));
  EXPECT_TRUE(std::isnan(c_small(5, 0)));
  EXPECT_FALSE(std::isnan(c_small(0, 0)));
}

// ---- Inner-product path ----------------------------------------------------


// C = alpha * A^T B + beta * C with A (k x m) and B (k x n) viewed at row
// `off` of matrices 2 * off rows taller, with spare columns, and C viewed
// inside a larger matrix (ld > rows). beta == 0 must overwrite NaN
// garbage. Compares the whole C matrix against the
// triple-loop reference, so a write outside the view fails too. `inner`
// calls gemm_inner directly, whatever the shape (it accumulates, so beta
// must be 1); otherwise gemm routes.
void check_tn(idx m, idx n, idx k, double alpha, double beta, idx off,
              bool inner, std::uint64_t seed) {
  ASSERT_TRUE(!inner || beta == 1.0);
  const Matrix abig = random_matrix(k + 2 * off, m + 1, seed);
  const Matrix bbig = random_matrix(k + 2 * off, n + 2, seed + 1);
  Matrix cbig = random_matrix(m + off + 3, n + 1, seed + 2);
  const ConstMatrixView a = abig.view().block(off, 1, k, m);
  const ConstMatrixView b = bbig.view().block(off, 2, k, n);
  MatrixView c = cbig.view().block(off, 1, m, n);
  Matrix cref_big = cbig;
  MatrixView cref = cref_big.view().block(off, 1, m, n);
  if (beta == 0.0) {
    fill(c, std::numeric_limits<double>::quiet_NaN());
    fill(cref, 0.0);
  }
  if (inner) {
    gemm_inner(alpha, a, b, c);
  } else {
    gemm(Trans::Trans, Trans::NoTrans, alpha, a, b, beta, c);
  }
  reference_gemm(Trans::Trans, Trans::NoTrans, alpha, a, b, beta, cref);
  const double tol = 1e-12 * static_cast<double>(std::max<idx>(k, 1));
  EXPECT_TRUE(matrices_near(cbig, cref_big, tol))
      << active_kernel().name << " m=" << m << " n=" << n << " k=" << k
      << " alpha=" << alpha << " beta=" << beta << " off=" << off
      << (inner ? " gemm_inner" : " gemm");
}

TEST(GemmInner, ContractionTailsAndBlocksEveryKernel) {
  // Lane widths are 8 (avx512) and 4 (avx2, scalar); the contraction block
  // is kInnerKc. Widths cover full tiles and every fringe of the 6 x 4,
  // 3 x 3 and 2 x 2 register tiles. Short contractions do not route, so
  // this calls gemm_inner itself.
  const idx widths[][2] = {{1, 1}, {1, 7}, {5, 3}, {6, 4}, {7, 5}, {13, 9}};
  const idx ks[] = {1,  3,  4,  5,  7,  8,  9,  17,
                    kInnerKc - 1, kInnerKc, kInnerKc + 1, 2 * kInnerKc + 1};
  const double alphas[] = {1.0, -1.0, 0.5};
  KernelGuard guard;
  for (const std::string& name : runnable_kernels()) {
    ASSERT_TRUE(set_active_kernel(name));
    int s = 0;
    for (const auto& w : widths) {
      for (idx k : ks) {
        check_tn(w[0], w[1], k, alphas[s % 3], 1.0, s % 4, true,
                 300 + static_cast<std::uint64_t>(s));
        ++s;
      }
    }
  }
}

TEST(GemmTn, RoutingBoundaryEveryKernel) {
  // Shapes on both sides of inner_product_shape: at and just below a
  // contraction of twice the wider side, and at and just past the widest
  // routed C. Both paths must match the reference for every alpha/beta.
  struct Case {
    idx m, n, k;
    bool routed;
  };
  const Case cases[] = {
      {6, 6, 12, true},     {6, 6, 11, false},   {12, 7, 24, true},
      {12, 7, 23, false},   {50, 50, 100, true}, {50, 50, 99, false},
      {kInnerMaxWidth, 4, 2 * kInnerMaxWidth, true},
      {4, kInnerMaxWidth, 2 * kInnerMaxWidth + 1, true},
      {kInnerMaxWidth + 1, 4, 2 * kInnerMaxWidth + 2, false},
      {4, kInnerMaxWidth + 1, 2 * kInnerMaxWidth + 2, false}};
  KernelGuard guard;
  for (const std::string& name : runnable_kernels()) {
    ASSERT_TRUE(set_active_kernel(name));
    std::uint64_t seed = 400;
    for (const Case& c : cases) {
      EXPECT_EQ(inner_product_shape(c.m, c.n, c.k), c.routed)
          << c.m << "x" << c.n << "x" << c.k;
      for (double alpha : {1.0, -1.0, 0.5}) {
        for (double beta : {0.0, 1.0, 2.0}) {
          check_tn(c.m, c.n, c.k, alpha, beta, 3, false, seed++);
        }
      }
    }
  }
}

TEST(GemmTn, NanAndInfPropagateEveryKernel) {
  // No zero-skip, as gemm_small: a NaN in column i of A poisons row i of C
  // even against an all-zero column of B, and an Inf in column j of B makes
  // column j of C non-finite. Everything else stays finite.
  // k % 8 == 7 and k % 4 == 3, so row k - 1 lies in the masked tail of
  // the last contraction block for every lane width.
  const idx m = 6, n = 5, k = 703;
  ASSERT_TRUE(inner_product_shape(m, n, k));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  KernelGuard guard;
  for (const std::string& name : runnable_kernels()) {
    ASSERT_TRUE(set_active_kernel(name));
    Matrix a = random_matrix(k, m, 51);
    Matrix b = random_matrix(k, n, 52);
    for (idx p = 0; p < k; ++p) b(p, 1) = 0.0;
    a(k - 1, 2) = nan;
    b(300, 3) = inf;
    Matrix c = random_matrix(m, n, 53);
    gemm(Trans::Trans, Trans::NoTrans, 1.0, a, b, 1.0, c.view());
    for (idx j = 0; j < n; ++j) {
      for (idx i = 0; i < m; ++i) {
        const bool poisoned = i == 2 || j == 3;
        EXPECT_EQ(std::isfinite(c(i, j)), !poisoned)
            << name << " (" << i << ", " << j << ") = " << c(i, j);
      }
      EXPECT_TRUE(std::isnan(c(2, j))) << name << " col " << j;
    }
  }
}

TEST(GemmInner, ElementBitsIndependentOfShapeEveryKernel) {
  // An element's bits depend only on its own columns of A and B: computing
  // a sub-block of C, or one column through gemv(Trans), gives exactly the
  // bits of the full call.
  const idx m = 13, n = 9, k = 1000;
  const Matrix a = random_matrix(k, m, 61);
  const Matrix b = random_matrix(k, n, 62);
  KernelGuard guard;
  for (const std::string& name : runnable_kernels()) {
    ASSERT_TRUE(set_active_kernel(name));
    Matrix full = random_matrix(m, n, 63);
    Matrix part = full;
    gemm_inner(0.5, a, b, full.view());
    gemm_inner(0.5, a.view().block(0, 5, k, 7), b.view().block(0, 3, k, 5),
               part.view().block(5, 3, 7, 5));
    for (idx j = 3; j < 8; ++j) {
      for (idx i = 5; i < 12; ++i) {
        EXPECT_EQ(part(i, j), full(i, j)) << name << " (" << i << ", " << j << ")";
      }
    }
    Matrix col = random_matrix(m, n, 63);
    gemv(Trans::Trans, 0.5, a, b.view().col_ptr(4), 1, 1.0,
         col.view().col_ptr(4), 1);
    for (idx i = 0; i < m; ++i) {
      EXPECT_EQ(col(i, 4), full(i, 4)) << name << " row " << i;
    }
  }
}

TEST(GemmTraffic, InnerProductCallIsCounted) {
  // One routed call: A and B are read once ((m + n) * k doubles), and C is
  // loaded and stored once per contraction block; nothing is packed.
  const idx m = 12, n = 10, k = 2000;
  ASSERT_TRUE(inner_product_shape(m, n, k));
  const Matrix a = random_matrix(k, m, 71);
  const Matrix b = random_matrix(k, n, 72);
  Matrix c = Matrix::zeros(m, n);
  gemm_traffic_reset();
  gemm(Trans::Trans, Trans::NoTrans, 1.0, a, b, 0.0, c.view());
  const GemmTraffic t = gemm_traffic();
  const idx blocks = (k + kInnerKc - 1) / kInnerKc;
  EXPECT_EQ(t.pack_bytes, 0);
  EXPECT_EQ(t.kernel_bytes, (m + n) * k * 8);
  EXPECT_EQ(t.c_bytes, m * n * 16 * blocks);
  EXPECT_EQ(t.total(), 352000 + 7680);
}

// ---- Short-product path ----------------------------------------------------

bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// C = alpha * A op(B) + beta * C with A (m x k), op(B) (k x n) and C viewed
// at an offset inside taller hosts with spare columns. gemm's result must
// equal, bit for bit, gemm_packed over pack_a(A, NoTrans) on a copy of the
// C host, and every host entry outside the view must keep its bits. beta ==
// 0 must overwrite NaN garbage.
void check_short(Trans transb, idx m, idx n, idx k, double alpha,
                 double beta, idx off, std::uint64_t seed) {
  const bool bt = transb == Trans::Trans;
  const Matrix abig = random_matrix(m + 2 * off, k + 1, seed);
  const Matrix bbig =
      random_matrix((bt ? n : k) + 2 * off, (bt ? k : n) + 2, seed + 1);
  Matrix cbig = random_matrix(m + off + 3, n + 1, seed + 2);
  const ConstMatrixView a = abig.view().block(off, 1, m, k);
  const ConstMatrixView b =
      bbig.view().block(off, 2, bt ? n : k, bt ? k : n);
  MatrixView c = cbig.view().block(off, 1, m, n);
  if (beta == 0.0) fill(c, std::numeric_limits<double>::quiet_NaN());
  const Matrix c0 = cbig;
  Matrix cref_big = cbig;
  MatrixView cref = cref_big.view().block(off, 1, m, n);
  gemm(Trans::NoTrans, transb, alpha, a, b, beta, c);
  const PackedPanel ap = pack_a(a, Trans::NoTrans);
  gemm_packed(alpha, ap, transb, b, beta, cref);
  for (idx j = 0; j < cbig.cols(); ++j) {
    for (idx i = 0; i < cbig.rows(); ++i) {
      const bool inside = i >= off && i < off + m && j >= 1 && j < 1 + n;
      ASSERT_TRUE(same_bits(cbig(i, j), cref_big(i, j)))
          << active_kernel().name << (bt ? " NT" : " NN") << " m=" << m
          << " n=" << n << " k=" << k << " alpha=" << alpha
          << " beta=" << beta << " (" << i << ", " << j << ") " << cbig(i, j)
          << " vs packed " << cref_big(i, j);
      if (!inside) {
        ASSERT_TRUE(same_bits(cbig(i, j), c0(i, j)))
            << active_kernel().name << " touched (" << i << ", " << j << ")";
      }
    }
  }
}

struct ShortCase {
  idx m, n, k;
  bool routed;
};

// Shapes on both sides of every bound of short_product_shape, and row
// counts at multiples of every kernel's MR (8 and 16) plus and minus one,
// all above the 16^3 direct-loop cutoff.
std::vector<ShortCase> short_rule_boundary() {
  const idx w = kShortMaxWidth, d = kShortMaxDepth, tw = kShortAnyRowsWidth;
  // The tallest C of full width, and a C of width tw past the element bound.
  const idx rows = kShortMaxCElems / w;
  const idx tall = kShortMaxCElems / tw + 1;
  std::vector<ShortCase> cases = {
      {rows, w, d, true},      {rows + 1, w, d, false}, {rows, w, d + 1, false},
      {200, w + 1, d, false},  {tall, tw, d, true},     {tall, tw + 1, d, false},
      {tall, tw, d + 1, false}, {200, 1, d, true},      {5000, w, 1, true},
      {100, 100, 6, false}};
  for (idx mr : {8, 16}) {
    for (idx q : {4, 7}) {
      for (idx dm : {-1, 0, 1}) cases.push_back({mr * q + dm, w, d, true});
    }
  }
  return cases;
}

void check_short_cases(Trans transb, const std::vector<ShortCase>& cases) {
  KernelGuard guard;
  for (const std::string& name : runnable_kernels()) {
    ASSERT_TRUE(set_active_kernel(name));
    std::uint64_t seed = 500;
    for (const ShortCase& c : cases) {
      ASSERT_GT(c.m * c.n * c.k, 16 * 16 * 16);
      EXPECT_EQ(short_product_shape(c.m, c.n, c.k), c.routed)
          << c.m << "x" << c.n << "x" << c.k;
      // The tall boundary cases run one (alpha, beta) to keep the test short.
      const bool tall = c.m > 5000;
      for (double alpha : {1.0, -1.0, 0.5}) {
        for (double beta : {0.0, 1.0, 2.0}) {
          if (tall && (alpha != 0.5 || beta != 2.0)) continue;
          check_short(transb, c.m, c.n, c.k, alpha, beta, 3, seed++);
        }
      }
    }
  }
}

TEST(GemmNnShort, RoutingBoundaryAndRowTailsMatchPackedEveryKernel) {
  // The rule's boundary, rgetf2's updates on a 2,066 x 100 stack (k = 50
  // stays packed) and the right-side trsm's on a 320-row block.
  std::vector<ShortCase> cases = short_rule_boundary();
  for (ShortCase c : {ShortCase{2054, 7, 6, true}, ShortCase{2041, 13, 12, true},
                      ShortCase{2041, 25, 25, true}, ShortCase{320, 25, 25, true},
                      ShortCase{2016, 50, 50, false}}) {
    cases.push_back(c);
  }
  check_short_cases(Trans::NoTrans, cases);
}

TEST(GemmNtShort, RoutingBoundaryAndRowTailsMatchPackedEveryKernel) {
  // The rule's boundary, tpqrt's updates C2 -= V2 W^T on a 3,928-row chunk
  // (the top level's k = 50 stays packed) and contractions down to k = 3 on
  // the same rows.
  std::vector<ShortCase> cases = short_rule_boundary();
  for (ShortCase c : {ShortCase{3928, 25, 25, true}, ShortCase{3928, 13, 12, true},
                      ShortCase{3928, 7, 6, true}, ShortCase{3928, 6, 6, true},
                      ShortCase{3928, 4, 3, true}, ShortCase{3928, 3, 3, true},
                      ShortCase{3928, 50, 50, false}}) {
    cases.push_back(c);
  }
  check_short_cases(Trans::Trans, cases);
}

// No zero-skip: a NaN in row i of A poisons row i of C even against an
// all-zero column of op(B), and an Inf in column j of op(B) makes column j
// of C non-finite. Row m - 1 sits in the masked row tail of every kernel.
void check_short_non_finite(Trans transb) {
  const idx m = 203, n = 9, k = 11;
  ASSERT_TRUE(short_product_shape(m, n, k));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const bool bt = transb == Trans::Trans;
  KernelGuard guard;
  for (const std::string& name : runnable_kernels()) {
    ASSERT_TRUE(set_active_kernel(name));
    Matrix a = random_matrix(m, k, 54);
    Matrix b = bt ? random_matrix(n, k, 55) : random_matrix(k, n, 55);
    auto opb = [&](idx p, idx j) -> double& { return bt ? b(j, p) : b(p, j); };
    for (idx p = 0; p < k; ++p) opb(p, 1) = 0.0;
    a(m - 1, 4) = nan;
    opb(7, 3) = inf;
    Matrix c = random_matrix(m, n, 56);
    Matrix cref = c;
    gemm(Trans::NoTrans, transb, 1.0, a, b, 1.0, c.view());
    gemm_packed(1.0, pack_a(a, Trans::NoTrans), transb, b, 1.0, cref.view());
    for (idx j = 0; j < n; ++j) {
      for (idx i = 0; i < m; ++i) {
        const bool poisoned = i == m - 1 || j == 3;
        EXPECT_EQ(std::isfinite(c(i, j)), !poisoned)
            << name << " (" << i << ", " << j << ") = " << c(i, j);
        EXPECT_TRUE(same_bits(c(i, j), cref(i, j)))
            << name << " (" << i << ", " << j << ")";
      }
      EXPECT_TRUE(std::isnan(c(m - 1, j))) << name << " col " << j;
    }
  }
}

TEST(GemmNnShort, NanAndInfPropagateEveryKernel) {
  check_short_non_finite(Trans::NoTrans);
}

TEST(GemmNtShort, NanAndInfPropagateEveryKernel) {
  check_short_non_finite(Trans::Trans);
}

// One routed call: A and B are read once, C loaded and stored once, and
// nothing is packed, whichever way B is stored.
void check_short_traffic(Trans transb, idx m, idx n, idx k) {
  ASSERT_TRUE(short_product_shape(m, n, k));
  const Matrix a = random_matrix(m, k, 73);
  const Matrix b = transb == Trans::Trans ? random_matrix(n, k, 74)
                                          : random_matrix(k, n, 74);
  Matrix c = Matrix::zeros(m, n);
  gemm_traffic_reset();
  gemm(Trans::NoTrans, transb, -1.0, a, b, 1.0, c.view());
  const GemmTraffic t = gemm_traffic();
  EXPECT_EQ(t.pack_bytes, 0);
  EXPECT_EQ(t.kernel_bytes, (m + n) * k * 8);
  EXPECT_EQ(t.c_bytes, m * n * 16);
}

TEST(GemmTraffic, ShortProductCallIsCounted) {
  check_short_traffic(Trans::NoTrans, 2054, 7, 6);
}

TEST(GemmTraffic, ShortProductNtCallIsCounted) {
  check_short_traffic(Trans::Trans, 3928, 25, 25);
}

// The packed path splits a long contraction into blocks of kGemmKC, and the
// split is part of every result's bits: a gemm equals, bit for bit, gemm
// over consecutive kGemmKC-column slices of the contraction, the first
// slice with the caller's beta and the rest with beta = 1. The operands and
// C are views at row and column offset `off` of larger hosts (off = 0: the
// whole hosts), and every host entry outside C must match too. With beta ==
// 0, C starts as NaN, which the first slice must overwrite.
void check_kc_split(Trans ta, Trans tb, idx m, idx n, idx k, idx off,
                    std::uint64_t seed, double beta = 2.0) {
  const double alpha = -0.5;
  const bool at = ta == Trans::Trans, bt = tb == Trans::Trans;
  const idx ar = at ? k : m, ac = at ? m : k;
  const idx br = bt ? n : k, bc = bt ? k : n;
  const Matrix ahost = random_matrix(ar + 2 * off, ac + off, seed);
  const Matrix bhost = random_matrix(br + 2 * off, bc + off, seed + 1);
  Matrix chost = random_matrix(m + 2 * off, n + off, seed + 2);
  if (beta == 0.0) {
    fill(chost.view().block(off, off, m, n),
         std::numeric_limits<double>::quiet_NaN());
  }
  const ConstMatrixView a = ahost.view().block(off, off, ar, ac);
  const ConstMatrixView b = bhost.view().block(off, off, br, bc);
  KernelGuard guard;
  for (const std::string& name : runnable_kernels()) {
    ASSERT_TRUE(set_active_kernel(name));
    Matrix whole = chost;
    gemm(ta, tb, alpha, a, b, beta, whole.view().block(off, off, m, n));
    Matrix sliced = chost;
    for (idx p = 0; p < k; p += kGemmKC) {
      const idx kc = std::min(kGemmKC, k - p);
      gemm(ta, tb, alpha, at ? a.block(p, 0, kc, m) : a.block(0, p, m, kc),
           bt ? b.block(0, p, n, kc) : b.block(p, 0, kc, n),
           p == 0 ? beta : 1.0, sliced.view().block(off, off, m, n));
    }
    idx differ = 0;
    for (idx j = 0; j < chost.cols(); ++j) {
      for (idx i = 0; i < chost.rows(); ++i) {
        differ += same_bits(whole(i, j), sliced(i, j)) ? 0 : 1;
      }
    }
    EXPECT_EQ(differ, 0) << name << " m=" << m << " n=" << n << " k=" << k
                         << " ta=" << at << " tb=" << bt << " off=" << off;
  }
}

TEST(Gemm, LongContractionSplitsAtKcEveryKernel) {
  check_kc_split(Trans::NoTrans, Trans::NoTrans, 300, 300, 1000, 0, 91);
}

TEST(Gemm, LongContractionSplitsAtKcWithBetaZeroEveryKernel) {
  check_kc_split(Trans::NoTrans, Trans::NoTrans, 300, 300, 1000, 0, 109, 0.0);
}

// Transposition is absorbed by packing, so every (transa, transb) splits
// the same way. C stays wider than kInnerMaxWidth, so (Trans, NoTrans)
// takes the packed path too.
TEST(Gemm, LongContractionSplitsAtKcTransAEveryKernel) {
  check_kc_split(Trans::Trans, Trans::NoTrans, 300, 270, 1000, 0, 94);
}

TEST(Gemm, LongContractionSplitsAtKcTransBEveryKernel) {
  check_kc_split(Trans::NoTrans, Trans::Trans, 270, 300, 1000, 0, 97);
}

TEST(Gemm, LongContractionSplitsAtKcBothTransEveryKernel) {
  check_kc_split(Trans::Trans, Trans::Trans, 300, 290, 1000, 0, 100);
}

// One column past kGemmKC is a second contraction block of depth 1 (the
// last slice stays on the packed path: C is too wide for short_product).
TEST(Gemm, ContractionOneColumnPastKcSplitsEveryKernel) {
  ASSERT_FALSE(short_product_shape(300, 300, 1));
  check_kc_split(Trans::NoTrans, Trans::NoTrans, 300, 300, kGemmKC + 1, 0,
                 103);
}

// Strided views, as CALU's and CAQR's trailing updates pass them, split the
// same way, with C crossing the kGemmMC and kGemmNC blocks too.
TEST(Gemm, LongContractionSplitsAtKcOnViewsEveryKernel) {
  check_kc_split(Trans::NoTrans, Trans::NoTrans, kGemmMC + 58, kGemmNC + 22,
                 600, 3, 106);
}

// MC and NC only decide which cache block an element of C is computed in,
// never its bits: a block of C cut anywhere, across the kGemmMC and kGemmNC
// boundaries, equals the gemm of just its rows of A and columns of B.
TEST(Gemm, ElementBitsIndependentOfMcAndNcEveryKernel) {
  const idx m = 2 * kGemmMC + 16, n = kGemmNC + 32, k = 300;
  const Matrix a = random_matrix(m, k, 111);
  const Matrix b = random_matrix(k, n, 112);
  const Matrix c0 = random_matrix(m, n, 113);
  struct Cut {
    idx row, col, rows, cols;
  };
  const Cut cuts[] = {{0, 0, 37, 41},
                      {kGemmMC - 9, kGemmNC - 5, 20, 37},
                      {2 * kGemmMC - 3, 7, 19, 33},
                      {5, 3, m - 5, 45}};
  KernelGuard guard;
  for (const std::string& name : runnable_kernels()) {
    ASSERT_TRUE(set_active_kernel(name));
    Matrix whole = c0;
    gemm(Trans::NoTrans, Trans::NoTrans, 1.5, a, b, -1.0, whole.view());
    for (const Cut& cut : cuts) {
      ASSERT_FALSE(short_product_shape(cut.rows, cut.cols, k));
      Matrix part =
          Matrix::from(c0.view().block(cut.row, cut.col, cut.rows, cut.cols));
      gemm(Trans::NoTrans, Trans::NoTrans, 1.5,
           a.view().block(cut.row, 0, cut.rows, k),
           b.view().block(0, cut.col, k, cut.cols), -1.0, part.view());
      idx differ = 0;
      for (idx j = 0; j < cut.cols; ++j) {
        for (idx i = 0; i < cut.rows; ++i) {
          differ +=
              same_bits(part(i, j), whole(cut.row + i, cut.col + j)) ? 0 : 1;
        }
      }
      EXPECT_EQ(differ, 0) << name << " block at (" << cut.row << ", "
                           << cut.col << ")";
    }
  }
}

// The blocking gemm runs with is exposed as the active kernel's: the fixed
// MC/KC/NC on the variant's register tile, and a packed panel records the
// same.
TEST(Gemm, BlockingParametersExposed) {
  const GemmBlocking& blk = active_kernel().blocking;
  EXPECT_GT(blk.mr, 0);
  EXPECT_GT(blk.nr, 0);
  EXPECT_GE(blk.mc, blk.mr);
  EXPECT_GE(blk.nc, blk.nr);
  EXPECT_EQ(blk.mc, kGemmMC);
  EXPECT_EQ(blk.kc, kGemmKC);
  EXPECT_EQ(blk.nc, kGemmNC);
  const PackedPanel p = pack_a(random_matrix(20, 10, 115), Trans::NoTrans);
  EXPECT_EQ(p.blocking().mc, blk.mc);
  EXPECT_EQ(p.blocking().kc, blk.kc);
  EXPECT_EQ(p.blocking().nc, blk.nc);
  EXPECT_EQ(p.blocking().mr, blk.mr);
  EXPECT_EQ(p.blocking().nr, blk.nr);
}

// Register tiles of the cache block that starts at each multiple of
// `block` along an extent, each block cut into ceil(rows / tile) tiles.
idx tiles_over_blocks(idx extent, idx block, idx tile) {
  idx tiles = 0;
  for (idx s = 0; s < extent; s += block) {
    tiles += (std::min(block, extent - s) + tile - 1) / tile;
  }
  return tiles;
}

// One packed call: per kGemmKC block, B is packed once and each kGemmMC
// block of A once (source reads plus tile-padded writes), the microkernel
// streams one packed A and B tile pair per register tile, and C is loaded
// and stored once.
TEST(GemmTraffic, PackedCallCountsEachKcBlockEveryKernel) {
  const idx m = 300, n = 300, k = 1000;
  ASSERT_FALSE(inner_product_shape(m, n, k));
  ASSERT_FALSE(short_product_shape(m, n, k));
  ASSERT_LE(n, kGemmNC);
  const Matrix a = random_matrix(m, k, 117);
  const Matrix b = random_matrix(k, n, 118);
  const idx kblocks = (k + kGemmKC - 1) / kGemmKC;
  KernelGuard guard;
  for (const std::string& name : runnable_kernels()) {
    ASSERT_TRUE(set_active_kernel(name));
    const idx mr = active_kernel().blocking.mr;
    const idx nr = active_kernel().blocking.nr;
    const idx a_tiles = tiles_over_blocks(m, kGemmMC, mr);
    const idx b_tiles = tiles_over_blocks(n, kGemmNC, nr);
    Matrix c = Matrix::zeros(m, n);
    gemm_traffic_reset();
    gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a, b, 0.0, c.view());
    const GemmTraffic t = gemm_traffic();
    EXPECT_EQ(t.pack_bytes, (m + a_tiles * mr + n + b_tiles * nr) * k * 8)
        << name;
    EXPECT_EQ(t.kernel_bytes, a_tiles * b_tiles * (mr + nr) * k * 8) << name;
    EXPECT_EQ(t.c_bytes, m * n * 16 * kblocks) << name;
  }
}

}  // namespace
}  // namespace camult::blas
