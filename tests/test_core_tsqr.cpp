// TSQR tests: leaf/node kernels, residual, orthogonality, R uniqueness
// across tree shapes and against geqrf, implicit-Q application, and leaves
// taller than one chunk (the sequential flat TSQR inside a leaf).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "blas/blas.hpp"
#include "common/test_utils.hpp"
#include "core/tournament.hpp"
#include "core/tsqr.hpp"
#include "lapack/lapack.hpp"
#include "matrix/norms.hpp"
#include "matrix/random.hpp"

namespace camult::core {
namespace {

using camult::test::kResidualThreshold;
using camult::test::matrices_near;

// ||A - QR|| via the implicit Q.
double tsqr_residual(ConstMatrixView a_orig, ConstMatrixView a_fact,
                     const TsqrFactors& f) {
  Matrix qr = Matrix::zeros(f.m, f.n);
  Matrix r = tsqr_extract_r(a_fact, f);
  copy_into(r.view(), qr.view().rows_range(0, f.n));
  tsqr_apply_q(blas::Trans::NoTrans, a_fact, f, qr.view());
  double num = 0;
  for (idx j = 0; j < f.n; ++j) {
    for (idx i = 0; i < f.m; ++i) {
      const double d = qr(i, j) - a_orig(i, j);
      num += d * d;
    }
  }
  return std::sqrt(num) /
         (norm_fro(a_orig) * static_cast<double>(f.m) *
          std::numeric_limits<double>::epsilon());
}

struct TsqrParam {
  idx m, n, tr;
  ReductionTree tree;
};

class TsqrSweep : public ::testing::TestWithParam<TsqrParam> {};

TEST_P(TsqrSweep, ResidualAndOrthogonality) {
  const auto& p = GetParam();
  Matrix a = random_matrix(p.m, p.n, 31);
  Matrix fact = a;
  TsqrOptions opts;
  opts.tr = p.tr;
  opts.tree = p.tree;
  TsqrFactors f = tsqr_factor(fact.view(), opts);

  EXPECT_LT(tsqr_residual(a, fact, f), kResidualThreshold);
  Matrix q = tsqr_explicit_q(fact.view(), f);
  EXPECT_LT(lapack::orthogonality_residual(q), kResidualThreshold);

  // R must be upper triangular with the same column norms as A (up to sign):
  // verify via R^T R == A^T A within tolerance.
  Matrix r = tsqr_extract_r(fact.view(), f);
  Matrix rtr = Matrix::zeros(p.n, p.n);
  Matrix ata = Matrix::zeros(p.n, p.n);
  blas::gemm(blas::Trans::Trans, blas::Trans::NoTrans, 1.0, r, r, 0.0,
             rtr.view());
  blas::gemm(blas::Trans::Trans, blas::Trans::NoTrans, 1.0, a, a, 0.0,
             ata.view());
  EXPECT_TRUE(matrices_near(rtr, ata,
                            1e-11 * std::max(1.0, norm_max(ata)) *
                                static_cast<double>(p.m)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TsqrSweep,
    ::testing::Values(TsqrParam{64, 8, 1, ReductionTree::Binary},
                      TsqrParam{64, 8, 2, ReductionTree::Binary},
                      TsqrParam{64, 8, 4, ReductionTree::Binary},
                      TsqrParam{64, 8, 4, ReductionTree::Flat},
                      TsqrParam{128, 16, 8, ReductionTree::Binary},
                      TsqrParam{128, 16, 8, ReductionTree::Flat},
                      TsqrParam{200, 25, 3, ReductionTree::Binary},
                      TsqrParam{333, 32, 5, ReductionTree::Flat},
                      TsqrParam{1000, 50, 8, ReductionTree::Binary},
                      TsqrParam{97, 13, 7, ReductionTree::Flat},
                      TsqrParam{16, 16, 4, ReductionTree::Binary},
                      TsqrParam{40, 40, 2, ReductionTree::Binary}));

TEST(Tsqr, RMatchesGeqrfUpToSigns) {
  // R is unique up to the sign of each row.
  Matrix a = random_matrix(150, 20, 37);
  Matrix f1 = a, f2 = a;
  TsqrOptions opts;
  opts.tr = 4;
  TsqrFactors fac = tsqr_factor(f1.view(), opts);
  Matrix r_tsqr = tsqr_extract_r(f1.view(), fac);

  std::vector<double> tau;
  lapack::geqrf(f2.view(), tau);
  Matrix r_ref = lapack::extract_upper(f2, 20);

  for (idx i = 0; i < 20; ++i) {
    // Align row signs on the diagonal.
    const double s = (r_tsqr(i, i) >= 0) == (r_ref(i, i) >= 0) ? 1.0 : -1.0;
    for (idx j = i; j < 20; ++j) {
      EXPECT_NEAR(r_tsqr(i, j), s * r_ref(i, j), 1e-9)
          << "at (" << i << "," << j << ")";
    }
  }
}

TEST(Tsqr, Tr1EqualsGeqr3Exactly) {
  Matrix a = random_matrix(90, 12, 41);
  Matrix f1 = a, f2 = a;
  TsqrOptions opts;
  opts.tr = 1;
  TsqrFactors fac = tsqr_factor(f1.view(), opts);
  ASSERT_EQ(fac.leaves.size(), 1u);
  ASSERT_TRUE(fac.nodes.empty());

  std::vector<double> tau;
  Matrix t = Matrix::zeros(12, 12);
  lapack::geqr3(f2.view(), tau, t.view());
  EXPECT_EQ(test::max_diff(f1, f2), 0.0);
}

TEST(Tsqr, ApplyQTransThenNoTransIsIdentity) {
  Matrix a = random_matrix(120, 10, 43);
  Matrix fact = a;
  TsqrOptions opts;
  opts.tr = 4;
  TsqrFactors f = tsqr_factor(fact.view(), opts);

  Matrix c = random_matrix(120, 6, 44);
  Matrix c0 = c;
  tsqr_apply_q(blas::Trans::Trans, fact.view(), f, c.view());
  tsqr_apply_q(blas::Trans::NoTrans, fact.view(), f, c.view());
  EXPECT_TRUE(matrices_near(c, c0, 1e-11));
}

TEST(Tsqr, QtAEqualsREmbedded) {
  // Q^T A = [R; 0].
  Matrix a = random_matrix(100, 12, 47);
  Matrix fact = a;
  TsqrOptions opts;
  opts.tr = 4;
  opts.tree = ReductionTree::Flat;
  TsqrFactors f = tsqr_factor(fact.view(), opts);

  Matrix qta = a;
  tsqr_apply_q(blas::Trans::Trans, fact.view(), f, qta.view());
  Matrix r = tsqr_extract_r(fact.view(), f);
  for (idx j = 0; j < 12; ++j) {
    for (idx i = 0; i < 12; ++i) {
      EXPECT_NEAR(qta(i, j), r(i, j), 1e-10);
    }
    for (idx i = 12; i < 100; ++i) {
      EXPECT_NEAR(qta(i, j), 0.0, 1e-10);
    }
  }
}

TEST(Tsqr, NodeKernelPreservesLeafTails) {
  // The node writes only the upper triangle of the target's top rows.
  Matrix a = random_matrix(64, 8, 53);
  Matrix fact = a;
  TsqrOptions opts;
  opts.tr = 2;
  // After leaf factorization, snapshot the strictly-lower part of the
  // target leaf's top 8 rows, factor, and compare.
  // (The public API doesn't expose intermediate state, so replicate the
  // driver's steps with the kernels.)
  auto part = partition_panel_rows(64, 8, 2, 8);
  ASSERT_EQ(part.count(), 2);
  TsqrLeaf l0 = tsqr_leaf_kernel(
      fact.view().block(part.start[0], 0, part.rows[0], 8), part.start[0]);
  TsqrLeaf l1 = tsqr_leaf_kernel(
      fact.view().block(part.start[1], 0, part.rows[1], 8), part.start[1]);
  Matrix before = fact;
  TsqrNode node =
      tsqr_node_kernel(fact.view(), {part.start[0], part.start[1]}, 8);
  for (idx j = 0; j < 8; ++j) {
    for (idx i = j + 1; i < 8; ++i) {
      EXPECT_EQ(fact(part.start[0] + i, j), before(part.start[0] + i, j))
          << "leaf tail clobbered at (" << i << "," << j << ")";
    }
  }
  // Source slice (leaf 1 top rows) must be untouched in A.
  for (idx j = 0; j < 8; ++j) {
    for (idx i = 0; i < 8; ++i) {
      EXPECT_EQ(fact(part.start[1] + i, j), before(part.start[1] + i, j));
    }
  }
}

TEST(Tsqr, WideMatrixThrows) {
  Matrix a = random_matrix(5, 9, 59);
  EXPECT_THROW(tsqr_factor(a.view()), std::invalid_argument);
}

TEST(Tsqr, RankDeficientInputStillOrthogonal) {
  Matrix a = random_rank_deficient_matrix(120, 16, 5, 61);
  Matrix fact = a;
  TsqrOptions opts;
  opts.tr = 4;
  TsqrFactors f = tsqr_factor(fact.view(), opts);
  Matrix q = tsqr_explicit_q(fact.view(), f);
  EXPECT_LT(lapack::orthogonality_residual(q), kResidualThreshold);
  EXPECT_LT(tsqr_residual(a, fact, f), kResidualThreshold);
}

TEST(Tsqr, RedundantFlopsBinaryVsFlat) {
  // Both trees produce valid factorizations of the same matrix; count of
  // nodes differs (binary: leaves-1 pairwise nodes; flat: 1 big node).
  Matrix a = random_matrix(256, 16, 67);
  Matrix f1 = a, f2 = a;
  TsqrOptions ob;
  ob.tr = 8;
  ob.tree = ReductionTree::Binary;
  TsqrOptions of;
  of.tr = 8;
  of.tree = ReductionTree::Flat;
  TsqrFactors fb = tsqr_factor(f1.view(), ob);
  TsqrFactors ff = tsqr_factor(f2.view(), of);
  EXPECT_EQ(fb.nodes.size(), 7u);
  EXPECT_EQ(ff.nodes.size(), 1u);
  EXPECT_LT(tsqr_residual(a, f1, fb), kResidualThreshold);
  EXPECT_LT(tsqr_residual(a, f2, ff), kResidualThreshold);
}


TEST(Tsqr, HybridTreeResidualAndOrthogonality) {
  Matrix a = random_matrix(512, 24, 333);
  Matrix fact = a;
  TsqrOptions opts;
  opts.tr = 8;
  opts.tree = ReductionTree::Hybrid;
  TsqrFactors f = tsqr_factor(fact.view(), opts);
  EXPECT_LT(tsqr_residual(a, fact, f), kResidualThreshold);
  Matrix q = tsqr_explicit_q(fact.view(), f);
  EXPECT_LT(lapack::orthogonality_residual(q), kResidualThreshold);
  // 8 leaves, group 4: 2 flat nodes + 1 binary node.
  EXPECT_EQ(f.nodes.size(), 3u);
}

// --- Chunked leaves. A leaf of 100 columns is cut into chunks of
// tsqr_chunk_rows(100) rows.

constexpr idx kChunkCols = 100;
const idx kChunk = tsqr_chunk_rows(kChunkCols);

// R of a factored matrix against R of one geqr3 of the input, up to row
// signs.
void expect_r_matches_geqr3(ConstMatrixView a, ConstMatrixView fact) {
  const idx n = a.cols();
  Matrix ref = Matrix::from(a);
  std::vector<double> tau;
  Matrix t = Matrix::zeros(n, n);
  lapack::geqr3(ref.view(), tau, t.view());
  const double scale = std::max(1.0, norm_max(ref.view().rows_range(0, n)));
  for (idx i = 0; i < n; ++i) {
    const double s = (fact(i, i) >= 0) == (ref(i, i) >= 0) ? 1.0 : -1.0;
    for (idx j = i; j < n; ++j) {
      ASSERT_NEAR(fact(i, j), s * ref(i, j), 1e-12 * scale)
          << "R(" << i << "," << j << ")";
    }
  }
}

class ChunkedLeaf : public ::testing::TestWithParam<idx> {};

TEST_P(ChunkedLeaf, ResidualOrthogonalityAndR) {
  const idx m = GetParam();
  Matrix a = random_matrix(m, kChunkCols, 71 + m);
  Matrix fact = a;
  TsqrOptions opts;
  opts.tr = 1;  // one leaf: the whole matrix
  TsqrFactors f = tsqr_factor(fact.view(), opts);
  ASSERT_EQ(f.leaves.size(), 1u);
  const idx chunks = (m + kChunk - 1) / kChunk;
  EXPECT_EQ(f.leaves[0].t.cols(), kChunkCols * chunks);
  EXPECT_EQ(static_cast<idx>(f.leaves[0].tau.size()), kChunkCols * chunks);

  EXPECT_LT(tsqr_residual(a, fact, f), kResidualThreshold);
  Matrix q = tsqr_explicit_q(fact.view(), f);
  EXPECT_LT(lapack::orthogonality_residual(q), kResidualThreshold);
  expect_r_matches_geqr3(a.view(), fact.view());

  Matrix c = random_matrix(m, 3, 72 + m);
  const Matrix c0 = c;
  tsqr_apply_q(blas::Trans::Trans, fact.view(), f, c.view());
  tsqr_apply_q(blas::Trans::NoTrans, fact.view(), f, c.view());
  EXPECT_TRUE(matrices_near(c, c0, 1e-11));
}

// One row short of a chunk, one chunk, one row over, two chunks, two
// chunks and a row, and a last chunk shorter than the leaf's width.
INSTANTIATE_TEST_SUITE_P(
    Heights, ChunkedLeaf,
    ::testing::Values(kChunk - 1, kChunk, kChunk + 1, 2 * kChunk,
                      2 * kChunk + 1, 2 * kChunk + kChunkCols / 3));

TEST(ChunkedLeaf, OneChunkIsGeqr3Exactly) {
  Matrix a = random_matrix(kChunk, kChunkCols, 73);
  Matrix f1 = a, f2 = a;
  TsqrOptions opts;
  opts.tr = 1;
  TsqrFactors fac = tsqr_factor(f1.view(), opts);
  ASSERT_EQ(fac.leaves[0].t.cols(), kChunkCols);

  std::vector<double> tau;
  Matrix t = Matrix::zeros(kChunkCols, kChunkCols);
  lapack::geqr3(f2.view(), tau, t.view());
  EXPECT_EQ(test::max_diff(f1, f2), 0.0);
  EXPECT_EQ(test::max_diff(fac.leaves[0].t, t), 0.0);
  EXPECT_EQ(fac.leaves[0].tau, tau);
}

TEST(ChunkedLeaf, InPlaceInsideATallerPanel) {
  // A three-chunk leaf viewed in the middle of a taller panel: rows above
  // and below the leaf stay bit-identical, and the packed apply replays the
  // same bits as the unpacked one.
  const idx rows = 2 * kChunk + 7, above = 11, below = 13;
  Matrix panel = random_matrix(above + rows + below, kChunkCols, 74);
  const Matrix before = panel;
  PanelScreen screen;
  TsqrLeaf leaf = tsqr_leaf_kernel(
      panel.block(above, 0, rows, kChunkCols), above, &screen);
  EXPECT_EQ(leaf.t.cols(), 3 * kChunkCols);
  const PanelScreen whole =
      screen_panel(before.view().block(above, 0, rows, kChunkCols));
  EXPECT_EQ(screen.absmax, whole.absmax);
  EXPECT_FALSE(screen.nonfinite);
  EXPECT_EQ(test::max_diff(panel.view().rows_range(0, above),
                           before.view().rows_range(0, above)),
            0.0);
  EXPECT_EQ(test::max_diff(panel.view().rows_range(above + rows, below),
                           before.view().rows_range(above + rows, below)),
            0.0);

  Matrix c = random_matrix(panel.rows(), 9, 75);
  Matrix c_packed = c;
  tsqr_leaf_apply(blas::Trans::Trans, panel.view(), leaf, c.view());
  const TsqrLeafPack packs = tsqr_leaf_pack(panel.view(), leaf);
  ASSERT_EQ(packs.size(), 3u);
  tsqr_leaf_apply(blas::Trans::Trans, panel.view(), leaf, packs,
                  c_packed.view());
  EXPECT_LT(test::max_diff(c, c_packed), 1e-12);

  // Q^T of the leaf's own input is [R; 0] on the leaf's rows.
  Matrix qta = before;
  tsqr_leaf_apply(blas::Trans::Trans, panel.view(), leaf, qta.view());
  const double scale = norm_max(before.view().block(above, 0, rows,
                                                    kChunkCols));
  for (idx j = 0; j < kChunkCols; ++j) {
    for (idx i = 0; i < rows; ++i) {
      const double want = i <= j ? panel(above + i, j) : 0.0;
      ASSERT_NEAR(qta(above + i, j), want, 1e-11 * scale * kChunkCols)
          << "(" << i << "," << j << ")";
    }
  }
}

}  // namespace
}  // namespace camult::core
