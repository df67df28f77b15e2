// TSLU and tournament pivoting tests: partition/tree helpers, candidate
// election, and the key CALU stability properties (|L| <= 1 under the
// tournament, equivalence with GEPP for Tr=1, residual smallness).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/test_utils.hpp"
#include "core/partition.hpp"
#include "core/tournament.hpp"
#include "core/tslu.hpp"
#include "lapack/lapack.hpp"
#include "matrix/norms.hpp"
#include "matrix/random.hpp"

namespace camult::core {
namespace {

using camult::test::kResidualThreshold;
using camult::test::matrices_near;

TEST(Partition, EvenSplit) {
  auto p = partition_panel_rows(800, 100, 4, 100);
  ASSERT_EQ(p.count(), 4);
  for (idx i = 0; i < 4; ++i) {
    EXPECT_EQ(p.start[static_cast<std::size_t>(i)], i * 200);
    EXPECT_EQ(p.rows[static_cast<std::size_t>(i)], 200);
  }
}

TEST(Partition, BoundariesAreBlockAligned) {
  auto p = partition_panel_rows(1050, 100, 4, 100);
  for (std::size_t i = 0; i < p.start.size(); ++i) {
    EXPECT_EQ(p.start[i] % 100, 0);
  }
  // Covers all rows exactly.
  idx total = 0;
  for (idx r : p.rows) total += r;
  EXPECT_EQ(total, 1050);
}

TEST(Partition, ShortPanelReducesLeafCount) {
  auto p = partition_panel_rows(150, 100, 8, 100);
  // Only one leaf can have >= 100 rows out of 150.
  EXPECT_EQ(p.count(), 1);
  EXPECT_EQ(p.rows[0], 150);
}

TEST(Partition, RaggedTailMeetsMinimum) {
  // 310 rows, b=100, tr=3: leaves of 200/110 or fewer — the last leaf must
  // keep >= 100 rows.
  auto p = partition_panel_rows(310, 100, 3, 100);
  for (idx r : p.rows) EXPECT_GE(r, 100);
  idx total = 0;
  for (idx r : p.rows) total += r;
  EXPECT_EQ(total, 310);
}

TEST(Partition, SingleRowPanel) {
  auto p = partition_panel_rows(1, 100, 4, 1);
  EXPECT_EQ(p.count(), 1);
  EXPECT_EQ(p.rows[0], 1);
}

TEST(ReductionSchedule, BinaryFourLeaves) {
  auto s = reduction_schedule(4, ReductionTree::Binary);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].sources, (std::vector<int>{0, 1}));
  EXPECT_EQ(s[0].level, 1);
  EXPECT_EQ(s[1].sources, (std::vector<int>{2, 3}));
  EXPECT_EQ(s[1].level, 1);
  EXPECT_EQ(s[2].sources, (std::vector<int>{0, 2}));
  EXPECT_EQ(s[2].level, 2);
}

TEST(ReductionSchedule, BinaryNonPowerOfTwo) {
  auto s = reduction_schedule(5, ReductionTree::Binary);
  // 5 leaves: (0,1) (2,3) at level 1; (0,2) level 2; (0,4) level 3.
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[3].sources, (std::vector<int>{0, 4}));
}

TEST(ReductionSchedule, FlatIsOneStep) {
  auto s = reduction_schedule(6, ReductionTree::Flat);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].sources.size(), 6u);
}

TEST(ReductionSchedule, SingleLeafNoSteps) {
  EXPECT_TRUE(reduction_schedule(1, ReductionTree::Binary).empty());
  EXPECT_TRUE(reduction_schedule(1, ReductionTree::Flat).empty());
}

void expect_same_screen(const PanelScreen& got, const PanelScreen& want,
                        const char* what) {
  EXPECT_EQ(got.absmax, want.absmax) << what;
  EXPECT_EQ(got.nonfinite, want.nonfinite) << what;
}

void expect_same_bits(ConstMatrixView got, ConstMatrixView want,
                      const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  idx differ = 0;
  for (idx j = 0; j < got.cols(); ++j) {
    for (idx i = 0; i < got.rows(); ++i) {
      if (std::bit_cast<std::uint64_t>(got(i, j)) !=
          std::bit_cast<std::uint64_t>(want(i, j))) {
        ++differ;
      }
    }
  }
  EXPECT_EQ(differ, 0) << what;
}

void expect_same_candidates(const Candidates& got, const Candidates& want,
                            const std::string& what) {
  EXPECT_EQ(got.row_index, want.row_index) << what;
  expect_same_bits(got.values, want.values, what + " values");
  expect_same_bits(got.lu_top, want.lu_top, what + " lu_top");
}

// One match spelled out: rgetf2 on a copy of `stack`, whose rows carry the
// global indices `index`; the first min(b, rows) rows of the permuted stack
// win, with the top of the factored copy as their packed LU.
Candidates elect_reference(const Matrix& stack, const std::vector<idx>& index,
                           idx b) {
  const idx rows = stack.rows(), cols = stack.cols();
  Matrix lu = stack;
  PivotVector ipiv;
  lapack::rgetf2(lu.view(), ipiv);
  const Permutation perm = ipiv_to_permutation(ipiv, rows);
  const idx k = std::min(b, rows);
  Candidates ref;
  ref.values = Matrix(k, cols);
  for (idx r = 0; r < k; ++r) {
    const idx src = perm[static_cast<std::size_t>(r)];
    for (idx j = 0; j < cols; ++j) ref.values(r, j) = stack(src, j);
    ref.row_index.push_back(index[static_cast<std::size_t>(src)]);
  }
  ref.lu_top = Matrix(k, cols);
  copy_into(lu.view().rows_range(0, k), ref.lu_top.view());
  return ref;
}

// The sequential flat tournament spelled out: one match on a fresh
// [winners; chunk] stack per chunk of tournament_chunk_rows rows. A block of
// one chunk is one match on its copy.
Candidates flat_tournament_reference(ConstMatrixView block, idx row_offset,
                                     idx b) {
  const idx cols = block.cols();
  const idx chunk = tournament_chunk_rows(cols, b);
  Candidates ref;
  for (idx top = 0; top < block.rows(); top += chunk) {
    const idx c = std::min(chunk, block.rows() - top);
    const idx w = ref.values.rows();
    Matrix stack(w + c, cols);
    for (idx j = 0; j < cols; ++j) {
      for (idx i = 0; i < w; ++i) stack(i, j) = ref.values(i, j);
      for (idx i = 0; i < c; ++i) stack(w + i, j) = block(top + i, j);
    }
    std::vector<idx> index = ref.row_index;
    for (idx i = 0; i < c; ++i) index.push_back(row_offset + top + i);
    ref = elect_reference(stack, index, b);
  }
  return ref;
}

TEST(Tournament, ChunkRowsHoldAbout1536KiBAndAtLeast2b) {
  constexpr idx kBytes = 1536 * 1024;
  constexpr idx kDouble = sizeof(double);
  for (const idx cols : {idx{1}, idx{8}, idx{33}, idx{100}, idx{130}}) {
    const idx rows = tournament_chunk_rows(cols, 4);
    EXPECT_LE(rows * cols * kDouble, kBytes) << "cols=" << cols;
    EXPECT_GT((rows + 1) * cols * kDouble, kBytes) << "cols=" << cols;
  }
  EXPECT_EQ(tournament_chunk_rows(100, 100), 1966);  // a tall CALU leaf
  // Wide blocks keep at least 2b rows per chunk.
  EXPECT_EQ(tournament_chunk_rows(1000, 1000), 2000);
  EXPECT_EQ(tournament_chunk_rows(1000, 100), 200);
}

TEST(Tournament, LeafElectsGeppPivotRows) {
  const idx rows = 20, b = 4;
  Matrix block = random_distinct_magnitude_matrix(rows, b, 3);
  Candidates c = tournament_leaf(block, 100, b);
  ASSERT_EQ(c.values.rows(), b);
  ASSERT_EQ(c.row_index.size(), static_cast<std::size_t>(b));

  // Reference: GEPP and collect the first b rows of the permuted block.
  Matrix lu = block;
  PivotVector ipiv;
  lapack::getf2(lu.view(), ipiv);
  Permutation perm = ipiv_to_permutation(ipiv, rows);
  for (idx r = 0; r < b; ++r) {
    EXPECT_EQ(c.row_index[static_cast<std::size_t>(r)],
              100 + perm[static_cast<std::size_t>(r)]);
    for (idx j = 0; j < b; ++j) {
      EXPECT_EQ(c.values(r, j), block(perm[static_cast<std::size_t>(r)], j));
    }
  }

  // A block of exactly one chunk is still one rgetf2, bit for bit:
  // winners, their indices, and the winners' packed LU.
  const idx cols = 100, wide_b = 100;
  const Matrix one =
      random_matrix(tournament_chunk_rows(cols, wide_b), cols, 21);
  expect_same_candidates(tournament_leaf(one, 7, wide_b),
                         flat_tournament_reference(one, 7, wide_b),
                         "one chunk, rgetf2");
}

TEST(Tournament, ChunkedLeafIsAFlatTournamentOverChunks) {
  // One chunk + 1 row (the last stack is the b winners over that row), and
  // three chunks whose ragged tail is shorter than b, once with cols = b and
  // once narrower than b (CALU's last panel). The block is a view inside a
  // taller matrix, so its ld exceeds its rows.
  struct Case {
    idx cols, b, extra_chunks, tail;
  };
  std::uint64_t seed = 60;
  for (const Case& cs : {Case{100, 100, 0, 1}, Case{100, 100, 1, 37},
                         Case{30, 40, 1, 13}}) {
    const idx chunk = tournament_chunk_rows(cs.cols, cs.b);
    const idx rows = (1 + cs.extra_chunks) * chunk + cs.tail;
    ASSERT_LT(cs.tail, cs.b);
    const Matrix outer = random_matrix(rows + 9, cs.cols, ++seed);
    const ConstMatrixView block = outer.view().rows_range(4, rows);
    const std::string what = "cols=" + std::to_string(cs.cols) +
                             " b=" + std::to_string(cs.b) +
                             " rows=" + std::to_string(rows);
    const Candidates got = tournament_leaf(block, 1000, cs.b);
    expect_same_candidates(got, flat_tournament_reference(block, 1000, cs.b),
                           what);
    expect_same_screen(got.screen, screen_panel(block), what.c_str());
  }
}

TEST(Tournament, ChunkedLeafScreensEveryChunk) {
  // The largest magnitude sits in the second chunk and an Inf in the last
  // row of the last chunk: the leaf's screen is screen_panel of the block.
  const idx cols = 100, b = 100;
  const idx chunk = tournament_chunk_rows(cols, b);
  const idx rows = 2 * chunk + 37;
  Matrix block = random_matrix(rows, cols, 41);
  block(chunk + 5, 17) = -42.0;
  const Candidates finite = tournament_leaf(block, 0, b);
  expect_same_screen(finite.screen, screen_panel(block), "finite");
  EXPECT_EQ(finite.screen.absmax, 42.0);
  EXPECT_FALSE(finite.screen.nonfinite);
  block(rows - 1, cols - 1) = std::numeric_limits<double>::infinity();
  const Candidates poisoned = tournament_leaf(block, 0, b);
  expect_same_screen(poisoned.screen, screen_panel(block), "inf");
  EXPECT_EQ(poisoned.screen.absmax, 42.0);
  EXPECT_TRUE(poisoned.screen.nonfinite);
}

TEST(Tournament, ShortLeafContributesAllRows) {
  Matrix block = random_matrix(3, 5, 4);
  Candidates c = tournament_leaf(block, 0, 5);
  EXPECT_EQ(c.values.rows(), 3);
}

TEST(Tournament, CombinePicksFromBothSides) {
  // Side A has tiny entries, side B huge: all winners must come from B.
  const idx b = 3;
  Matrix small_m = random_matrix(b, b, 5);
  Matrix big = random_matrix(b, b, 6);
  for (idx j = 0; j < b; ++j) {
    for (idx i = 0; i < b; ++i) {
      small_m(i, j) *= 1e-6;
      big(i, j) = big(i, j) * 100.0 + ((i == j) ? 500.0 : 0.0);
    }
  }
  Candidates ca = tournament_leaf(small_m, 0, b);
  Candidates cb = tournament_leaf(big, 10, b);
  Candidates root = tournament_combine({&ca, &cb}, b);
  for (idx r = 0; r < b; ++r) {
    EXPECT_GE(root.row_index[static_cast<std::size_t>(r)], 10)
        << "winner " << r << " should come from the large block";
  }
}

// A leaf shorter than b elects all its rows in rgetf2's order, and its
// packed LU is the whole factored block; a combine of short sources too.
TEST(Tournament, ShortLeafAndCombineAreOneRgetf2) {
  const idx b = 8;
  const Matrix outer = random_matrix(12, b, 27);
  const ConstMatrixView top = outer.view().rows_range(1, 5);
  const ConstMatrixView bottom = outer.view().rows_range(9, 2);
  const Candidates l0 = tournament_leaf(top, 1, b);
  const Candidates l1 = tournament_leaf(bottom, 9, b);
  expect_same_candidates(l0, flat_tournament_reference(top, 1, b), "l0");
  expect_same_candidates(l1, flat_tournament_reference(bottom, 9, b), "l1");
  EXPECT_EQ(l0.lu_top.rows(), 5);

  Matrix stack(7, b);
  copy_into(l0.values.view(), stack.view().rows_range(0, 5));
  copy_into(l1.values.view(), stack.view().rows_range(5, 2));
  std::vector<idx> index = l0.row_index;
  index.insert(index.end(), l1.row_index.begin(), l1.row_index.end());
  expect_same_candidates(tournament_combine({&l0, &l1}, b),
                         elect_reference(stack, index, b), "root");
}

// An internal match stacks its sources' candidates in source order and
// plays one rgetf2 on the stack: winners, their indices and their packed
// LU, bit for bit, with sources of b rows and one shorter than b.
TEST(Tournament, CombineIsOneRgetf2OnTheStackedSources) {
  const idx b = 12;
  const Matrix panel = random_matrix(100, b, 43);
  const ConstMatrixView p = panel.view();
  const Candidates l0 = tournament_leaf(p.rows_range(0, 40), 0, b);
  const Candidates l1 = tournament_leaf(p.rows_range(40, 53), 40, b);
  const Candidates l2 = tournament_leaf(p.rows_range(93, 7), 93, b);
  const std::vector<const Candidates*> sources = {&l0, &l1, &l2};
  Matrix stack(2 * b + 7, b);
  std::vector<idx> index;
  idx row = 0;
  for (const Candidates* c : sources) {
    copy_into(c->values.view(),
              stack.view().rows_range(row, c->values.rows()));
    index.insert(index.end(), c->row_index.begin(), c->row_index.end());
    row += c->values.rows();
  }
  ASSERT_EQ(row, stack.rows());
  const Candidates root = tournament_combine(sources, b);
  expect_same_candidates(root, elect_reference(stack, index, b), "root");
  EXPECT_EQ(root.values.rows(), b);
}

TEST(Tournament, LeafAndCombineScreensMatchScreenPanel) {
  // A leaf screens its block while copying it and a combine merges its
  // sources, so every node's screen is screen_panel over the union of the
  // blocks under it.
  const idx b = 6;
  Matrix panel = random_matrix(90, b, 29);
  // The extremes sit in the last row of their blocks.
  panel(29, 3) = -42.0;  // largest magnitude, first block
  panel(89, 4) = std::numeric_limits<double>::infinity();  // third block
  ConstMatrixView p = panel.view();
  const Candidates l0 = tournament_leaf(p.rows_range(0, 30), 0, b);
  const Candidates l1 = tournament_leaf(p.rows_range(30, 30), 30, b);
  const Candidates l2 = tournament_leaf(p.rows_range(60, 30), 60, b);
  expect_same_screen(l0.screen, screen_panel(p.rows_range(0, 30)), "l0");
  expect_same_screen(l1.screen, screen_panel(p.rows_range(30, 30)), "l1");
  expect_same_screen(l2.screen, screen_panel(p.rows_range(60, 30)), "l2");
  const Candidates c01 = tournament_combine({&l0, &l1}, b);
  expect_same_screen(c01.screen, screen_panel(p.rows_range(0, 60)), "c01");
  const Candidates root = tournament_combine({&c01, &l2}, b);
  expect_same_screen(root.screen, screen_panel(p), "root");
  EXPECT_EQ(root.screen.absmax, 42.0);
  EXPECT_TRUE(root.screen.nonfinite);
  EXPECT_FALSE(c01.screen.nonfinite);
}

TEST(Tournament, ScreenSkipsNonFiniteMagnitudes) {
  Matrix col(6, 1);
  col(0, 0) = -0.0;
  col(1, 0) = 4.9e-324;  // subnormal
  col(2, 0) = -3.5;
  col(3, 0) = std::numeric_limits<double>::quiet_NaN();
  col(4, 0) = -std::numeric_limits<double>::infinity();
  col(5, 0) = 2.0;
  const PanelScreen s = screen_panel(col.view());
  EXPECT_EQ(s.absmax, 3.5);
  EXPECT_TRUE(s.nonfinite);
  const PanelScreen tiny = screen_panel(col.view().rows_range(0, 2));
  EXPECT_EQ(tiny.absmax, 4.9e-324);
  EXPECT_FALSE(tiny.nonfinite);
  EXPECT_EQ(screen_panel(col.view().rows_range(0, 1)).absmax, 0.0);
}

TEST(Tournament, WinnersToPivotsRoundTrip) {
  // Applying the generated swap sequence must place the winners on top, in
  // order.
  const idx m = 12;
  Matrix a(m, 1);
  for (idx i = 0; i < m; ++i) a(i, 0) = static_cast<double>(i);
  std::vector<idx> winners = {7, 2, 9, 0};
  PivotVector piv = winners_to_pivots(winners, m);
  lapack::laswp(a.view(), 0, static_cast<idx>(winners.size()), piv);
  for (std::size_t k = 0; k < winners.size(); ++k) {
    EXPECT_EQ(a(static_cast<idx>(k), 0), static_cast<double>(winners[k]));
  }
}

TEST(Tournament, WinnersToPivotsWithInterdependentSwaps) {
  // Winners whose positions are displaced by earlier swaps.
  const idx m = 8;
  Matrix a(m, 1);
  for (idx i = 0; i < m; ++i) a(i, 0) = static_cast<double>(i);
  std::vector<idx> winners = {5, 0, 1, 2};  // 0,1,2 get displaced by step 0
  PivotVector piv = winners_to_pivots(winners, m);
  lapack::laswp(a.view(), 0, 4, piv);
  for (std::size_t k = 0; k < winners.size(); ++k) {
    EXPECT_EQ(a(static_cast<idx>(k), 0), static_cast<double>(winners[k]));
  }
}

struct TsluParam {
  idx m, b, tr;
  ReductionTree tree;
};

class TsluSweep : public ::testing::TestWithParam<TsluParam> {};

TEST_P(TsluSweep, ResidualSmallAndLBounded) {
  const auto& p = GetParam();
  Matrix a = random_matrix(p.m, p.b, 11);
  Matrix lu = a;
  PivotVector ipiv;
  TsluOptions opts;
  opts.tr = p.tr;
  opts.tree = p.tree;
  const idx info = tslu_factor(lu.view(), ipiv, opts);
  EXPECT_EQ(info, 0);
  EXPECT_LT(lapack::lu_residual(a, lu, ipiv), kResidualThreshold);
  // Unlike GEPP, tournament pivoting does not guarantee |L| <= 1, but on
  // random matrices the multipliers stay modest (the paper's stability
  // claim). A blow-up here would indicate a broken pivot selection.
  for (idx j = 0; j < p.b; ++j) {
    for (idx i = j + 1; i < p.m; ++i) {
      EXPECT_LE(std::abs(lu(i, j)), 50.0) << "at (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TsluSweep,
    ::testing::Values(TsluParam{64, 8, 1, ReductionTree::Binary},
                      TsluParam{64, 8, 2, ReductionTree::Binary},
                      TsluParam{64, 8, 4, ReductionTree::Binary},
                      TsluParam{64, 8, 4, ReductionTree::Flat},
                      TsluParam{128, 16, 8, ReductionTree::Binary},
                      TsluParam{128, 16, 8, ReductionTree::Flat},
                      TsluParam{200, 25, 3, ReductionTree::Binary},
                      TsluParam{333, 32, 5, ReductionTree::Flat},
                      TsluParam{1000, 100, 4, ReductionTree::Binary},
                      TsluParam{97, 13, 7, ReductionTree::Binary},
                      TsluParam{16, 16, 4, ReductionTree::Binary},
                      TsluParam{17, 16, 4, ReductionTree::Binary}));

TEST(Tslu, Tr1IsExactlyGepp) {
  Matrix a = random_distinct_magnitude_matrix(80, 10, 13);
  Matrix lu1 = a, lu2 = a;
  PivotVector p1, p2;
  TsluOptions opts;
  opts.tr = 1;
  EXPECT_EQ(tslu_factor(lu1.view(), p1, opts), 0);
  EXPECT_EQ(lapack::rgetf2(lu2.view(), p2), 0);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(test::max_diff(lu1, lu2), 0.0);
}

TEST(Tslu, SameWinnersRegardlessOfTree) {
  // On distinct-magnitude inputs the set of selected pivot ROWS may differ
  // between trees in exotic cases, but for a fixed tree the factorization
  // must be deterministic; and both trees must produce valid factorizations
  // of the same matrix.
  Matrix a = random_distinct_magnitude_matrix(120, 12, 17);
  for (ReductionTree tree : {ReductionTree::Binary, ReductionTree::Flat}) {
    Matrix lu1 = a, lu2 = a;
    PivotVector p1, p2;
    TsluOptions opts;
    opts.tr = 4;
    opts.tree = tree;
    tslu_factor(lu1.view(), p1, opts);
    tslu_factor(lu2.view(), p2, opts);
    EXPECT_EQ(p1, p2);
    EXPECT_EQ(test::max_diff(lu1, lu2), 0.0);
  }
}

TEST(Tslu, GrowthBoundedOnAdversarialMatrix) {
  // The GEPP worst-case growth matrix: tournament pivoting's growth stays
  // modest relative to the 2^(n-1) bound at this size because the panel is
  // narrow.
  const idx m = 64, b = 16;
  Matrix a = random_matrix(m, b, 19);
  Matrix lu = a;
  PivotVector ipiv;
  TsluOptions opts;
  opts.tr = 4;
  tslu_factor(lu.view(), ipiv, opts);
  const double growth = lapack::pivot_growth(a, lu);
  EXPECT_LT(growth, 1e4);  // far below catastrophic
}

TEST(Tslu, SingularPanelReportsInfo) {
  Matrix a = random_matrix(40, 6, 21);
  for (idx i = 0; i < 40; ++i) a(i, 3) = 0.0;  // zero column
  PivotVector ipiv;
  TsluOptions opts;
  opts.tr = 4;
  const idx info = tslu_factor(a.view(), ipiv, opts);
  EXPECT_EQ(info, 4);  // 1-based
}

TEST(Tslu, SingularPanelMonitorOffStaysFinite) {
  // Regression for the unguarded U^{-1} divide: with the monitor off the
  // tournament's zero pivot must still yield FINITE factors (the divide is
  // skipped for exactly-zero diagonals, mirroring getf2's skipped scal),
  // not a column of Inf below the zero pivot.
  Matrix a = random_matrix(40, 6, 21);
  for (idx i = 0; i < 40; ++i) a(i, 3) = 0.0;
  PivotVector ipiv;
  TsluOptions opts;
  opts.tr = 4;
  opts.monitor = false;
  const idx info = tslu_factor(a.view(), ipiv, opts);
  EXPECT_EQ(info, 4);
  for (idx j = 0; j < 6; ++j) {
    for (idx i = 0; i < 40; ++i) {
      EXPECT_TRUE(std::isfinite(a(i, j))) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(Tslu, SingularPanelFallbackIsBitwiseGepp) {
  // With the monitor on, a zero pivot discards the tournament and
  // refactors the pristine panel with full-panel GEPP — the result must be
  // bitwise identical to running the kernel directly, pivots included.
  Matrix a = random_matrix(40, 6, 21);
  for (idx i = 0; i < 40; ++i) a(i, 3) = 0.0;
  Matrix lu = a;
  PivotVector ipiv;
  TsluOptions opts;
  opts.tr = 4;
  HealthReport health;
  const idx info = tslu_factor(lu.view(), ipiv, opts, &health);
  EXPECT_EQ(info, 4);
  EXPECT_EQ(health.fallback_panels, 1);
  ASSERT_EQ(health.fallback_list.size(), 1u);
  EXPECT_EQ(health.fallback_list[0], 0);

  Matrix ref = a;
  PivotVector ref_ipiv;
  EXPECT_EQ(lapack::rgetf2(ref.view(), ref_ipiv), 4);
  EXPECT_EQ(ipiv, ref_ipiv);
  EXPECT_EQ(test::max_diff(lu, ref), 0.0);
}

TEST(Tslu, NanPanelFlaggedWithoutFallback) {
  Matrix a = random_matrix(40, 6, 25);
  a(7, 2) = std::numeric_limits<double>::quiet_NaN();
  PivotVector ipiv;
  TsluOptions opts;
  opts.tr = 4;
  HealthReport health;
  (void)tslu_factor(a.view(), ipiv, opts, &health);
  EXPECT_TRUE(health.nan_detected);
  EXPECT_EQ(health.fallback_panels, 0);
}

TEST(Tslu, TournamentVerdictCoversWholePanel) {
  // With several leaves the verdict comes from the tournament root's
  // screen. Poison in the last row of the last leaf is flagged, and the
  // growth divides by the whole panel's largest entry, which sits in the
  // last leaf here.
  TsluOptions opts;
  opts.tr = 4;
  Matrix poisoned = random_matrix(96, 8, 31);
  poisoned(95, 5) = std::numeric_limits<double>::quiet_NaN();
  PivotVector ipiv;
  HealthReport nan_health;
  (void)tslu_factor(poisoned.view(), ipiv, opts, &nan_health);
  EXPECT_TRUE(nan_health.nan_detected);

  Matrix a = random_matrix(96, 8, 33);
  a(90, 2) = 50.0;
  Matrix lu = a;
  HealthReport health;
  ASSERT_EQ(tslu_factor(lu.view(), ipiv, opts, &health), 0);
  EXPECT_FALSE(health.nan_detected);
  EXPECT_EQ(health.fallback_panels, 0);
  EXPECT_DOUBLE_EQ(health.max_growth,
                   check_packed_lu(lu.view().rows_range(0, 8), 8).umax /
                       screen_panel(a.view()).absmax);
}

TEST(Tslu, HealthyPanelRecordsGrowthAndNoFallback) {
  Matrix a = random_matrix(64, 8, 27);
  PivotVector ipiv;
  HealthReport health;
  TsluOptions opts;
  opts.tr = 4;
  EXPECT_EQ(tslu_factor(a.view(), ipiv, opts, &health), 0);
  EXPECT_FALSE(health.degraded());
  EXPECT_GT(health.max_growth, 0.0);
}

TEST(Tslu, WideMatrixThrows) {
  Matrix a = random_matrix(4, 8, 23);
  PivotVector ipiv;
  EXPECT_THROW(tslu_factor(a.view(), ipiv), std::invalid_argument);
}

TEST(Tslu, PivotRowsAreRowsOfOriginal) {
  // U's top row must be a row of the original panel (tournament returns
  // original rows, not eliminated values).
  Matrix a = random_matrix(60, 8, 29);
  Matrix lu = a;
  PivotVector ipiv;
  TsluOptions opts;
  opts.tr = 4;
  tslu_factor(lu.view(), ipiv, opts);
  // Row 0 of U = row ipiv[0] of A (first pivot row, unchanged by
  // elimination).
  for (idx j = 0; j < 8; ++j) {
    EXPECT_DOUBLE_EQ(lu(0, j), a(ipiv[0], j));
  }
}


TEST(ReductionSchedule, HybridGroupsThenBinary) {
  // 8 leaves, group 4: two flat steps (0..3), (4..7), then binary (0,4).
  auto s = reduction_schedule(8, ReductionTree::Hybrid, 4);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].sources, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(s[1].sources, (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(s[2].sources, (std::vector<int>{0, 4}));
  EXPECT_EQ(s[2].level, 2);
}

TEST(ReductionSchedule, HybridRaggedGroups) {
  // 7 leaves, group 3: flat (0,1,2), (3,4,5), single (6) skipped, binary
  // over roots {0,3,6}: (0,3), (0,6).
  auto s = reduction_schedule(7, ReductionTree::Hybrid, 3);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].sources, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(s[1].sources, (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(s[2].sources, (std::vector<int>{0, 3}));
  EXPECT_EQ(s[3].sources, (std::vector<int>{0, 6}));
}

TEST(Tslu, HybridTreeResidualSmall) {
  Matrix a = random_matrix(640, 32, 222);
  Matrix lu = a;
  PivotVector ipiv;
  TsluOptions opts;
  opts.tr = 8;
  opts.tree = ReductionTree::Hybrid;
  EXPECT_EQ(tslu_factor(lu.view(), ipiv, opts), 0);
  EXPECT_LT(lapack::lu_residual(a, lu, ipiv), kResidualThreshold);
}

}  // namespace
}  // namespace camult::core
