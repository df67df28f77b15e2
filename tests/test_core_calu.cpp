// Multithreaded CALU tests: residual across shapes / Tr / trees / thread
// counts, agreement with getrf pivots for Tr=1, trace/DAG sanity, look-ahead
// policy, failure injection.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/test_utils.hpp"
#include "blas/blas.hpp"
#include "core/calu.hpp"
#include "core/lookahead.hpp"
#include "core/tournament.hpp"
#include "core/tslu.hpp"
#include "lapack/lapack.hpp"
#include "matrix/norms.hpp"
#include "matrix/random.hpp"
#include "runtime/trace.hpp"

namespace camult::core {
namespace {

using camult::test::kResidualThreshold;

struct CaluParam {
  idx m, n, b, tr;
  int threads;
  ReductionTree tree;
};

class CaluSweep : public ::testing::TestWithParam<CaluParam> {};

TEST_P(CaluSweep, ResidualSmall) {
  const auto& p = GetParam();
  Matrix a = random_matrix(p.m, p.n, 71);
  Matrix lu = a;
  CaluOptions opts;
  opts.b = p.b;
  opts.tr = p.tr;
  opts.tree = p.tree;
  opts.num_threads = p.threads;
  CaluResult res = calu_factor(lu.view(), opts);
  EXPECT_EQ(res.info, 0);
  EXPECT_LT(lapack::lu_residual(a, lu, res.ipiv), kResidualThreshold)
      << "m=" << p.m << " n=" << p.n << " b=" << p.b << " tr=" << p.tr
      << " threads=" << p.threads;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CaluSweep,
    ::testing::Values(
        // Square, varying b/tr/threads.
        CaluParam{64, 64, 16, 2, 0, ReductionTree::Binary},
        CaluParam{64, 64, 16, 2, 2, ReductionTree::Binary},
        CaluParam{100, 100, 25, 4, 4, ReductionTree::Binary},
        CaluParam{100, 100, 25, 4, 4, ReductionTree::Flat},
        CaluParam{128, 128, 32, 4, 3, ReductionTree::Binary},
        CaluParam{130, 130, 32, 4, 2, ReductionTree::Binary},  // ragged
        // Tall and skinny (the paper's focus).
        CaluParam{400, 40, 20, 4, 4, ReductionTree::Binary},
        CaluParam{400, 40, 20, 8, 2, ReductionTree::Flat},
        CaluParam{1000, 30, 10, 8, 4, ReductionTree::Binary},
        CaluParam{513, 64, 16, 4, 2, ReductionTree::Binary},
        // Wide.
        CaluParam{60, 200, 20, 2, 2, ReductionTree::Binary},
        CaluParam{50, 128, 16, 4, 4, ReductionTree::Flat},
        // Single panel / b >= n.
        CaluParam{150, 20, 20, 4, 2, ReductionTree::Binary},
        CaluParam{150, 20, 64, 4, 2, ReductionTree::Binary},
        // b = 1 edge (every column a panel).
        CaluParam{20, 20, 1, 2, 2, ReductionTree::Binary},
        // Inline serial record mode on a tall case.
        CaluParam{600, 50, 25, 4, 0, ReductionTree::Binary}));

TEST(Calu, Tr1MatchesGetrfPivots) {
  // With a single panel task CALU is plain GEPP-based blocked LU while each
  // panel fits one tournament chunk (every panel here does): identical pivot
  // choices on distinct-magnitude inputs. A taller panel's one leaf plays a
  // flat tournament over its chunks instead.
  Matrix a = random_distinct_magnitude_matrix(96, 96, 73);
  Matrix lu1 = a, lu2 = a;
  CaluOptions opts;
  opts.b = 16;
  opts.tr = 1;
  opts.num_threads = 2;
  CaluResult res = calu_factor(lu1.view(), opts);

  PivotVector ipiv2;
  lapack::GetrfOptions gopts;
  gopts.nb = 16;
  lapack::getrf(lu2.view(), ipiv2, gopts);
  EXPECT_EQ(res.ipiv, ipiv2);
  // Distinct-magnitude inputs have large entries; compare relative to the
  // factor magnitude.
  EXPECT_TRUE(
      test::matrices_near(lu1, lu2, 1e-13 * std::max(1.0, norm_max(lu2))));
}

TEST(Calu, DeterministicAcrossThreadCounts) {
  // The factorization output must not depend on the worker count (tasks are
  // the same; only the schedule differs).
  Matrix a = random_matrix(200, 80, 79);
  Matrix lu1 = a, lu2 = a, lu4 = a;
  CaluOptions o;
  o.b = 20;
  o.tr = 4;
  o.num_threads = 0;
  CaluResult r1 = calu_factor(lu1.view(), o);
  o.num_threads = 2;
  CaluResult r2 = calu_factor(lu2.view(), o);
  o.num_threads = 4;
  CaluResult r4 = calu_factor(lu4.view(), o);
  EXPECT_EQ(r1.ipiv, r2.ipiv);
  EXPECT_EQ(r1.ipiv, r4.ipiv);
  EXPECT_EQ(test::max_diff(lu1, lu2), 0.0);
  EXPECT_EQ(test::max_diff(lu1, lu4), 0.0);
}

TEST(Calu, TraceContainsAllTaskKinds) {
  Matrix a = random_matrix(160, 80, 83);
  CaluOptions o;
  o.b = 20;
  o.tr = 2;
  o.num_threads = 2;
  CaluResult r = calu_factor(a.view(), o);
  std::set<rt::TaskKind> kinds;
  for (const auto& t : r.trace) kinds.insert(t.kind);
  EXPECT_TRUE(kinds.count(rt::TaskKind::Panel));
  EXPECT_TRUE(kinds.count(rt::TaskKind::LFactor));
  EXPECT_TRUE(kinds.count(rt::TaskKind::UFactor));
  EXPECT_TRUE(kinds.count(rt::TaskKind::Update));
  EXPECT_FALSE(r.edges.empty());
}

// Regression: the candidate-slot dependency keys were once computed with a
// fixed per-iteration stride of 8192 slots, so a panel with more than 8192
// tournament leaves aliased iteration k's keys with iteration k+1's. The
// aliasing shows up as impossible Panel->Panel dependency edges that cross
// iterations (a tournament task only ever touches its own iteration's
// candidate slots, and no other key class is shared between Panel tasks of
// different iterations). This configuration (one-row blocks, Tr above the
// old stride) fails on the fixed-stride code.
TEST(Calu, WideTournamentKeysDoNotAliasAcrossIterations) {
  const idx m = 8400;
  Matrix a = random_matrix(m, 2, 417);
  Matrix lu = a;
  CaluOptions o;
  o.b = 1;
  o.tr = m;  // one leaf per row: more slots than the old fixed stride
  o.tree = ReductionTree::Flat;
  o.num_threads = 0;
  CaluResult r = calu_factor(lu.view(), o);
  ASSERT_EQ(r.info, 0);
  for (const auto& e : r.edges) {
    const auto& from = r.trace[static_cast<std::size_t>(e.from)];
    const auto& to = r.trace[static_cast<std::size_t>(e.to)];
    if (from.kind == rt::TaskKind::Panel && to.kind == rt::TaskKind::Panel) {
      EXPECT_EQ(from.iteration, to.iteration)
          << "spurious cross-iteration Panel edge " << e.from << " ("
          << from.label << ") -> " << e.to << " (" << to.label << ")";
    }
  }
  EXPECT_LT(lapack::lu_residual(a, lu, r.ipiv), kResidualThreshold);
}

TEST(Calu, TraceTimesRespectDependencies) {
  Matrix a = random_matrix(200, 100, 89);
  CaluOptions o;
  o.b = 25;
  o.tr = 2;
  o.num_threads = 3;
  CaluResult r = calu_factor(a.view(), o);
  // Every edge (u, v): v starts after u ends.
  for (const auto& e : r.edges) {
    const auto& from = r.trace[static_cast<std::size_t>(e.from)];
    const auto& to = r.trace[static_cast<std::size_t>(e.to)];
    EXPECT_GE(to.start_ns, from.end_ns)
        << "edge " << e.from << "->" << e.to << " violated";
  }
}

TEST(Calu, SingularMatrixReportsInfo) {
  Matrix a = random_matrix(60, 60, 91);
  for (idx i = 0; i < 60; ++i) a(i, 30) = 0.0;
  CaluOptions o;
  o.b = 15;
  o.tr = 2;
  o.num_threads = 2;
  CaluResult r = calu_factor(a.view(), o);
  EXPECT_EQ(r.info, 31);
}

TEST(Calu, GrowthModestOnRandom) {
  Matrix a = random_matrix(300, 300, 97);
  Matrix lu = a;
  CaluOptions o;
  o.b = 50;
  o.tr = 4;
  o.num_threads = 4;
  calu_factor(lu.view(), o);
  EXPECT_LT(lapack::pivot_growth(a, lu), 100.0);
}

TEST(Calu, SolvesLinearSystem) {
  const idx n = 120;
  Matrix a = random_matrix(n, n, 101);
  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) {
    x_true[static_cast<std::size_t>(i)] = std::cos(static_cast<double>(i));
  }
  std::vector<double> bvec(static_cast<std::size_t>(n), 0.0);
  blas::gemv(blas::Trans::NoTrans, 1.0, a, x_true.data(), 1, 0.0, bvec.data(),
             1);

  Matrix lu = a;
  CaluOptions o;
  o.b = 30;
  o.tr = 4;
  o.num_threads = 2;
  CaluResult r = calu_factor(lu.view(), o);
  ASSERT_EQ(r.info, 0);

  MatrixView bv(bvec.data(), n, 1, n);
  lapack::laswp(bv, 0, n, r.ipiv);
  blas::trsv(blas::Uplo::Lower, blas::Trans::NoTrans, blas::Diag::Unit, lu,
             bvec.data(), 1);
  blas::trsv(blas::Uplo::Upper, blas::Trans::NoTrans, blas::Diag::NonUnit, lu,
             bvec.data(), 1);
  for (idx i = 0; i < n; ++i) {
    EXPECT_NEAR(bvec[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-8);
  }
}

TEST(Calu, LookaheadPrioritizesNextPanelPath) {
  Matrix a = random_matrix(160, 160, 103);
  CaluOptions o;
  o.b = 20;
  o.tr = 2;
  o.num_threads = 0;  // record mode: deterministic ids
  o.lookahead = true;
  CaluResult r = calu_factor(a.view(), o);
  // Find the U task of column k+1 at iteration k and check its priority
  // exceeds every other-U-column priority of the same iteration.
  int prio_next = -1, prio_other = -1;
  for (const auto& t : r.trace) {
    if (t.kind == rt::TaskKind::UFactor && t.iteration == 0) {
      if (t.label.find("j1") != std::string::npos && prio_next < 0) {
        prio_next = t.priority;
      }
      if (t.label.find("j3") != std::string::npos) prio_other = t.priority;
    }
  }
  ASSERT_GE(prio_next, 0);
  ASSERT_GE(prio_other, 0);
  EXPECT_GT(prio_next, prio_other);
}

TEST(Calu, LookaheadPriorityBandsDisjointAndOrderedAtScale) {
  // Regression for the fixed-constant scheme `1000000 - (k*1000 + (j-k))`,
  // which went negative (scrambling band order) once k*1000 + (j-k)
  // exceeded 1e6 — reachable within the paper's tall-skinny regime (e.g.
  // m = 1e6, b = 100 gives 1e4 panels) — and collided between different
  // (k, j) pairs once j - k >= 1000. The rescaled bands must stay positive,
  // disjoint, and correctly ordered for ANY problem size.
  for (const auto& [n_panels, n_blocks] : {std::pair<idx, idx>{4, 8},
                                           {100, 100},
                                           {20000, 4},   // old overflow regime
                                           {3, 4000}}) {  // old collision regime
    const LookaheadPriorities prio{n_panels, n_blocks, true};
    const idx k_probe[] = {0, n_panels / 2, n_panels - 1};
    for (idx k : k_probe) {
      // Top band: the panel path outranks everything, P above L, and both
      // decrease with k (earlier iterations are more urgent).
      EXPECT_GT(prio.panel(k), 0);
      EXPECT_EQ(prio.lfactor(k), prio.panel(k) - 1);
      if (k > 0) {
        EXPECT_LT(prio.panel(k), prio.panel(k - 1));
      }
      EXPECT_GT(prio.lfactor(k), prio.ufactor(k, k + 1));

      // Mid band: the look-ahead column k+1 outranks every trailing column
      // of the same iteration.
      if (k + 2 < n_blocks) {
        EXPECT_GT(prio.update(k, k + 1), prio.ufactor(k, k + 2));
        EXPECT_EQ(prio.update(k, k + 2), prio.ufactor(k, k + 2) - 1);
      }

      // Low band: strictly positive, each column's U above its S, ordered
      // by column within the iteration.
      const idx j0 = k + 2;
      if (j0 < n_blocks) {
        EXPECT_GT(prio.update(k, n_blocks - 1), 0);
        EXPECT_GT(prio.ufactor(k, j0), prio.update(k, j0));
        if (j0 + 1 < n_blocks) {
          EXPECT_GT(prio.update(k, j0), prio.ufactor(k, j0 + 1));
        }
      }
    }
    // No collision between distinct iterations' trailing cells (the old
    // scheme collided once j - k >= 1000).
    if (n_panels >= 2 && n_blocks >= 4) {
      EXPECT_NE(prio.ufactor(0, 3), prio.ufactor(1, 3));
      EXPECT_GT(prio.ufactor(0, 3), prio.ufactor(1, 3) - 1);
    }
  }

  // lookahead = false degenerates every priority to 0 (FIFO scheduling).
  const LookaheadPriorities flat{16, 16, false};
  EXPECT_EQ(flat.panel(3), 0);
  EXPECT_EQ(flat.lfactor(3), 0);
  EXPECT_EQ(flat.ufactor(3, 5), 0);
  EXPECT_EQ(flat.update(3, 5), 0);
}

TEST(Calu, MatchesSequentialTsluFactorsOnOnePanel) {
  // A single-panel CALU is exactly sequential TSLU.
  Matrix a = random_matrix(256, 32, 107);
  Matrix lu1 = a, lu2 = a;
  CaluOptions o;
  o.b = 32;
  o.tr = 4;
  o.num_threads = 2;
  o.tree = ReductionTree::Binary;
  CaluResult r = calu_factor(lu1.view(), o);

  PivotVector ipiv2;
  TsluOptions topts;
  topts.tr = 4;
  topts.tree = ReductionTree::Binary;
  tslu_factor(lu2.view(), ipiv2, topts);
  EXPECT_EQ(r.ipiv, ipiv2);
  EXPECT_EQ(test::max_diff(lu1, lu2), 0.0);
}

TEST(Calu, ChunkedLeavesAreBitwiseReproducible) {
  // Both panels' leaves (about 4,200 rows) span three tournament chunks, the
  // last one ragged. Execution knobs never change the bits, and the first
  // panel is sequential TSLU's with the second panel's swaps applied.
  const idx b = 100, m = 17000, n = 2 * b;
  ASSERT_GT((m - b) / 4, 2 * tournament_chunk_rows(b, b));
  const Matrix a = random_matrix(m, n, 151);
  CaluOptions o;
  o.b = b;
  o.tr = 4;
  o.num_threads = 0;
  o.record_trace = false;
  Matrix want = a;
  const CaluResult ref = calu_factor(want.view(), o);
  EXPECT_EQ(ref.info, 0);
  EXPECT_LT(lapack::lu_residual(a, want, ref.ipiv), kResidualThreshold);

  rt::WorkerPool shared(rt::WorkerPoolConfig{4});
  struct Knobs {
    const char* what;
    int threads;
    rt::WorkerPool* pool;
    idx window;
  };
  for (const Knobs& k : {Knobs{"1 thread", 1, nullptr, 0},
                         Knobs{"4 threads", 4, nullptr, 0},
                         Knobs{"shared pool", 4, &shared, 0},
                         Knobs{"window 1", 4, nullptr, 1}}) {
    o.num_threads = k.threads;
    o.pool = k.pool;
    o.window = k.window;
    Matrix lu = a;
    const CaluResult got = calu_factor(lu.view(), o);
    EXPECT_EQ(got.ipiv, ref.ipiv) << k.what;
    EXPECT_EQ(test::max_diff(lu, want), 0.0) << k.what;
  }

  Matrix panel(m, b);
  copy_into(a.view().cols_range(0, b), panel.view());
  PivotVector ipiv;
  TsluOptions topts;
  topts.tr = 4;
  EXPECT_EQ(tslu_factor(panel.view(), ipiv, topts), 0);
  EXPECT_EQ(ipiv, PivotVector(ref.ipiv.begin(), ref.ipiv.begin() + b));
  lapack::laswp(panel.view(), b, n, ref.ipiv);
  EXPECT_EQ(test::max_diff(panel, want.view().cols_range(0, b)), 0.0);
}

TEST(Calu, UpdateColumnBlockingMatchesBase) {
  // The Section V "B > b" extension changes task granularity, not results.
  Matrix a = random_matrix(160, 160, 111);
  Matrix lu1 = a, lu2 = a, lu3 = a;
  CaluOptions o;
  o.b = 20;
  o.tr = 2;
  o.num_threads = 2;
  o.update_cols_per_task = 1;
  CaluResult r1 = calu_factor(lu1.view(), o);
  o.update_cols_per_task = 3;
  CaluResult r2 = calu_factor(lu2.view(), o);
  o.update_cols_per_task = 100;  // all columns in one task
  CaluResult r3 = calu_factor(lu3.view(), o);
  EXPECT_EQ(r1.ipiv, r2.ipiv);
  EXPECT_EQ(r1.ipiv, r3.ipiv);
  EXPECT_EQ(test::max_diff(lu1, lu2), 0.0);
  EXPECT_EQ(test::max_diff(lu1, lu3), 0.0);
  // Fewer update tasks with larger B.
  EXPECT_LT(r2.trace.size(), r1.trace.size());
  EXPECT_LT(r3.trace.size(), r2.trace.size());
}


TEST(Calu, EmptyishSmallestCases) {
  for (idx n : {1, 2, 3}) {
    Matrix a = random_matrix(n, n, 109 + n);
    Matrix lu = a;
    CaluOptions o;
    o.b = 1;
    o.tr = 2;
    o.num_threads = 1;
    CaluResult r = calu_factor(lu.view(), o);
    EXPECT_EQ(r.info, 0);
    EXPECT_LT(lapack::lu_residual(a, lu, r.ipiv), kResidualThreshold);
  }
}

}  // namespace
}  // namespace camult::core
