// Multithreaded CAQR tests: residual/orthogonality across shapes, trees and
// thread counts, R agreement with geqrf, implicit-Q application,
// determinism, trace sanity, and leaves taller than one chunk (chunked
// leaves with trailing columns, bitwise across execution knobs, and the
// per-chunk health screen).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "blas/blas.hpp"
#include "common/test_utils.hpp"
#include "core/caqr.hpp"
#include "core/drivers.hpp"
#include "core/tournament.hpp"
#include "lapack/lapack.hpp"
#include "matrix/norms.hpp"
#include "matrix/random.hpp"

namespace camult::core {
namespace {

using camult::test::kResidualThreshold;

struct CaqrParam {
  idx m, n, b, tr;
  int threads;
  ReductionTree tree;
};

class CaqrSweep : public ::testing::TestWithParam<CaqrParam> {};

TEST_P(CaqrSweep, ResidualAndOrthogonality) {
  const auto& p = GetParam();
  Matrix a = random_matrix(p.m, p.n, 201);
  Matrix fact = a;
  CaqrOptions opts;
  opts.b = p.b;
  opts.tr = p.tr;
  opts.tree = p.tree;
  opts.num_threads = p.threads;
  CaqrResult res = caqr_factor(fact.view(), opts);

  EXPECT_LT(caqr_residual(a, fact, res), kResidualThreshold)
      << "m=" << p.m << " n=" << p.n << " b=" << p.b << " tr=" << p.tr;
  Matrix q = caqr_explicit_q(fact.view(), res);
  EXPECT_LT(lapack::orthogonality_residual(q), kResidualThreshold);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CaqrSweep,
    ::testing::Values(
        CaqrParam{64, 64, 16, 2, 0, ReductionTree::Flat},
        CaqrParam{64, 64, 16, 2, 2, ReductionTree::Flat},
        CaqrParam{100, 100, 25, 4, 4, ReductionTree::Flat},
        CaqrParam{100, 100, 25, 4, 4, ReductionTree::Binary},
        CaqrParam{130, 130, 32, 4, 2, ReductionTree::Binary},  // ragged
        CaqrParam{400, 40, 20, 4, 4, ReductionTree::Flat},
        CaqrParam{400, 40, 20, 8, 2, ReductionTree::Binary},
        CaqrParam{1000, 30, 10, 8, 4, ReductionTree::Binary},
        CaqrParam{513, 64, 16, 4, 2, ReductionTree::Flat},
        // Wide: only min(m, n) panel columns are factored.
        CaqrParam{60, 200, 20, 2, 2, ReductionTree::Flat},
        CaqrParam{50, 128, 16, 4, 4, ReductionTree::Binary},
        // Single panel (pure multithreaded TSQR).
        CaqrParam{256, 32, 32, 4, 4, ReductionTree::Binary},
        CaqrParam{256, 32, 64, 4, 4, ReductionTree::Flat},
        CaqrParam{20, 20, 1, 2, 2, ReductionTree::Flat},
        CaqrParam{600, 50, 25, 4, 0, ReductionTree::Flat}));

TEST(Caqr, RMatchesGeqrfUpToSigns) {
  Matrix a = random_matrix(120, 60, 203);
  Matrix f1 = a, f2 = a;
  CaqrOptions o;
  o.b = 20;
  o.tr = 4;
  o.num_threads = 2;
  CaqrResult res = caqr_factor(f1.view(), o);
  Matrix r1 = caqr_extract_r(f1.view(), res);

  std::vector<double> tau;
  lapack::geqrf(f2.view(), tau);
  Matrix r2 = lapack::extract_upper(f2, 60);
  for (idx i = 0; i < 60; ++i) {
    const double s = (r1(i, i) >= 0) == (r2(i, i) >= 0) ? 1.0 : -1.0;
    for (idx j = i; j < 60; ++j) {
      EXPECT_NEAR(r1(i, j), s * r2(i, j),
                  1e-9 * std::max(1.0, std::abs(r2(i, j))))
          << "at (" << i << "," << j << ")";
    }
  }
}

TEST(Caqr, DeterministicAcrossThreadCounts) {
  Matrix a = random_matrix(200, 80, 207);
  Matrix f0 = a, f2 = a, f4 = a;
  CaqrOptions o;
  o.b = 20;
  o.tr = 4;
  o.num_threads = 0;
  caqr_factor(f0.view(), o);
  o.num_threads = 2;
  caqr_factor(f2.view(), o);
  o.num_threads = 4;
  caqr_factor(f4.view(), o);
  EXPECT_EQ(test::max_diff(f0, f2), 0.0);
  EXPECT_EQ(test::max_diff(f0, f4), 0.0);
}

TEST(Caqr, ApplyQRoundTrip) {
  Matrix a = random_matrix(150, 60, 209);
  Matrix fact = a;
  CaqrOptions o;
  o.b = 15;
  o.tr = 2;
  o.num_threads = 2;
  CaqrResult res = caqr_factor(fact.view(), o);

  Matrix c = random_matrix(150, 7, 211);
  Matrix c0 = c;
  caqr_apply_q(blas::Trans::Trans, fact.view(), res, c.view());
  caqr_apply_q(blas::Trans::NoTrans, fact.view(), res, c.view());
  EXPECT_TRUE(test::matrices_near(c, c0, 1e-10));
}

TEST(Caqr, QtAGivesR) {
  Matrix a = random_matrix(90, 45, 213);
  Matrix fact = a;
  CaqrOptions o;
  o.b = 15;
  o.tr = 2;
  o.num_threads = 2;
  CaqrResult res = caqr_factor(fact.view(), o);

  Matrix qta = a;
  caqr_apply_q(blas::Trans::Trans, fact.view(), res, qta.view());
  Matrix r = caqr_extract_r(fact.view(), res);
  for (idx j = 0; j < 45; ++j) {
    for (idx i = 0; i < 45; ++i) {
      EXPECT_NEAR(qta(i, j), r(i, j), 1e-9);
    }
    for (idx i = 45; i < 90; ++i) EXPECT_NEAR(qta(i, j), 0.0, 1e-9);
  }
}

TEST(Caqr, TraceHasPanelAndUpdateTasks) {
  Matrix a = random_matrix(160, 80, 215);
  CaqrOptions o;
  o.b = 20;
  o.tr = 2;
  o.num_threads = 2;
  CaqrResult r = caqr_factor(a.view(), o);
  std::set<rt::TaskKind> kinds;
  for (const auto& t : r.trace) kinds.insert(t.kind);
  EXPECT_TRUE(kinds.count(rt::TaskKind::Panel));
  EXPECT_TRUE(kinds.count(rt::TaskKind::Update));
  for (const auto& e : r.edges) {
    EXPECT_GE(r.trace[static_cast<std::size_t>(e.to)].start_ns,
              r.trace[static_cast<std::size_t>(e.from)].end_ns);
  }
}

// Regression: like CALU's candidate slots, the TSQR leaf/node keys used a
// fixed per-iteration stride of 8192, aliasing iteration k's keys with
// iteration k+1's once a panel had more tournament slots than the stride and
// producing impossible cross-iteration Panel->Panel dependency edges. The
// stride is now derived from the per-iteration slot bound; this wide-panel
// configuration fails on the fixed-stride code.
TEST(Caqr, WideTournamentKeysDoNotAliasAcrossIterations) {
  const idx m = 8400;
  Matrix a = random_matrix(m, 2, 419);
  Matrix fact = a;
  CaqrOptions o;
  o.b = 1;
  o.tr = m;  // one leaf per row: more slots than the old fixed stride
  o.tree = ReductionTree::Flat;
  o.num_threads = 0;
  CaqrResult r = caqr_factor(fact.view(), o);
  for (const auto& e : r.edges) {
    const auto& from = r.trace[static_cast<std::size_t>(e.from)];
    const auto& to = r.trace[static_cast<std::size_t>(e.to)];
    if (from.kind == rt::TaskKind::Panel && to.kind == rt::TaskKind::Panel) {
      EXPECT_EQ(from.iteration, to.iteration)
          << "spurious cross-iteration Panel edge " << e.from << " ("
          << from.label << ") -> " << e.to << " (" << to.label << ")";
    }
  }
  EXPECT_LT(caqr_residual(a, fact, r), kResidualThreshold);
}

TEST(Caqr, LeastSquaresSolve) {
  // Solve min ||Ax - b|| via CAQR: x = R^{-1} (Q^T b)(1:n).
  const idx m = 200, n = 30;
  Matrix a = random_matrix(m, n, 217);
  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) {
    x_true[static_cast<std::size_t>(i)] = 1.0 / (1.0 + static_cast<double>(i));
  }
  Matrix bvec = Matrix::zeros(m, 1);
  blas::gemv(blas::Trans::NoTrans, 1.0, a, x_true.data(), 1, 0.0,
             bvec.data(), 1);

  Matrix fact = a;
  CaqrOptions o;
  o.b = 10;
  o.tr = 4;
  o.num_threads = 2;
  CaqrResult res = caqr_factor(fact.view(), o);
  caqr_apply_q(blas::Trans::Trans, fact.view(), res, bvec.view());
  blas::trsv(blas::Uplo::Upper, blas::Trans::NoTrans, blas::Diag::NonUnit,
             fact.view().block(0, 0, n, n), bvec.data(), 1);
  for (idx i = 0; i < n; ++i) {
    EXPECT_NEAR(bvec(i, 0), x_true[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(Caqr, ZeroMatrix) {
  Matrix a = Matrix::zeros(50, 20);
  Matrix fact = a;
  CaqrOptions o;
  o.b = 10;
  o.tr = 2;
  o.num_threads = 1;
  CaqrResult res = caqr_factor(fact.view(), o);
  Matrix r = caqr_extract_r(fact.view(), res);
  EXPECT_EQ(norm_max(r), 0.0);
}

TEST(Caqr, TinyMatrices) {
  for (idx n : {1, 2, 3}) {
    Matrix a = random_matrix(n + 2, n, 219 + n);
    Matrix fact = a;
    CaqrOptions o;
    o.b = 1;
    o.tr = 2;
    o.num_threads = 1;
    CaqrResult res = caqr_factor(fact.view(), o);
    EXPECT_LT(caqr_residual(a, fact, res), kResidualThreshold);
  }
}


TEST(Caqr, HybridTreeEndToEnd) {
  Matrix a = random_matrix(400, 100, 444);
  Matrix fact = a;
  CaqrOptions o;
  o.b = 25;
  o.tr = 8;
  o.tree = ReductionTree::Hybrid;
  o.num_threads = 3;
  CaqrResult res = caqr_factor(fact.view(), o);
  EXPECT_LT(caqr_residual(a, fact, res), kResidualThreshold);
}

// --- Chunked leaves: at b = 100, Tr = 2, each leaf of a 16,000 x 300
// matrix's panels holds about 8,000 rows, three chunks of
// tsqr_chunk_rows(100) rows, the last one ragged (44 rows, fewer than the
// panel's 100 columns, in iteration 1's second leaf).

class CaqrChunkedLeaves : public ::testing::TestWithParam<ReductionTree> {
 protected:
  static constexpr idx kM = 16000, kN = 300;
  CaqrOptions options() const {
    CaqrOptions o;
    o.b = 100;
    o.tr = 2;
    o.tree = GetParam();
    o.num_threads = 3;
    return o;
  }
};

TEST_P(CaqrChunkedLeaves, ResidualApplyQAndLeastSquares) {
  const Matrix a = random_matrix(kM, kN, 231);
  Matrix fact = a;
  CaqrResult res = caqr_factor(fact.view(), options());
  ASSERT_EQ(res.iterations[0].leaves[0].t.cols(), 3 * 100)
      << "the leaves must span three chunks";
  EXPECT_LT(caqr_residual(a, fact, res), kResidualThreshold);

  Matrix c = random_matrix(kM, 4, 232);
  const Matrix c0 = c;
  caqr_apply_q(blas::Trans::Trans, fact.view(), res, c.view());
  caqr_apply_q(blas::Trans::NoTrans, fact.view(), res, c.view());
  EXPECT_TRUE(test::matrices_near(c, c0, 1e-10));

  // min ||A x - b|| for a consistent b recovers x.
  Matrix x_true = random_matrix(kN, 2, 233);
  Matrix rhs = Matrix::zeros(kM, 2);
  blas::gemm(blas::Trans::NoTrans, blas::Trans::NoTrans, 1.0, a, x_true, 0.0,
             rhs.view());
  Matrix ls = a;
  caqr_least_squares(ls.view(), rhs.view(), options());
  for (idx j = 0; j < 2; ++j) {
    for (idx i = 0; i < kN; ++i) {
      EXPECT_NEAR(rhs(i, j), x_true(i, j), 1e-9) << i << "," << j;
    }
  }
}

TEST_P(CaqrChunkedLeaves, BitwiseAcrossThreadsPoolAndWindow) {
  const Matrix a = random_matrix(kM, kN, 234);
  Matrix ref = a;
  CaqrOptions o = options();
  o.num_threads = 0;  // inline
  const CaqrResult ref_res = caqr_factor(ref.view(), o);
  // Every chunk's T and tau, not just the factored matrix.
  auto same_leaves = [&ref_res](const CaqrResult& r) {
    for (std::size_t k = 0; k < r.iterations.size(); ++k) {
      const auto& got = r.iterations[k].leaves;
      const auto& want = ref_res.iterations[k].leaves;
      if (got.size() != want.size()) return false;
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].tau != want[i].tau ||
            test::max_diff(got[i].t, want[i].t) != 0.0) {
          return false;
        }
      }
    }
    return true;
  };

  rt::WorkerPool pool(rt::WorkerPoolConfig{3, false});
  struct Knob {
    const char* name;
    int threads;
    rt::WorkerPool* pool;
    idx window;
  };
  for (const Knob& k : {Knob{"threads", 4, nullptr, 0},
                        Knob{"pool", 3, &pool, 0},
                        Knob{"window 2", 3, nullptr, 2},
                        Knob{"pool + window 2", 3, &pool, 2}}) {
    Matrix fact = a;
    CaqrOptions ok = options();
    ok.num_threads = k.threads;
    ok.pool = k.pool;
    ok.window = k.window;
    const CaqrResult res = caqr_factor(fact.view(), ok);
    EXPECT_EQ(test::max_diff(fact, ref), 0.0) << k.name;
    EXPECT_TRUE(same_leaves(res)) << k.name;
  }
}

TEST(CaqrChunkedLeaves, AdversarialBackwardError) {
  // Two 40-column panels, each one leaf of several chunks (panel 0's last
  // one 17 rows), on the adversarial ensemble: the chunked leaf is still
  // Householder QR.
  const idx b = 40, n = 2 * b, m = 2 * tsqr_chunk_rows(b) + 17;
  for (const auto& c : test::adversarial_cases(m, n, 237)) {
    Matrix fact = c.a;
    CaqrOptions o;
    o.b = b;
    o.tr = 1;
    o.num_threads = 2;
    CaqrResult res = caqr_factor(fact.view(), o);
    ASSERT_EQ(res.iterations[0].leaves[0].t.cols(), 3 * b) << c.name;
    EXPECT_LT(caqr_residual(c.a.view(), fact.view(), res), kResidualThreshold)
        << c.name;
    Matrix q = caqr_explicit_q(fact.view(), res);
    EXPECT_LT(lapack::orthogonality_residual(q), kResidualThreshold)
        << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Trees, CaqrChunkedLeaves,
                         ::testing::Values(ReductionTree::Flat,
                                           ReductionTree::Binary));

TEST(CaqrChunkedHealth, NanInTheLastChunkIsFlagged) {
  // One leaf of four chunks; the NaN sits in the ragged last one.
  const idx m = 3 * tsqr_chunk_rows(100) + 50, n = 100;
  Matrix a = random_matrix(m, n, 235);
  a(m - 10, 37) = std::numeric_limits<double>::quiet_NaN();
  CaqrOptions o;
  o.b = n;
  o.tr = 1;
  o.num_threads = 2;
  CaqrResult res = caqr_factor(a.view(), o);
  ASSERT_EQ(res.iterations[0].leaves[0].t.cols(), 4 * n);
  EXPECT_TRUE(res.health.nan_detected);
}

TEST(CaqrChunkedHealth, GrowthMatchesTheUnchunkedScreen) {
  // The largest input entry sits in the last chunk: the per-chunk screens
  // must find it, so the growth equals max|R| over a screen of the whole
  // input.
  const idx m = 3 * tsqr_chunk_rows(100) + 50, n = 100;
  Matrix a = random_matrix(m, n, 236);
  a(m - 3, 5) = 40.0;
  const PanelScreen whole = screen_panel(a);
  ASSERT_EQ(whole.absmax, 40.0);
  Matrix fact = a;
  CaqrOptions o;
  o.b = n;
  o.tr = 1;
  o.num_threads = 2;
  CaqrResult res = caqr_factor(fact.view(), o);
  EXPECT_FALSE(res.health.nan_detected);
  double rmax = 0.0;
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i <= j; ++i) rmax = std::max(rmax, std::abs(fact(i, j)));
  }
  EXPECT_EQ(res.health.max_growth, rmax / whole.absmax);

  // And R's largest entry is geqr3's, to rounding.
  Matrix ref = a;
  std::vector<double> tau;
  Matrix t = Matrix::zeros(n, n);
  lapack::geqr3(ref.view(), tau, t.view());
  double ref_max = 0.0;
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i <= j; ++i) ref_max = std::max(ref_max, std::abs(ref(i, j)));
  }
  EXPECT_NEAR(res.health.max_growth, ref_max / whole.absmax,
              1e-12 * ref_max / whole.absmax);
}

}  // namespace
}  // namespace camult::core
