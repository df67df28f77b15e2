// Adversarial numerics sweep: CALU and CAQR over hostile input ensembles
// (Wilkinson growth, near-singular, duplicate rows, rank-deficient, badly
// scaled), both reduction trees, asserting the backward-error bounds
// ||PA - LU|| / ||A|| resp. ||A - QR|| / ||A|| stay at the partial-pivoting
// / Householder level. These inputs stress the tournament-pivot and
// reflector paths that random well-conditioned matrices never do: pivot
// ties, zero pivots, 2^(n-1) growth and 2^40 dynamic range.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/test_utils.hpp"
#include "core/calu.hpp"
#include "core/caqr.hpp"
#include "lapack/lapack.hpp"
#include "matrix/random.hpp"
#include "runtime/worker_pool.hpp"

namespace camult {
namespace {

using camult::test::AdversarialCase;
using camult::test::adversarial_cases;
using camult::test::kResidualThreshold;

struct AdvParam {
  idx m, n, b, tr;
  core::ReductionTree tree;
};

std::string tree_name(core::ReductionTree t) {
  return t == core::ReductionTree::Binary ? "binary" : "flat";
}

class AdversarialSweep : public ::testing::TestWithParam<AdvParam> {};

TEST_P(AdversarialSweep, CaluBackwardError) {
  const AdvParam& p = GetParam();
  for (const AdversarialCase& c : adversarial_cases(p.m, p.n, 911)) {
    const std::string what =
        c.name + " " + std::to_string(c.a.rows()) + "x" +
        std::to_string(c.a.cols()) + " tree=" + tree_name(p.tree);
    Matrix lu = c.a;
    core::CaluOptions opts;
    opts.b = p.b;
    opts.tr = p.tr;
    opts.tree = p.tree;
    opts.num_threads = 4;
    core::CaluResult res = core::calu_factor(lu.view(), opts);
    if (!c.singular) {
      EXPECT_EQ(res.info, 0) << what;
    }
    EXPECT_LT(lapack::lu_residual(c.a.view(), lu.view(), res.ipiv),
              kResidualThreshold)
        << what;
  }
}

TEST_P(AdversarialSweep, CaqrBackwardError) {
  const AdvParam& p = GetParam();
  for (const AdversarialCase& c : adversarial_cases(p.m, p.n, 913)) {
    const std::string what =
        c.name + " " + std::to_string(c.a.rows()) + "x" +
        std::to_string(c.a.cols()) + " tree=" + tree_name(p.tree);
    Matrix fact = c.a;
    core::CaqrOptions opts;
    opts.b = p.b;
    opts.tr = p.tr;
    opts.tree = p.tree;
    opts.num_threads = 4;
    core::CaqrResult res = core::caqr_factor(fact.view(), opts);
    EXPECT_LT(core::caqr_residual(c.a.view(), fact.view(), res),
              kResidualThreshold)
        << what;
    const Matrix q = core::caqr_explicit_q(fact.view(), res);
    EXPECT_LT(lapack::orthogonality_residual(q.view()), kResidualThreshold)
        << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdversarialSweep,
    ::testing::Values(
        AdvParam{120, 120, 30, 4, core::ReductionTree::Binary},
        AdvParam{120, 120, 30, 4, core::ReductionTree::Flat},
        AdvParam{240, 60, 20, 4, core::ReductionTree::Binary},
        AdvParam{240, 60, 20, 4, core::ReductionTree::Flat}));

// ---- Health monitoring on poisoned / degenerate ensembles ---------------
//
// The monitor's contract: NaN/Inf inputs are FLAGGED but never trigger the
// GEPP fallback (GEPP on poison is equally lost); an exactly singular panel
// triggers the fallback and produces finite factors whose backward error
// matches plain GEPP; healthy inputs are bit-identical monitored or not.

bool all_finite(ConstMatrixView a) {
  for (idx j = 0; j < a.cols(); ++j) {
    for (idx i = 0; i < a.rows(); ++i) {
      if (!std::isfinite(a(i, j))) return false;
    }
  }
  return true;
}

TEST(AdversarialHealth, CaluFlagsNanInputWithoutFallback) {
  Matrix a = camult::test::nan_seeded_matrix(96, 96, 1001);
  core::CaluOptions opts;
  opts.b = 16;
  opts.tr = 2;
  opts.num_threads = 4;
  core::CaluResult res = core::calu_factor(a.view(), opts);
  EXPECT_TRUE(res.health.nan_detected);
  EXPECT_EQ(res.health.fallback_panels, 0);
  EXPECT_TRUE(res.health.degraded());
}

TEST(AdversarialHealth, CaluFlagsInfInputWithoutFallback) {
  Matrix a = camult::test::inf_seeded_matrix(96, 96, 1003);
  core::CaluOptions opts;
  opts.b = 16;
  opts.tr = 2;
  opts.num_threads = 4;
  core::CaluResult res = core::calu_factor(a.view(), opts);
  EXPECT_TRUE(res.health.nan_detected);
  EXPECT_EQ(res.health.fallback_panels, 0);
}

TEST(AdversarialHealth, CaqrFlagsPoisonedInput) {
  for (const bool use_nan : {true, false}) {
    Matrix a = use_nan ? camult::test::nan_seeded_matrix(96, 64, 1005)
                       : camult::test::inf_seeded_matrix(96, 64, 1007);
    core::CaqrOptions opts;
    opts.b = 16;
    opts.tr = 2;
    opts.num_threads = 4;
    core::CaqrResult res = core::caqr_factor(a.view(), opts);
    EXPECT_TRUE(res.health.nan_detected) << (use_nan ? "nan" : "inf");
    EXPECT_EQ(res.health.fallback_panels, 0);
  }
}

TEST(AdversarialHealth, SingularPanelFallsBackAndStaysFinite) {
  // Column 3 is exactly zero: the tournament elects a zero pivot for panel
  // 0 and the monitor must refactor it with full-panel GEPP instead of
  // emitting a column of Inf.
  Matrix a = camult::test::zero_column_matrix(96, 96, 3, 1009);
  Matrix lu = a;
  core::CaluOptions opts;
  opts.b = 16;
  opts.tr = 2;
  opts.num_threads = 4;
  core::CaluResult res = core::calu_factor(lu.view(), opts);
  EXPECT_GE(res.health.fallback_panels, 1);
  ASSERT_FALSE(res.health.fallback_list.empty());
  EXPECT_EQ(res.health.fallback_list[0], 0);
  EXPECT_EQ(res.info, 4);  // 1-based first zero pivot
  EXPECT_TRUE(all_finite(lu.view()));

  // Backward error within 10x of a plain GEPP factorization of the same
  // matrix (the fallback IS GEPP on that panel, so this is loose).
  Matrix ref = a;
  PivotVector ref_ipiv;
  lapack::getf2(ref.view(), ref_ipiv);
  const double gepp_res = lapack::lu_residual(a.view(), ref.view(), ref_ipiv);
  const double calu_res = lapack::lu_residual(a.view(), lu.view(), res.ipiv);
  EXPECT_LT(calu_res, 10.0 * std::max(gepp_res, 1.0));
}

TEST(AdversarialHealth, SinglePanelFallbackIsBitwiseGepp) {
  // n == b: the whole factorization is one panel, and the fallback must
  // reproduce the recursive-GEPP kernel exactly — same pivots, same bits.
  Matrix a = camult::test::zero_column_matrix(64, 16, 2, 1011);
  Matrix lu = a;
  core::CaluOptions opts;
  opts.b = 16;
  opts.tr = 4;
  opts.num_threads = 4;
  core::CaluResult res = core::calu_factor(lu.view(), opts);
  EXPECT_EQ(res.health.fallback_panels, 1);

  Matrix ref = a;
  PivotVector ref_ipiv;
  const idx ref_info = lapack::rgetf2(ref.view(), ref_ipiv);
  EXPECT_EQ(res.info, ref_info);
  ASSERT_EQ(res.ipiv.size(), ref_ipiv.size());
  for (std::size_t i = 0; i < ref_ipiv.size(); ++i) {
    EXPECT_EQ(res.ipiv[i], ref_ipiv[i]) << "pivot " << i;
  }
  EXPECT_EQ(camult::test::max_diff(lu.view(), ref.view()), 0.0);
}

TEST(AdversarialHealth, WilkinsonGrowthIsTrackedWithoutFallback) {
  // The GEPP worst-case growth matrix: large per-panel growth must be
  // REPORTED but stay under the default limit (Wilkinson is GEPP-stable in
  // the backward-error sense, so no intervention is warranted).
  Matrix a = gepp_growth_matrix(40);
  Matrix lu = a;
  core::CaluOptions opts;
  opts.b = 20;
  opts.tr = 2;
  opts.num_threads = 4;
  core::CaluResult res = core::calu_factor(lu.view(), opts);
  EXPECT_EQ(res.info, 0);
  EXPECT_EQ(res.health.fallback_panels, 0);
  EXPECT_GT(res.health.max_growth, 1e4);  // ~2^19 on the second panel
  EXPECT_FALSE(res.health.nan_detected);
}

TEST(AdversarialHealth, GrowthLimitTriggersFallback) {
  Matrix a = gepp_growth_matrix(40);
  Matrix lu = a;
  core::CaluOptions opts;
  opts.b = 20;
  opts.tr = 2;
  opts.num_threads = 4;
  opts.growth_limit = 100.0;  // far below the ~2^19 panel growth
  core::CaluResult res = core::calu_factor(lu.view(), opts);
  EXPECT_EQ(res.info, 0);
  EXPECT_GE(res.health.fallback_panels, 1);
  EXPECT_LT(lapack::lu_residual(a.view(), lu.view(), res.ipiv),
            kResidualThreshold);
}

TEST(AdversarialHealth, MonitorOnOffIsBitIdenticalOnHealthyInput) {
  Matrix a = random_matrix(96, 96, 1013);
  Matrix monitored = a;
  Matrix plain = a;
  core::CaluOptions opts;
  opts.b = 16;
  opts.tr = 2;
  opts.num_threads = 4;
  opts.monitor = true;
  core::CaluResult rm = core::calu_factor(monitored.view(), opts);
  opts.monitor = false;
  core::CaluResult rp = core::calu_factor(plain.view(), opts);
  EXPECT_EQ(rm.ipiv, rp.ipiv);
  EXPECT_EQ(camult::test::max_diff(monitored.view(), plain.view()), 0.0);
  EXPECT_GT(rm.health.max_growth, 0.0);
  EXPECT_EQ(rm.health.fallback_panels, 0);
  EXPECT_FALSE(rp.health.degraded());
}

TEST(AdversarialHealth, CaqrReportsGrowthOnHealthyInput) {
  Matrix a = random_matrix(96, 64, 1015);
  core::CaqrOptions opts;
  opts.b = 16;
  opts.tr = 2;
  opts.num_threads = 4;
  core::CaqrResult res = core::caqr_factor(a.view(), opts);
  EXPECT_FALSE(res.health.nan_detected);
  EXPECT_EQ(res.health.fallback_panels, 0);
  EXPECT_GT(res.health.max_growth, 0.0);
}

// ---- Where the input screen runs -----------------------------------------
//
// CALU screens each panel in its tournament leaves and CAQR screens the
// input in iteration 0's leaf and leaf-update tasks. Poison placed where
// only one of those tasks (the last leaf, the last column block) can see it
// pins that the screens together still cover every entry.

TEST(AdversarialHealth, CaluFlagsPoisonInLastRowOfLastLeafOfLatePanel) {
  // Row m-1 is zero left of panel 4, so it is never elected as a pivot
  // and the earlier updates leave its poisoned entry in place: only panel
  // 4's last tournament leaf ever reads it.
  const idx m = 200, n = 96, b = 16, col = 4 * b + 6;
  for (const double poison : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    for (const int threads : {0, 4}) {
      Matrix a = random_matrix(m, n, 1017);
      for (idx j = 0; j < 4 * b; ++j) a(m - 1, j) = 0.0;
      a(m - 1, col) = poison;
      core::CaluOptions opts;
      opts.b = b;
      opts.tr = 4;
      opts.num_threads = threads;
      core::CaluResult res = core::calu_factor(a.view(), opts);
      EXPECT_TRUE(res.health.nan_detected)
          << "poison=" << poison << " threads=" << threads;
      EXPECT_EQ(res.health.fallback_panels, 0);
    }
  }
}

TEST(AdversarialHealth, CaqrFlagsNanOutsidePanelZero) {
  // The only NaN sits in the last row of the last column block. m_blocks
  // is 8, so tr = 64 caps the leaf count at 8.
  const idx m = 120, n = 72;
  rt::WorkerPool pool(rt::WorkerPoolConfig{2, false});
  for (const idx window : {idx{0}, idx{1}}) {
    for (const bool on_pool : {false, true}) {
      for (const idx tr : {idx{3}, idx{64}}) {
        Matrix a = random_matrix(m, n, 1019);
        a(m - 1, n - 1) = std::numeric_limits<double>::quiet_NaN();
        core::CaqrOptions opts;
        opts.b = 16;
        opts.tr = tr;
        opts.window = window;
        opts.num_threads = on_pool ? 2 : 0;
        opts.pool = on_pool ? &pool : nullptr;
        core::CaqrResult res = core::caqr_factor(a.view(), opts);
        EXPECT_TRUE(res.health.nan_detected)
            << "window=" << window << " pool=" << on_pool << " tr=" << tr;
        EXPECT_EQ(res.health.fallback_panels, 0);
      }
    }
  }
}

TEST(AdversarialHealth, CaqrGrowthIsMaxROverMaxA) {
  const Matrix a = random_matrix(150, 90, 1021);
  double amax = 0.0;
  for (idx j = 0; j < a.cols(); ++j) {
    for (idx i = 0; i < a.rows(); ++i) amax = std::max(amax, std::abs(a(i, j)));
  }
  Matrix fact = a;
  core::CaqrOptions opts;
  opts.b = 16;
  opts.tr = 3;
  opts.num_threads = 4;
  core::CaqrResult res = core::caqr_factor(fact.view(), opts);
  const Matrix r = core::caqr_extract_r(fact.view(), res);
  double rmax = 0.0;
  for (idx j = 0; j < r.cols(); ++j) {
    for (idx i = 0; i < r.rows(); ++i) rmax = std::max(rmax, std::abs(r(i, j)));
  }
  EXPECT_FALSE(res.health.nan_detected);
  EXPECT_DOUBLE_EQ(res.health.max_growth, rmax / amax);
}

TEST(AdversarialHealth, MonitorOffLeavesHealthEmpty) {
  core::CaluOptions lopts;
  lopts.b = 16;
  lopts.tr = 2;
  lopts.num_threads = 4;
  lopts.monitor = false;
  Matrix lu = camult::test::nan_seeded_matrix(96, 96, 1023);
  const core::HealthReport lh = core::calu_factor(lu.view(), lopts).health;
  EXPECT_FALSE(lh.nan_detected);
  EXPECT_EQ(lh.fallback_panels, 0);
  EXPECT_TRUE(lh.fallback_list.empty());
  EXPECT_EQ(lh.max_growth, 0.0);

  core::CaqrOptions qopts;
  qopts.b = 16;
  qopts.tr = 2;
  qopts.num_threads = 4;
  qopts.monitor = false;
  Matrix qr = camult::test::nan_seeded_matrix(96, 64, 1025);
  const core::HealthReport qh = core::caqr_factor(qr.view(), qopts).health;
  EXPECT_FALSE(qh.nan_detected);
  EXPECT_EQ(qh.fallback_panels, 0);
  EXPECT_TRUE(qh.fallback_list.empty());
  EXPECT_EQ(qh.max_growth, 0.0);
}

}  // namespace
}  // namespace camult
