// Structured QR kernel tests. The triangle-triangle node kernel
// (core::tpqrt_tri): agreement with the dense stacked kernel, apply round
// trips, and end-to-end TSQR/CAQR with structured nodes enabled. The
// triangle-on-square TS kernel (lapack::tpqrt/tpmqrt): agreement with a
// dense geqr3 of the explicit stack on views inside taller matrices, the
// explicit Q, apply round trips and a warm scratch pool.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "blas/blas.hpp"
#include "common/test_utils.hpp"
#include "core/caqr.hpp"
#include "core/tpqrt.hpp"
#include "core/tsqr.hpp"
#include "lapack/lapack.hpp"
#include "matrix/norms.hpp"
#include "matrix/random.hpp"

namespace camult::core {
namespace {

using camult::test::kResidualThreshold;
using camult::test::matrices_near;

Matrix random_upper(idx b, std::uint64_t seed, double diag_boost = 0.0) {
  Matrix r = random_matrix(b, b, seed);
  for (idx j = 0; j < b; ++j) {
    r(j, j) += diag_boost;
    for (idx i = j + 1; i < b; ++i) r(i, j) = 0.0;
  }
  return r;
}

TEST(Tpqrt, RMatchesDenseKernel) {
  for (idx b : {1, 2, 5, 16, 33, 100}) {
    Matrix r1 = random_upper(b, 600 + b);
    Matrix r2 = random_upper(b, 700 + b);

    // Structured.
    Matrix r1s = r1;
    TriTriFactors f = tpqrt_tri(r1s.view(), r2.view());

    // Dense reference: stack and geqr2.
    Matrix stack = Matrix::zeros(2 * b, b);
    copy_into(r1.view(), stack.view().rows_range(0, b));
    copy_into(r2.view(), stack.view().rows_range(b, b));
    std::vector<double> tau;
    lapack::geqr2(stack.view(), tau);

    for (idx j = 0; j < b; ++j) {
      for (idx i = 0; i <= j; ++i) {
        EXPECT_NEAR(r1s(i, j), stack(i, j),
                    1e-12 * std::max(1.0, std::abs(stack(i, j))))
            << "b=" << b << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(Tpqrt, StrictlyLowerOfR1NotTouched) {
  const idx b = 12;
  Matrix r1 = random_matrix(b, b, 801);  // junk below the diagonal
  Matrix r1_before = r1;
  Matrix r2 = random_upper(b, 802);
  tpqrt_tri(r1.view(), r2.view());
  for (idx j = 0; j < b; ++j) {
    for (idx i = j + 1; i < b; ++i) {
      EXPECT_EQ(r1(i, j), r1_before(i, j));
    }
  }
}

TEST(Tpqrt, ApplyRoundTrip) {
  const idx b = 20;
  Matrix r1 = random_upper(b, 803);
  Matrix r2 = random_upper(b, 804);
  TriTriFactors f = tpqrt_tri(r1.view(), r2.view());

  Matrix c1 = random_matrix(b, 7, 805);
  Matrix c2 = random_matrix(b, 7, 806);
  Matrix c1o = c1, c2o = c2;
  tpmqrt_tri(blas::Trans::Trans, f, c1.view(), c2.view());
  tpmqrt_tri(blas::Trans::NoTrans, f, c1.view(), c2.view());
  EXPECT_TRUE(matrices_near(c1, c1o, 1e-12));
  EXPECT_TRUE(matrices_near(c2, c2o, 1e-12));
}

TEST(Tpqrt, ApplyMatchesDenseKernelApply) {
  const idx b = 16;
  Matrix r1 = random_upper(b, 807);
  Matrix r2 = random_upper(b, 808);

  // Embed the triangles in a 2b x b "matrix" and run both node kernels.
  Matrix a_s = Matrix::zeros(2 * b, b);
  copy_into(r1.view(), a_s.view().rows_range(0, b));
  copy_into(r2.view(), a_s.view().rows_range(b, b));
  Matrix a_d = a_s;

  TsqrNode sn = tsqr_node_kernel_tri(a_s.view(), 0, b, b);
  TsqrNode dn = tsqr_node_kernel(a_d.view(), {0, b}, b);

  Matrix c_s = random_matrix(2 * b, 5, 809);
  Matrix c_d = c_s;
  tsqr_node_apply(blas::Trans::Trans, sn, c_s.view());
  tsqr_node_apply(blas::Trans::Trans, dn, c_d.view());
  EXPECT_TRUE(matrices_near(c_s, c_d, 1e-11 * std::max(1.0, norm_max(c_d))));
}

TEST(Tpqrt, TsqrStructuredMatchesDense) {
  const idx m = 320, n = 24;
  Matrix a = random_matrix(m, n, 811);
  Matrix f1 = a, f2 = a;
  TsqrOptions od;
  od.tr = 8;
  od.tree = ReductionTree::Binary;
  od.structured_nodes = false;
  TsqrOptions os = od;
  os.structured_nodes = true;

  TsqrFactors fd = tsqr_factor(f1.view(), od);
  TsqrFactors fs = tsqr_factor(f2.view(), os);
  Matrix rd = tsqr_extract_r(f1.view(), fd);
  Matrix rs = tsqr_extract_r(f2.view(), fs);
  EXPECT_TRUE(matrices_near(rd, rs, 1e-11 * std::max(1.0, norm_max(rd))));

  // Both produce orthogonal Q and small residual.
  Matrix qs = tsqr_explicit_q(f2.view(), fs);
  EXPECT_LT(lapack::orthogonality_residual(qs), kResidualThreshold);
}

TEST(Tpqrt, CaqrStructuredEndToEnd) {
  const idx m = 300, n = 120;
  Matrix a = random_matrix(m, n, 813);
  Matrix fact = a;
  CaqrOptions o;
  o.b = 30;
  o.tr = 4;
  o.tree = ReductionTree::Binary;
  o.structured_nodes = true;
  o.num_threads = 3;
  CaqrResult res = caqr_factor(fact.view(), o);
  EXPECT_LT(caqr_residual(a, fact, res), kResidualThreshold);
  Matrix q = caqr_explicit_q(fact.view(), res);
  EXPECT_LT(lapack::orthogonality_residual(q), kResidualThreshold);
}

TEST(Tpqrt, SingularTrianglesHandled) {
  const idx b = 8;
  Matrix r1 = Matrix::zeros(b, b);  // entirely zero triangle
  Matrix r2 = random_upper(b, 815);
  TriTriFactors f = tpqrt_tri(r1.view(), r2.view());
  // R^T R == r2^T r2 must still hold.
  Matrix rtr = Matrix::zeros(b, b);
  Matrix ref = Matrix::zeros(b, b);
  Matrix r_new = Matrix::zeros(b, b);
  for (idx j = 0; j < b; ++j) {
    for (idx i = 0; i <= j; ++i) r_new(i, j) = r1(i, j);
  }
  blas::gemm(blas::Trans::Trans, blas::Trans::NoTrans, 1.0, r_new, r_new, 0.0,
             rtr.view());
  blas::gemm(blas::Trans::Trans, blas::Trans::NoTrans, 1.0, r2, r2, 0.0,
             ref.view());
  EXPECT_TRUE(matrices_near(rtr, ref, 1e-10 * std::max(1.0, norm_max(ref))));
}

// --- lapack::tpqrt / tpmqrt: [R; B] with R n x n upper triangular and B
// c x n, both viewed inside taller host matrices whose other entries must
// survive bit for bit.

struct TsShape {
  idx n, c;
};

std::string ts_name(const ::testing::TestParamInfo<TsShape>& info) {
  std::string name = "n";
  name += std::to_string(info.param.n);
  name += "_c";
  name += std::to_string(info.param.c);
  return name;
}

// Every (n, c) with n in {1, 3, 4, 5, 7, 8, 9, 100} (single base blocks and
// around the base width kGeqr3Base = 8) and c in {1, n-1, n, n+1, 2000}.
std::vector<TsShape> ts_shapes() {
  std::vector<TsShape> out;
  for (idx n : {1, 3, 4, 5, 7, 8, 9, 100}) {
    for (idx c : {idx{1}, n - 1, n, n + 1, idx{2000}}) {
      bool seen = c < 0;
      for (const TsShape& s : out) seen = seen || (s.n == n && s.c == c);
      if (!seen) out.push_back({n, c});
    }
  }
  return out;
}

class TsKernel : public ::testing::TestWithParam<TsShape> {
 protected:
  // R lives at (2, 1) of an (n + 5) x (n + 3) host, B at (3, 2) of a
  // (c + 7) x (n + 4) host; R's strictly lower part is host data too.
  void SetUp() override {
    n_ = GetParam().n;
    c_ = GetParam().c;
    r_host_ = random_matrix(n_ + 5, n_ + 3, 900 + n_);
    b_host_ = random_matrix(c_ + 7, n_ + 4, 950 + n_ + c_);
    stack_ = Matrix::zeros(n_ + c_, n_);
    for (idx j = 0; j < n_; ++j) {
      r_host_(2 + j, 1 + j) += 3.0;  // a well-conditioned triangle
      for (idx i = 0; i <= j; ++i) stack_(i, j) = r_host_(2 + i, 1 + j);
    }
    copy_into(b_view(), stack_.view().rows_range(n_, c_));
  }
  MatrixView r_view() { return r_host_.block(2, 1, n_, n_); }
  MatrixView b_view() { return b_host_.block(3, 2, c_, n_); }

  idx n_ = 0, c_ = 0;
  Matrix r_host_, b_host_, stack_;
};

TEST_P(TsKernel, MatchesDenseGeqr3OnTheStack) {
  const Matrix r_before = r_host_, b_before = b_host_;
  std::vector<double> tau(static_cast<std::size_t>(n_));
  Matrix t = Matrix::zeros(n_, n_);
  lapack::tpqrt(r_view(), b_view(), tau.data(), t.view());

  // Nothing outside R's upper triangle and B's view moved.
  for (idx j = 0; j < r_host_.cols(); ++j) {
    for (idx i = 0; i < r_host_.rows(); ++i) {
      const bool in_r = i >= 2 && i < 2 + n_ && j >= 1 && j < 1 + n_ &&
                        i - 2 <= j - 1;
      if (!in_r) {
        EXPECT_EQ(r_host_(i, j), r_before(i, j)) << i << "," << j;
      }
    }
  }
  for (idx j = 0; j < b_host_.cols(); ++j) {
    for (idx i = 0; i < b_host_.rows(); ++i) {
      const bool in_b = i >= 3 && i < 3 + c_ && j >= 2 && j < 2 + n_;
      if (!in_b) {
        EXPECT_EQ(b_host_(i, j), b_before(i, j)) << i << "," << j;
      }
    }
  }

  // R agrees with a dense geqr3 of the explicit stack, up to row signs.
  Matrix dense = stack_;
  std::vector<double> dtau;
  Matrix dt = Matrix::zeros(n_, n_);
  lapack::geqr3(dense.view(), dtau, dt.view());
  const double scale = std::max(1.0, norm_max(stack_));
  for (idx i = 0; i < n_; ++i) {
    const double s = (r_view()(i, i) >= 0) == (dense(i, i) >= 0) ? 1.0 : -1.0;
    for (idx j = i; j < n_; ++j) {
      EXPECT_NEAR(r_view()(i, j), s * dense(i, j), 1e-12 * scale)
          << "R(" << i << "," << j << ")";
    }
  }

  // The thin Q of V = [I; V_B] and T is Q [I; 0] = [I - T; -V_B T]: it must
  // be orthonormal and reproduce the stack from the new R.
  Matrix q = Matrix::zeros(n_ + c_, n_);
  for (idx j = 0; j < n_; ++j) {
    for (idx i = 0; i <= j; ++i) q(i, j) = -t(i, j);
    q(j, j) += 1.0;
  }
  blas::gemm(blas::Trans::NoTrans, blas::Trans::NoTrans, -1.0, b_view(), t,
             0.0, q.view().rows_range(n_, c_));
  EXPECT_LT(lapack::orthogonality_residual(q), kResidualThreshold);
  Matrix r_new = Matrix::zeros(n_, n_);
  for (idx j = 0; j < n_; ++j) {
    for (idx i = 0; i <= j; ++i) r_new(i, j) = r_view()(i, j);
  }
  Matrix qr = Matrix::zeros(n_ + c_, n_);
  blas::gemm(blas::Trans::NoTrans, blas::Trans::NoTrans, 1.0, q, r_new, 0.0,
             qr.view());
  EXPECT_TRUE(matrices_near(qr, stack_, 1e-12 * scale));

  // tpmqrt(NoTrans) on [I; 0] builds the same thin Q.
  Matrix top = Matrix::identity(n_, n_);
  Matrix bot = Matrix::zeros(c_, n_);
  lapack::tpmqrt(blas::Trans::NoTrans, b_view(), t.view(), top.view(),
                 bot.view());
  EXPECT_TRUE(matrices_near(top, q.view().rows_range(0, n_), 1e-13));
  EXPECT_TRUE(matrices_near(bot, q.view().rows_range(n_, c_), 1e-13));
}

TEST_P(TsKernel, TpmqrtRoundTripsOnViews) {
  std::vector<double> tau(static_cast<std::size_t>(n_));
  Matrix t = Matrix::zeros(n_, n_);
  lapack::tpqrt(r_view(), b_view(), tau.data(), t.view());
  const idx nc = 5;
  Matrix c_host = random_matrix(n_ + c_ + 9, nc + 2, 977 + n_ + c_);
  const Matrix c0 = c_host;
  // c_top and c_bot are separate, non-adjacent views of one host.
  MatrixView top = c_host.block(1, 1, n_, nc);
  MatrixView bot = c_host.block(n_ + 4, 1, c_, nc);
  lapack::tpmqrt(blas::Trans::Trans, b_view(), t.view(), top, bot);
  lapack::tpmqrt(blas::Trans::NoTrans, b_view(), t.view(), top, bot);
  EXPECT_TRUE(matrices_near(c_host, c0, 1e-12));

  // The packed variant gives the same bits as the unpacked one.
  Matrix c_pk = c0, c_un = c0;
  const lapack::LarfbPackedV vp = lapack::tpmqrt_pack_v(b_view());
  lapack::tpmqrt(blas::Trans::Trans, b_view(), t.view(), vp,
                 c_pk.block(1, 1, n_, nc), c_pk.block(n_ + 4, 1, c_, nc));
  lapack::tpmqrt(blas::Trans::Trans, b_view(), t.view(),
                 c_un.block(1, 1, n_, nc), c_un.block(n_ + 4, 1, c_, nc));
  EXPECT_LT(test::max_diff(c_pk, c_un), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Shapes, TsKernel, ::testing::ValuesIn(ts_shapes()),
                         ts_name);

TEST(TsKernel, StopsAllocatingAfterWarmup) {
  blas::buffer_pool_trim();
  const idx n = 100, c = 2000;
  const Matrix r0 = random_upper(n, 991, 3.0);
  const Matrix b0 = random_matrix(c, n, 992);
  Matrix r = r0, b = b0;
  std::vector<double> tau(static_cast<std::size_t>(n));
  Matrix t = Matrix::zeros(n, n);
  auto run = [&] {
    copy_into(r0.view(), r.view());
    copy_into(b0.view(), b.view());
    lapack::tpqrt(r.view(), b.view(), tau.data(), t.view());
  };
  run();
  run();
  const blas::BufferPoolStats warm = blas::buffer_pool_stats();
  for (int i = 0; i < 3; ++i) run();
  const blas::BufferPoolStats after = blas::buffer_pool_stats();
  EXPECT_EQ(after.allocs, warm.allocs)
      << "steady-state tpqrt must not touch operator new";
  EXPECT_GT(after.pool_hits, warm.pool_hits);
  blas::buffer_pool_trim();
}

}  // namespace
}  // namespace camult::core
