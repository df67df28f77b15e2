// Two-phase GEMM API tests: the pack_a/pack_b + gemm_packed pipeline versus
// the one-shot gemm and the naive reference, on fringe sizes that straddle
// every blocking boundary (MR/NR register tiles, MC/KC/NC cache blocks),
// all four Trans combinations, degenerate alpha/beta, and ld > rows views.
// Plus the scratch-pool counters the packing machinery is supposed to keep
// off the allocator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "blas/blas.hpp"
#include "common/test_utils.hpp"
#include "matrix/random.hpp"

namespace camult {
namespace {

using blas::Trans;
using camult::test::KernelGuard;
using camult::test::matrices_near;
using camult::test::max_diff;
using camult::test::reference_gemm;
using camult::test::runnable_kernels;

// Operand sized so op(X) has the requested logical dims.
Matrix operand(Trans t, idx op_rows, idx op_cols, std::uint64_t seed) {
  return t == Trans::NoTrans ? random_matrix(op_rows, op_cols, seed)
                             : random_matrix(op_cols, op_rows, seed);
}

double tol_for(idx k) { return 1e-13 * static_cast<double>(k + 1); }

void check_gemm_vs_reference(idx m, idx n, idx k, Trans ta, Trans tb,
                             double alpha, double beta) {
  const Matrix a = operand(ta, m, k, 100 + m + 3 * k);
  const Matrix b = operand(tb, k, n, 200 + n + 5 * k);
  Matrix c = random_matrix(m, n, 300 + m + n);
  Matrix want = c;
  reference_gemm(ta, tb, alpha, a.view(), b.view(), beta, want.view());
  blas::gemm(ta, tb, alpha, a.view(), b.view(), beta, c.view());
  EXPECT_TRUE(matrices_near(c.view(), want.view(), tol_for(k)))
      << "m=" << m << " n=" << n << " k=" << k << " ta=" << (int)ta
      << " tb=" << (int)tb << " alpha=" << alpha << " beta=" << beta;
}

// ---- Fringe sizes around the register tiles (MR=8, NR=6) ----------------

TEST(GemmFringe, RegisterTileBoundaries) {
  const std::vector<idx> ms = {1, 7, 8, 9, 16, 17};
  const std::vector<idx> ns = {1, 5, 6, 7, 12, 13};
  const std::vector<idx> ks = {1, 2, 8, 33};
  for (idx m : ms) {
    for (idx n : ns) {
      for (idx k : ks) {
        check_gemm_vs_reference(m, n, k, Trans::NoTrans, Trans::NoTrans, 1.0,
                                1.0);
      }
    }
  }
}

TEST(GemmFringe, AllTransCombos) {
  for (Trans ta : {Trans::NoTrans, Trans::Trans}) {
    for (Trans tb : {Trans::NoTrans, Trans::Trans}) {
      for (idx m : {7, 9, 24}) {
        for (idx n : {5, 7, 18}) {
          check_gemm_vs_reference(m, n, 33, ta, tb, -1.0, 1.0);
        }
      }
    }
  }
}

// Sizes one below / at / one above the cache blocks (MC=192, KC=256,
// NC=768): the packed-offset arithmetic switches between full and ragged
// blocks exactly here.
TEST(GemmFringe, CacheBlockBoundaries) {
  for (idx m : {blas::kGemmMC - 1, blas::kGemmMC, blas::kGemmMC + 1}) {
    check_gemm_vs_reference(m, 20, 20, Trans::NoTrans, Trans::NoTrans, 1.0,
                            1.0);
  }
  for (idx k : {blas::kGemmKC - 1, blas::kGemmKC, blas::kGemmKC + 1}) {
    check_gemm_vs_reference(24, 20, k, Trans::NoTrans, Trans::Trans, 1.0,
                            -1.0);
  }
  for (idx n : {blas::kGemmNC - 1, blas::kGemmNC, blas::kGemmNC + 1}) {
    check_gemm_vs_reference(20, n, 24, Trans::Trans, Trans::NoTrans, 1.0,
                            1.0);
  }
}

TEST(GemmFringe, DegenerateAlphaBeta) {
  for (double beta : {0.0, 1.0, -1.0}) {
    check_gemm_vs_reference(17, 13, 9, Trans::NoTrans, Trans::NoTrans, 0.0,
                            beta);
    check_gemm_vs_reference(17, 13, 9, Trans::Trans, Trans::Trans, 2.0, beta);
    check_gemm_vs_reference(200, 40, 24, Trans::NoTrans, Trans::NoTrans, 0.0,
                            beta);
  }
}

// beta = 0 must overwrite even when C starts with NaNs (0 * NaN != 0).
TEST(GemmFringe, BetaZeroOverwritesNan) {
  const idx m = 17, n = 13, k = 9;
  const Matrix a = random_matrix(m, k, 1);
  const Matrix b = random_matrix(k, n, 2);
  Matrix c(m, n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) c(i, j) = std::nan("");
  }
  Matrix want = Matrix::zeros(m, n);
  reference_gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a.view(), b.view(), 0.0,
                 want.view());
  blas::gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a.view(), b.view(), 0.0,
             c.view());
  EXPECT_TRUE(matrices_near(c.view(), want.view(), tol_for(k)));
}

// Operands and C taken as interior blocks of larger matrices: ld > rows on
// every view.
TEST(GemmFringe, StridedViews) {
  const idx M = 64, N = 48, K = 40;
  Matrix pa = random_matrix(M, K, 11);
  Matrix pb = random_matrix(K, N, 12);
  Matrix pc = random_matrix(M, N, 13);
  const idx m = 33, n = 19, k = 25;
  ConstMatrixView a = pa.view().block(5, 3, m, k);
  ConstMatrixView b = pb.view().block(7, 2, k, n);
  MatrixView c = pc.view().block(9, 6, m, n);
  Matrix want = Matrix::from(c);
  reference_gemm(Trans::NoTrans, Trans::NoTrans, -1.0, a, b, 1.0,
                 want.view());
  blas::gemm(Trans::NoTrans, Trans::NoTrans, -1.0, a, b, 1.0, c);
  EXPECT_TRUE(matrices_near(c, want.view(), tol_for(k)));
}

// ---- gemm_packed ---------------------------------------------------------

void check_packed_a(idx m, idx n, idx k, Trans ta) {
  const Matrix a = operand(ta, m, k, 400 + m);
  const Matrix b = random_matrix(k, n, 500 + n);
  Matrix c = random_matrix(m, n, 600);
  Matrix want = c;
  reference_gemm(ta, Trans::NoTrans, -1.0, a.view(), b.view(), 1.0,
                 want.view());
  const blas::PackedPanel pa = blas::pack_a(a.view(), ta);
  EXPECT_TRUE(pa.valid());
  EXPECT_EQ(pa.rows(), m);
  EXPECT_EQ(pa.cols(), k);
  blas::gemm_packed(-1.0, pa, Trans::NoTrans, b.view(), 1.0, c.view());
  EXPECT_TRUE(matrices_near(c.view(), want.view(), tol_for(k)))
      << "m=" << m << " n=" << n << " k=" << k << " ta=" << (int)ta;
}

void check_packed_b(idx m, idx n, idx k, Trans tb) {
  const Matrix a = random_matrix(m, k, 700 + m);
  const Matrix b = operand(tb, k, n, 800 + n);
  Matrix c = random_matrix(m, n, 900);
  Matrix want = c;
  reference_gemm(Trans::NoTrans, tb, 1.0, a.view(), b.view(), 1.0,
                 want.view());
  const blas::PackedPanel pb = blas::pack_b(b.view(), tb);
  EXPECT_TRUE(pb.valid());
  EXPECT_EQ(pb.rows(), k);
  EXPECT_EQ(pb.cols(), n);
  blas::gemm_packed(Trans::NoTrans, 1.0, a.view(), pb, 1.0, c.view());
  EXPECT_TRUE(matrices_near(c.view(), want.view(), tol_for(k)))
      << "m=" << m << " n=" << n << " k=" << k << " tb=" << (int)tb;
}

TEST(GemmPacked, MatchesReferenceAcrossBoundaries) {
  for (Trans t : {Trans::NoTrans, Trans::Trans}) {
    for (idx m : {idx{1}, idx{7}, idx{9}, idx{64}, blas::kGemmMC + 1}) {
      check_packed_a(m, 13, 21, t);
    }
    for (idx n : {idx{1}, idx{5}, idx{7}, idx{48}, blas::kGemmNC + 1}) {
      check_packed_b(19, n, 21, t);
    }
    check_packed_a(33, 17, blas::kGemmKC + 1, t);
    check_packed_b(33, 17, blas::kGemmKC + 1, t);
  }
}

// A packed panel reused across column segments must give bit-identical
// results to one-shot gemm on each segment (both run the same blocked
// loop; per-column arithmetic is independent of the n split). This is the
// invariant that lets the schedulers swap plain S tasks for packed ones
// without perturbing pivots.
TEST(GemmPacked, BitIdenticalToGemmOnSegments) {
  const idx m = 300, k = 40, segw = 32, segs = 6;
  const Matrix a = random_matrix(m, k, 21);
  const Matrix b = random_matrix(k, segw * segs, 22);
  Matrix c1 = random_matrix(m, segw * segs, 23);
  Matrix c2 = c1;
  const blas::PackedPanel pa = blas::pack_a(a.view(), Trans::NoTrans);
  for (idx s = 0; s < segs; ++s) {
    blas::gemm(Trans::NoTrans, Trans::NoTrans, -1.0, a.view(),
               b.view().block(0, s * segw, k, segw), 1.0,
               c1.view().block(0, s * segw, m, segw));
    blas::gemm_packed(-1.0, pa, Trans::NoTrans,
                      b.view().block(0, s * segw, k, segw), 1.0,
                      c2.view().block(0, s * segw, m, segw));
  }
  EXPECT_EQ(max_diff(c1.view(), c2.view()), 0.0);
}

// Transposition is absorbed at pack time: packing A and A^T (transposed)
// must produce identical panels.
TEST(GemmPacked, TransAbsorbedAtPackTime) {
  const idx m = 37, k = 21;
  const Matrix a = random_matrix(m, k, 31);
  Matrix at(k, m);
  for (idx j = 0; j < k; ++j) {
    for (idx i = 0; i < m; ++i) at(j, i) = a(i, j);
  }
  const blas::PackedPanel p1 = blas::pack_a(a.view(), Trans::NoTrans);
  const blas::PackedPanel p2 = blas::pack_a(at.view(), Trans::Trans);
  ASSERT_EQ(p1.rows(), p2.rows());
  ASSERT_EQ(p1.cols(), p2.cols());
  const Matrix b = random_matrix(k, 11, 32);
  Matrix c1 = Matrix::zeros(m, 11);
  Matrix c2 = Matrix::zeros(m, 11);
  blas::gemm_packed(1.0, p1, Trans::NoTrans, b.view(), 0.0, c1.view());
  blas::gemm_packed(1.0, p2, Trans::NoTrans, b.view(), 0.0, c2.view());
  EXPECT_EQ(max_diff(c1.view(), c2.view()), 0.0);
}

// A panel holds the whole contraction, kGemmKC-deep block after block, and
// gemm_packed walks it with the blocks gemm uses: over a contraction of
// several blocks, both overloads give gemm's bits, for either storage of
// the packed operand and under every kernel.
TEST(GemmPacked, LongContractionMatchesGemmEveryKernel) {
  const idx m = 300, n = 70, k = 3 * blas::kGemmKC + 100;
  const Matrix a = random_matrix(m, k, 71);
  const Matrix at = operand(Trans::Trans, m, k, 71);
  const Matrix b = random_matrix(k, n, 72);
  const Matrix bt = operand(Trans::Trans, k, n, 73);
  const Matrix c0 = random_matrix(m, n, 74);
  KernelGuard guard;
  for (const std::string& name : runnable_kernels()) {
    ASSERT_TRUE(blas::set_active_kernel(name));
    for (Trans t : {Trans::NoTrans, Trans::Trans}) {
      const Matrix& aop = t == Trans::NoTrans ? a : at;
      const Matrix& bop = t == Trans::NoTrans ? b : bt;
      Matrix want_a = c0;
      blas::gemm(t, Trans::NoTrans, -1.0, aop.view(), b.view(), 0.5,
                 want_a.view());
      Matrix got_a = c0;
      blas::gemm_packed(-1.0, blas::pack_a(aop.view(), t), Trans::NoTrans,
                        b.view(), 0.5, got_a.view());
      EXPECT_EQ(max_diff(got_a.view(), want_a.view()), 0.0)
          << name << " pack_a trans=" << (t == Trans::Trans);
      Matrix want_b = c0;
      blas::gemm(Trans::NoTrans, t, -1.0, a.view(), bop.view(), 0.5,
                 want_b.view());
      Matrix got_b = c0;
      blas::gemm_packed(Trans::NoTrans, -1.0, a.view(),
                        blas::pack_b(bop.view(), t), 0.5, got_b.view());
      EXPECT_EQ(max_diff(got_b.view(), want_b.view()), 0.0)
          << name << " pack_b trans=" << (t == Trans::Trans);
    }
  }
}

// ---- PackedPanel layout --------------------------------------------------

// a_block(0, 0) of a small panel must hold exactly what pack_a_block writes:
// mr-row panels (mr = the panel's recorded register tile), column-major
// within panel, zero padded to mr.
TEST(PackedPanelLayout, MatchesPackABlock) {
  const idx m = 11, k = 5;  // one or two ragged mr panels
  const Matrix a = random_matrix(m, k, 41);
  const blas::PackedPanel p = blas::pack_a(a.view(), Trans::NoTrans);
  const idx mr = p.blocking().mr;
  std::vector<double> want(
      static_cast<std::size_t>(((m + mr - 1) / mr) * mr * k));
  blas::pack_a_block(a.view(), Trans::NoTrans, 0, 0, m, k, mr, want.data());
  const double* got = p.a_block(0, 0);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "offset " << i;
  }
}

TEST(PackedPanelLayout, SixtyFourByteAligned) {
  const blas::PackedPanel pa =
      blas::pack_a(random_matrix(50, 30, 51).view(), Trans::NoTrans);
  const blas::PackedPanel pb =
      blas::pack_b(random_matrix(30, 50, 52).view(), Trans::NoTrans);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(pa.a_block(0, 0)) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(pb.b_block(0, 0)) % 64, 0u);
}

// A panel's depth blocks are kGemmKC deep, the last one ragged: each block
// holds exactly what pack_a_block / pack_b_block write for its depth range,
// on the kernel's register tile.
TEST(PackedPanelLayout, DepthBlocksAreKcDeepEveryKernel) {
  const idx m = 11, n = 7, k = blas::kGemmKC + 5;
  const Matrix a = random_matrix(m, k, 65);
  const Matrix b = random_matrix(k, n, 66);
  KernelGuard guard;
  for (const std::string& name : runnable_kernels()) {
    ASSERT_TRUE(blas::set_active_kernel(name));
    const idx mr = blas::active_kernel().blocking.mr;
    const idx nr = blas::active_kernel().blocking.nr;
    const blas::PackedPanel pa = blas::pack_a(a.view(), Trans::NoTrans);
    const blas::PackedPanel pb = blas::pack_b(b.view(), Trans::NoTrans);
    for (const idx p0 : {idx{0}, blas::kGemmKC}) {
      const idx kc = std::min(blas::kGemmKC, k - p0);
      std::vector<double> want_a(
          static_cast<std::size_t>(((m + mr - 1) / mr) * mr * kc));
      blas::pack_a_block(a.view(), Trans::NoTrans, 0, p0, m, kc, mr,
                         want_a.data());
      std::vector<double> want_b(
          static_cast<std::size_t>(((n + nr - 1) / nr) * nr * kc));
      blas::pack_b_block(b.view(), Trans::NoTrans, p0, 0, kc, n, nr,
                         want_b.data());
      const double* got_a = pa.a_block(0, p0);
      const double* got_b = pb.b_block(p0, 0);
      idx differ = 0;
      for (std::size_t i = 0; i < want_a.size(); ++i) {
        differ += got_a[i] == want_a[i] ? 0 : 1;
      }
      for (std::size_t i = 0; i < want_b.size(); ++i) {
        differ += got_b[i] == want_b[i] ? 0 : 1;
      }
      EXPECT_EQ(differ, 0) << name << " depth block at " << p0;
    }
  }
}

// Each panel records the kernel active when it was packed and that
// kernel's blocking: the fixed MC/KC/NC on the kernel's own register tile.
TEST(PackedPanelLayout, RecordsItsKernelsFixedBlockingEveryKernel) {
  const Matrix a = random_matrix(45, 30, 63);
  const Matrix b = random_matrix(30, 45, 64);
  KernelGuard guard;
  for (const std::string& name : runnable_kernels()) {
    ASSERT_TRUE(blas::set_active_kernel(name));
    const blas::KernelInfo* kernel = &blas::active_kernel();
    const blas::PackedPanel panels[] = {
        blas::pack_a(a.view(), Trans::NoTrans),
        blas::pack_b(b.view(), Trans::NoTrans)};
    for (const blas::PackedPanel& p : panels) {
      EXPECT_EQ(p.kernel(), kernel) << name;
      EXPECT_EQ(p.blocking().mc, blas::kGemmMC) << name;
      EXPECT_EQ(p.blocking().kc, blas::kGemmKC) << name;
      EXPECT_EQ(p.blocking().nc, blas::kGemmNC) << name;
      EXPECT_EQ(p.blocking().mr, kernel->blocking.mr) << name;
      EXPECT_EQ(p.blocking().nr, kernel->blocking.nr) << name;
    }
  }
}

TEST(PackedPanelLayout, EmptyAndMoves) {
  blas::PackedPanel empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.valid());  // 0-sized counts as valid

  blas::PackedPanel p =
      blas::pack_a(random_matrix(20, 10, 61).view(), Trans::NoTrans);
  const double* data = p.a_block(0, 0);
  blas::PackedPanel q = std::move(p);
  EXPECT_EQ(q.a_block(0, 0), data);
  EXPECT_EQ(q.rows(), 20);
  p = std::move(q);
  EXPECT_EQ(p.a_block(0, 0), data);
}

// ---- Scratch pool --------------------------------------------------------

TEST(BufferPool, ReusesSlabs) {
  blas::buffer_pool_trim();
  const auto before = blas::buffer_pool_stats();
  {
    blas::ScratchBuffer b1(1000);
    EXPECT_NE(b1.data(), nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b1.data()) % 64, 0u);
  }
  // Same size again: must come from the pool, not the allocator.
  { blas::ScratchBuffer b2(1000); }
  { blas::ScratchBuffer b3(900); }  // smaller: the cached slab still fits
  const auto after = blas::buffer_pool_stats();
  EXPECT_EQ(after.acquires - before.acquires, 3);
  EXPECT_EQ(after.allocs - before.allocs, 1);
  EXPECT_EQ(after.pool_hits - before.pool_hits, 2);
  blas::buffer_pool_trim();
}

TEST(BufferPool, GemmStopsAllocatingAfterWarmup) {
  blas::buffer_pool_trim();
  const Matrix a = random_matrix(100, 60, 71);
  const Matrix b = random_matrix(60, 80, 72);
  Matrix c = Matrix::zeros(100, 80);
  blas::gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a.view(), b.view(), 0.0,
             c.view());
  const auto warm = blas::buffer_pool_stats();
  for (int r = 0; r < 10; ++r) {
    blas::gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a.view(), b.view(), 0.0,
               c.view());
  }
  const auto after = blas::buffer_pool_stats();
  EXPECT_EQ(after.allocs, warm.allocs)
      << "steady-state gemm must not touch operator new";
  EXPECT_GT(after.pool_hits, warm.pool_hits);
}

TEST(BufferPool, TrimDropsCachedSlabs) {
  blas::buffer_pool_trim();
  { blas::ScratchBuffer b(2048); }
  const auto cached = blas::buffer_pool_stats();
  blas::buffer_pool_trim();
  const auto trimmed = blas::buffer_pool_stats();
  EXPECT_EQ(trimmed.frees - cached.frees, 1);
}

TEST(BufferPool, ZeroSizeIsEmpty) {
  blas::ScratchBuffer b(0);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.data(), nullptr);
}

namespace {

// Regression: ScratchBuffer used from a thread_local destructor AFTER the
// thread's slab pool has itself been destroyed. thread_local objects are
// destroyed in reverse construction order, so an object constructed BEFORE
// the pool outlives it — if its destructor releases a ScratchBuffer (or
// builds a new one), the old code re-entered the dead pool: heap
// use-after-free under ASAN, corruption otherwise. The fix makes pool()
// return nullptr once the owning TLS object is gone; acquire/release then
// fall back to direct aligned new/delete.
struct LateHolder {
  blas::ScratchBuffer stashed;  // released in ~LateHolder, after pool death
  bool* ok = nullptr;
  ~LateHolder() {
    stashed = blas::ScratchBuffer();  // release into the (dead) pool
    blas::ScratchBuffer fresh(256);   // acquire with no pool at all
    *ok = fresh.data() != nullptr;
    fresh.data()[0] = 1.0;
    // Stats/trim must be inert, not crash, once the pool is gone.
    const auto st = blas::buffer_pool_stats();
    (void)st;
    blas::buffer_pool_trim();
  }
};

}  // namespace

TEST(BufferPool, SafeAfterThreadLocalPoolDestroyed) {
  bool late_alloc_ok = false;
  std::thread t([&late_alloc_ok] {
    // Construct the holder FIRST so it is destroyed LAST — i.e. after the
    // pool's own thread_local owner has already run its destructor.
    static thread_local LateHolder holder;
    holder.ok = &late_alloc_ok;
    // Now touch the pool so its thread_local owner is constructed (after
    // holder) and destroyed (before holder) on thread exit.
    blas::ScratchBuffer warm(1024);
    ASSERT_NE(warm.data(), nullptr);
    warm.data()[0] = 2.0;
    holder.stashed = blas::ScratchBuffer(512);
    ASSERT_NE(holder.stashed.data(), nullptr);
  });
  t.join();
  EXPECT_TRUE(late_alloc_ok);
}

}  // namespace
}  // namespace camult
