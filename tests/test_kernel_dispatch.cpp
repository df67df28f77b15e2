// Runtime microkernel dispatch: registry/cpuid selection sanity and each
// variant's fixed blocking, forced selection via set_active_kernel,
// fringe-exhaustive full-vs-fringe bit parity for EVERY registered kernel
// (each mr_eff/nr_eff remainder, several alphas), direct microkernel calls
// on exactly-sized buffers (out-of-bounds reads fault under the sanitizer
// leg), cross-kernel agreement on gemm, and the cross-kernel determinism
// suite under each forced variant: adversarial CALU/CAQR backward-error
// bounds, packed-vs-one-shot trailing-update bitwise parity, concurrent
// gemm against the serial bits, and packed panels used after a kernel
// switch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "blas/blas.hpp"
#include "common/test_utils.hpp"
#include "core/calu.hpp"
#include "core/caqr.hpp"
#include "lapack/lapack.hpp"
#include "matrix/random.hpp"

namespace camult {
namespace {

using blas::KernelInfo;
using blas::Trans;
using camult::test::KernelGuard;
using camult::test::kResidualThreshold;

std::vector<const KernelInfo*> supported_kernels() {
  std::vector<const KernelInfo*> out;
  for (const KernelInfo& k : blas::kernel_registry()) {
    if (k.supported) out.push_back(&k);
  }
  return out;
}

TEST(KernelRegistry, ScalarAlwaysPresentAndSupported) {
  const auto& reg = blas::kernel_registry();
  ASSERT_FALSE(reg.empty());
  bool found_scalar = false;
  for (const KernelInfo& k : reg) {
    if (std::string(k.name) == "scalar") {
      found_scalar = true;
      EXPECT_TRUE(k.compiled);
      EXPECT_TRUE(k.supported);
    }
    if (k.compiled) {
      EXPECT_NE(k.fn, nullptr) << k.name;
      EXPECT_NE(k.dot, nullptr) << k.name;
      EXPECT_NE(k.short_product, nullptr) << k.name;
      EXPECT_NE(k.iamax, nullptr) << k.name;
    }
    if (k.supported) {
      EXPECT_TRUE(k.compiled) << k.name;
    }
    // One cache blocking for every variant; only the register tile differs.
    EXPECT_EQ(k.blocking.mc, blas::kGemmMC) << k.name;
    EXPECT_EQ(k.blocking.kc, blas::kGemmKC) << k.name;
    EXPECT_EQ(k.blocking.nc, blas::kGemmNC) << k.name;
    // Unique names.
    int count = 0;
    for (const KernelInfo& o : reg) {
      if (std::string(o.name) == k.name) ++count;
    }
    EXPECT_EQ(count, 1) << k.name;
  }
  EXPECT_TRUE(found_scalar);
  // Whatever cpuid picked must be runnable.
  EXPECT_TRUE(blas::active_kernel().supported);
  EXPECT_NE(blas::active_kernel().fn, nullptr);
}

TEST(KernelRegistry, ForcedSelectionAndTypoSafety) {
  KernelGuard guard;
  const std::string before = blas::active_kernel().name;
  // Unknown names are refused and change nothing.
  EXPECT_FALSE(blas::set_active_kernel("avx1024"));
  EXPECT_FALSE(blas::set_active_kernel("Scalar"));  // case-sensitive
  EXPECT_EQ(std::string(blas::active_kernel().name), before);
  // Every supported kernel can be forced; unsupported ones cannot.
  for (const KernelInfo& k : blas::kernel_registry()) {
    if (k.supported) {
      EXPECT_TRUE(blas::set_active_kernel(k.name)) << k.name;
      EXPECT_EQ(std::string(blas::active_kernel().name), k.name);
    } else {
      EXPECT_FALSE(blas::set_active_kernel(k.name)) << k.name;
    }
  }
  // "" and "auto" both restore cpuid selection.
  EXPECT_TRUE(blas::set_active_kernel("auto"));
  EXPECT_EQ(std::string(blas::active_kernel().name), before);
}

// Every registered variant carries the fixed cache blocking on a tile that
// divides it, and holds a short-product contraction in one kc block (the
// short path's bit identity with the packed path needs that).
TEST(KernelRegistry, TilesDivideTheFixedCacheBlocks) {
  for (const KernelInfo& k : blas::kernel_registry()) {
    const blas::GemmBlocking& blk = k.blocking;
    EXPECT_GT(blk.mr, 0) << k.name;
    EXPECT_GT(blk.nr, 0) << k.name;
    EXPECT_EQ(blk.mc % blk.mr, 0) << k.name;
    EXPECT_EQ(blk.nc % blk.nr, 0) << k.name;
    EXPECT_GE(blk.kc, blas::kShortMaxDepth) << k.name;
    // The packing slabs stay a few MiB.
    EXPECT_LE(blk.mc * blk.kc, idx{1} << 22) << k.name;
    EXPECT_LE(blk.kc * blk.nc, idx{1} << 22) << k.name;
  }
}

// ---- fringe-exhaustive full-vs-fringe bit parity -----------------------
//
// The same valid C rows/cols must get bit-identical results whether the
// microkernel handles them as a full MR x NR tile (problem padded with
// zeros to tile multiples) or as a fringe tile (mr_eff/nr_eff < MR/NR).
// This pins the kernels' store-path contract: the fringe spill must round
// exactly like the vectorized full-tile alpha-update (fused multiply-add
// in both, see kernel_avx2.cpp), for every remainder and several alphas.
TEST(KernelFringeParity, EveryRemainderEveryKernelBitExact) {
  KernelGuard guard;
  const idx k = 96;  // > small-gemm cutoff even at the smallest m, n
  for (const KernelInfo* kern : supported_kernels()) {
    ASSERT_TRUE(blas::set_active_kernel(kern->name));
    const idx mr = kern->blocking.mr;
    const idx nr = kern->blocking.nr;
    for (idx dm = 0; dm < mr; ++dm) {
      for (idx dn = 0; dn < nr; ++dn) {
        const idx m = mr + dm;  // dm == 0: pure full tiles (control)
        const idx n = nr + dn;
        const idx mpad = ((m + mr - 1) / mr) * mr;
        const idx npad = ((n + nr - 1) / nr) * nr;
        const Matrix a = random_matrix(m, k, 600 + dm * 64 + dn);
        const Matrix b = random_matrix(k, n, 700 + dm * 64 + dn);
        const Matrix c0 = random_matrix(m, n, 800 + dm * 64 + dn);
        Matrix apad = Matrix::zeros(mpad, k);
        Matrix bpad = Matrix::zeros(k, npad);
        for (idx j = 0; j < k; ++j) {
          for (idx i = 0; i < m; ++i) apad(i, j) = a(i, j);
        }
        for (idx j = 0; j < n; ++j) {
          for (idx i = 0; i < k; ++i) bpad(i, j) = b(i, j);
        }
        for (const double alpha : {1.0, -1.0, 0.5}) {
          Matrix c_fringe = c0;
          blas::gemm(Trans::NoTrans, Trans::NoTrans, alpha, a.view(),
                     b.view(), 1.0, c_fringe.view());
          Matrix cpad = Matrix::zeros(mpad, npad);
          for (idx j = 0; j < n; ++j) {
            for (idx i = 0; i < m; ++i) cpad(i, j) = c0(i, j);
          }
          blas::gemm(Trans::NoTrans, Trans::NoTrans, alpha, apad.view(),
                     bpad.view(), 1.0, cpad.view());
          for (idx j = 0; j < n; ++j) {
            for (idx i = 0; i < m; ++i) {
              ASSERT_EQ(c_fringe(i, j), cpad(i, j))
                  << kern->name << " m=" << m << " n=" << n
                  << " alpha=" << alpha << " at (" << i << ", " << j << ")";
            }
          }
        }
      }
    }
  }
}

// ---- direct microkernel calls on exactly-sized buffers -----------------
//
// Packed operands sized to exactly ceil(mr_eff/MR)*MR*kc and NR*kc doubles,
// C sized to exactly mr_eff x nr_eff with ldc == mr_eff: any microkernel
// read or write past its contract is an out-of-bounds access the ASAN CI
// leg turns into a hard failure. Values are checked against a plain
// reference too (tolerance: the kernels may contract multiply-add).
TEST(KernelDirectCall, ExactBuffersAllRemaindersAllAlphas) {
  KernelGuard guard;
  for (const KernelInfo* kern : supported_kernels()) {
    ASSERT_TRUE(blas::set_active_kernel(kern->name));
    const idx mr = kern->blocking.mr;
    const idx nr = kern->blocking.nr;
    for (const idx kc : {idx{1}, idx{5}, idx{96}}) {
      for (idx mr_eff = 1; mr_eff <= mr; ++mr_eff) {
        for (idx nr_eff = 1; nr_eff <= nr; ++nr_eff) {
          const Matrix a = random_matrix(mr_eff, kc, 900 + mr_eff);
          const Matrix b = random_matrix(kc, nr_eff, 910 + nr_eff);
          std::vector<double> ap(static_cast<std::size_t>(mr * kc));
          std::vector<double> bp(static_cast<std::size_t>(nr * kc));
          blas::pack_a_block(a.view(), Trans::NoTrans, 0, 0, mr_eff, kc, mr,
                             ap.data());
          blas::pack_b_block(b.view(), Trans::NoTrans, 0, 0, kc, nr_eff, nr,
                             bp.data());
          for (const double alpha : {0.0, 1.0, -1.0, 0.5}) {
            const Matrix c0 = random_matrix(mr_eff, nr_eff, 920);
            Matrix c = c0;
            kern->fn(kc, alpha, ap.data(), bp.data(), c.data(), mr_eff,
                     mr_eff, nr_eff);
            for (idx j = 0; j < nr_eff; ++j) {
              for (idx i = 0; i < mr_eff; ++i) {
                double acc = 0.0;
                for (idx p = 0; p < kc; ++p) acc += a(i, p) * b(p, j);
                const double want = c0(i, j) + alpha * acc;
                const double tol =
                    1e-13 * std::max(1.0, std::abs(want)) *
                    static_cast<double>(kc);
                ASSERT_NEAR(c(i, j), want, tol)
                    << kern->name << " kc=" << kc << " mr_eff=" << mr_eff
                    << " nr_eff=" << nr_eff << " alpha=" << alpha;
              }
            }
          }
        }
      }
    }
  }
}

// ---- cross-kernel agreement on gemm ------------------------------------

TEST(KernelCross, AllVariantsAgreeToRounding) {
  KernelGuard guard;
  const idx m = 150, n = 130, k = 170;
  const Matrix a = random_matrix(m, k, 1200);
  const Matrix b = random_matrix(k, n, 1201);
  const Matrix c0 = random_matrix(m, n, 1202);

  ASSERT_TRUE(blas::set_active_kernel("scalar"));
  Matrix c_ref = c0;
  blas::gemm(Trans::NoTrans, Trans::NoTrans, -1.0, a.view(), b.view(), 1.0,
             c_ref.view());
  for (const KernelInfo* kern : supported_kernels()) {
    ASSERT_TRUE(blas::set_active_kernel(kern->name));
    Matrix c = c0;
    blas::gemm(Trans::NoTrans, Trans::NoTrans, -1.0, a.view(), b.view(), 1.0,
               c.view());
    EXPECT_TRUE(camult::test::matrices_near(c.view(), c_ref.view(), 1e-12))
        << kern->name;
  }
}

// ---- cross-kernel determinism on the full factorizations ---------------
//
// Per forced variant: adversarial ensembles (Wilkinson growth,
// near-singular, duplicate rows, rank-deficient, badly scaled) must meet
// the CALU/CAQR backward-error bounds, and the pack-once trailing update
// must stay bitwise identical to one-shot gemm (the packed panels run the
// same kernel gemm dispatches to).
class KernelSweep : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    bool supported = false;
    for (const KernelInfo* k : supported_kernels()) {
      if (std::string(k->name) == GetParam()) supported = true;
    }
    if (!supported) {
      GTEST_SKIP() << GetParam() << " not runnable on this host";
    }
    ASSERT_TRUE(blas::set_active_kernel(GetParam()));
  }
  void TearDown() override { blas::set_active_kernel(""); }
};

TEST_P(KernelSweep, CaluAdversarialBackwardError) {
  for (const auto& c : camult::test::adversarial_cases(120, 60, 1301)) {
    Matrix lu = c.a;
    core::CaluOptions opts;
    opts.b = 20;
    opts.tr = 4;
    opts.num_threads = 4;
    core::CaluResult res = core::calu_factor(lu.view(), opts);
    if (!c.singular) {
      EXPECT_EQ(res.info, 0) << GetParam() << " " << c.name;
    }
    EXPECT_LT(lapack::lu_residual(c.a.view(), lu.view(), res.ipiv),
              kResidualThreshold)
        << GetParam() << " " << c.name;
  }
}

TEST_P(KernelSweep, CaqrAdversarialBackwardError) {
  for (const auto& c : camult::test::adversarial_cases(120, 60, 1303)) {
    Matrix fact = c.a;
    core::CaqrOptions opts;
    opts.b = 20;
    opts.tr = 4;
    opts.num_threads = 4;
    core::CaqrResult res = core::caqr_factor(fact.view(), opts);
    EXPECT_LT(core::caqr_residual(c.a.view(), fact.view(), res),
              kResidualThreshold)
        << GetParam() << " " << c.name;
  }
}

TEST_P(KernelSweep, PackedTrailingUpdateBitwiseParity) {
  // The CALU S task packs the L block once (pack_a) and runs gemm_packed
  // over every trailing column block. On adversarial data that must equal a
  // one-shot gemm per block bit for bit, so the factors do not depend on
  // whether a block was packed. b must keep each update above the
  // small-gemm cutoff (16^3 flops): below it, plain gemm takes the direct
  // triple-loop path and sums in a different order. 24^3 > 16^3.
  const idx b = 24;
  for (const auto& c : camult::test::adversarial_cases(144, 48, 1305)) {
    const idx m = c.a.rows() - b;
    const idx n = c.a.cols() - b;
    const ConstMatrixView l = c.a.view().block(b, 0, m, b);
    const ConstMatrixView u = c.a.view().block(0, b, b, n);
    Matrix packed = Matrix::from(c.a.view().block(b, b, m, n));
    Matrix plain = packed;
    const blas::PackedPanel lpack = blas::pack_a(l, Trans::NoTrans);
    for (idx j = 0; j < n; j += b) {
      const idx w = std::min(b, n - j);
      blas::gemm_packed(-1.0, lpack, Trans::NoTrans, u.block(0, j, b, w), 1.0,
                        packed.view().block(0, j, m, w));
      blas::gemm(Trans::NoTrans, Trans::NoTrans, -1.0, l, u.block(0, j, b, w),
                 1.0, plain.view().block(0, j, m, w));
    }
    EXPECT_EQ(camult::test::max_diff(packed.view(), plain.view()), 0.0)
        << GetParam() << " " << c.name;
  }
}

TEST_P(KernelSweep, ConcurrentGemmKeepsSerialBits) {
  // gemm, pack_a and pack_b take the blocking from the kernel they run
  // on, with no lock or shared table on the way. Threads multiplying their
  // own operands at once (gemm, and gemm_packed over either packed side)
  // must each get the serial results, bit for bit.
  constexpr int kThreads = 4;
  const idx m = 210, n = 90, k = 2 * blas::kGemmKC + 40;
  struct Work {
    Matrix a, b, c0;
    std::vector<Matrix> out;
  };
  auto run = [&](Work& w) {
    w.out.assign(3, w.c0);
    blas::gemm(Trans::NoTrans, Trans::NoTrans, -1.0, w.a.view(), w.b.view(),
               1.0, w.out[0].view());
    blas::gemm_packed(-1.0, blas::pack_a(w.a.view(), Trans::NoTrans),
                      Trans::NoTrans, w.b.view(), 1.0, w.out[1].view());
    blas::gemm_packed(Trans::NoTrans, -1.0, w.a.view(),
                      blas::pack_b(w.b.view(), Trans::NoTrans), 1.0,
                      w.out[2].view());
  };
  std::vector<Work> serial(kThreads), threaded(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    const std::uint64_t seed = 1400 + 3 * static_cast<std::uint64_t>(t);
    serial[t] = {random_matrix(m, k, seed), random_matrix(k, n, seed + 1),
                 random_matrix(m, n, seed + 2), {}};
    threaded[t] = serial[t];
    run(serial[t]);
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&run, &threaded, t]() { run(threaded[t]); });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(camult::test::max_diff(threaded[t].out[r].view(),
                                       serial[t].out[r].view()),
                0.0)
          << GetParam() << " thread " << t << " result " << r;
    }
  }
}

TEST_P(KernelSweep, PackedPanelOutlivesKernelSwitch) {
  // A panel keeps the kernel and blocking it was packed with: whichever
  // variant is active when gemm_packed runs, the product is the packing
  // kernel's, bit for bit.
  const idx m = 300, n = 64, k = blas::kGemmKC + 200;
  const Matrix a = random_matrix(m, k, 1451);
  const Matrix b = random_matrix(k, n, 1452);
  const Matrix c0 = random_matrix(m, n, 1453);
  Matrix want = c0;
  blas::gemm(Trans::NoTrans, Trans::NoTrans, -1.0, a.view(), b.view(), 1.0,
             want.view());
  const KernelInfo* packed_with = &blas::active_kernel();
  const blas::PackedPanel pa = blas::pack_a(a.view(), Trans::NoTrans);
  const blas::PackedPanel pb = blas::pack_b(b.view(), Trans::NoTrans);
  for (const KernelInfo* other : supported_kernels()) {
    ASSERT_TRUE(blas::set_active_kernel(other->name));
    Matrix got_a = c0;
    blas::gemm_packed(-1.0, pa, Trans::NoTrans, b.view(), 1.0, got_a.view());
    Matrix got_b = c0;
    blas::gemm_packed(Trans::NoTrans, -1.0, a.view(), pb, 1.0, got_b.view());
    EXPECT_EQ(pa.kernel(), packed_with) << other->name;
    EXPECT_EQ(pb.kernel(), packed_with) << other->name;
    EXPECT_EQ(camult::test::max_diff(got_a.view(), want.view()), 0.0)
        << GetParam() << " panel used under " << other->name;
    EXPECT_EQ(camult::test::max_diff(got_b.view(), want.view()), 0.0)
        << GetParam() << " panel used under " << other->name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelSweep,
                         ::testing::Values("scalar", "avx2", "avx512"));

}  // namespace
}  // namespace camult
