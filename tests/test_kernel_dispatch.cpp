// Runtime microkernel dispatch: registry/cpuid selection sanity, forced
// selection via set_active_kernel, fringe-exhaustive full-vs-fringe bit
// parity for EVERY registered kernel (each mr_eff/nr_eff remainder, several
// alphas), direct microkernel calls on exactly-sized buffers (out-of-bounds
// reads fault under the sanitizer leg), cross-kernel agreement on gemm, and
// the cross-kernel determinism suite: adversarial CALU/CAQR backward-error
// bounds plus packed-vs-one-shot trailing-update bitwise parity under each
// forced variant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "blas/blas.hpp"
#include "common/test_utils.hpp"
#include "core/calu.hpp"
#include "core/caqr.hpp"
#include "lapack/lapack.hpp"
#include "matrix/random.hpp"

namespace camult {
namespace {

using blas::GemmBlocking;
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
    EXPECT_TRUE(blas::valid_blocking(k.blocking)) << k.name;
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

TEST(KernelRegistry, ArchIdStable) {
  EXPECT_FALSE(blas::arch_id().empty());
  EXPECT_EQ(blas::arch_id(), blas::arch_id());
}

TEST(KernelRegistry, ValidBlockingRejectsBadShapes) {
  EXPECT_TRUE(blas::valid_blocking({192, 256, 768, 8, 6}));
  EXPECT_FALSE(blas::valid_blocking({0, 256, 768, 8, 6}));
  EXPECT_FALSE(blas::valid_blocking({192, 0, 768, 8, 6}));
  EXPECT_FALSE(blas::valid_blocking({192, 256, 768, 0, 6}));
  EXPECT_FALSE(blas::valid_blocking({190, 256, 768, 8, 6}));   // mc % mr
  EXPECT_FALSE(blas::valid_blocking({192, 256, 769, 8, 6}));   // nc % nr
  EXPECT_FALSE(blas::valid_blocking({-192, 256, 768, 8, 6}));
  // Slab bound: mc*kc and kc*nc limited to 2^22 doubles.
  EXPECT_FALSE(blas::valid_blocking({1 << 16, 1 << 16, 768, 8, 6}));
  EXPECT_FALSE(blas::valid_blocking({192, 1 << 16, 6 << 12, 8, 6}));
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

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelSweep,
                         ::testing::Values("scalar", "avx2", "avx512"));

}  // namespace
}  // namespace camult
