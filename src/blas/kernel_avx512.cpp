// kernel_avx512.cpp — hand-vectorized 16 x 8 AVX-512F microkernel. Compiled
// with -mavx512f (per-file flag, see src/blas/CMakeLists.txt); only the
// dispatcher may call it, after __builtin_cpu_supports("avx512f").
//
// Register budget: 16 zmm accumulators (2 per column x 8 columns) + 2 A
// loads + 1 B broadcast + 1 alpha = 20 of 32 — wide enough to hide the
// 4-cycle FMA latency on both ports, with room left for the loads.
// The wider 16-row tile doubles flops per packed-B byte relative to the
// 8 x 6 AVX2 tile (Demmel's communication argument applied to registers).
//
// The inner-product kernel covers C with 6 x 4 tiles: one zmm accumulator
// per C element, 24 independent FMA chains, 10 loads per 24 FMAs (loads,
// not FMAs, bound it when the columns are not 64-byte aligned). The
// contraction tail is a masked load, so no lane reads past a column.
#include "blas/kernel_impl.hpp"

#if defined(__AVX512F__)
#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace camult::blas {
namespace {

constexpr idx MR = 16;
constexpr idx NR = 8;

void microkernel_avx512(idx kc, double alpha, const double* __restrict ap,
                        const double* __restrict bp, double* __restrict c,
                        idx ldc, idx mr_eff, idx nr_eff) {
  __m512d acc_lo[NR];
  __m512d acc_hi[NR];
  for (int j = 0; j < NR; ++j) {
    acc_lo[j] = _mm512_setzero_pd();
    acc_hi[j] = _mm512_setzero_pd();
  }
  for (idx p = 0; p < kc; ++p) {
    const __m512d a0 = _mm512_loadu_pd(ap + p * MR);
    const __m512d a1 = _mm512_loadu_pd(ap + p * MR + 8);
    const double* b = bp + p * NR;
    for (int j = 0; j < NR; ++j) {
      const __m512d bv = _mm512_set1_pd(b[j]);
      acc_lo[j] = _mm512_fmadd_pd(a0, bv, acc_lo[j]);
      acc_hi[j] = _mm512_fmadd_pd(a1, bv, acc_hi[j]);
    }
  }
  if (mr_eff == MR && nr_eff == NR) {
    const __m512d va = _mm512_set1_pd(alpha);
    for (int j = 0; j < NR; ++j) {
      double* cc = c + j * ldc;
      _mm512_storeu_pd(cc, _mm512_fmadd_pd(va, acc_lo[j],
                                           _mm512_loadu_pd(cc)));
      _mm512_storeu_pd(cc + 8, _mm512_fmadd_pd(va, acc_hi[j],
                                               _mm512_loadu_pd(cc + 8)));
    }
  } else {
    alignas(64) double acc[MR * NR];
    for (int j = 0; j < NR; ++j) {
      _mm512_store_pd(acc + j * MR, acc_lo[j]);
      _mm512_store_pd(acc + j * MR + 8, acc_hi[j]);
    }
    // Fused like the vector path above — see the AVX2 kernel for why.
    for (idx cj = 0; cj < nr_eff; ++cj) {
      double* cc = c + cj * ldc;
      const double* accc = acc + cj * MR;
      for (idx ri = 0; ri < mr_eff; ++ri) {
        cc[ri] = std::fma(alpha, accc[ri], cc[ri]);
      }
    }
  }
}

constexpr int kIpRows = 6;
constexpr int kIpCols = 4;

// Sum of the 8 lanes: halves, then quarters, then pairs. Spelled out with
// full-mask maskz shuffles because GCC 12's unmasked AVX-512 shuffles (and
// so _mm512_reduce_add_pd) warn -Wuninitialized.
double reduce_add(__m512d v) {
  const __mmask8 all = 0xff;
  const __m512d s4 =
      _mm512_add_pd(v, _mm512_maskz_shuffle_f64x2(all, v, v, 0x4e));
  const __m512d s2 =
      _mm512_add_pd(s4, _mm512_maskz_shuffle_f64x2(all, s4, s4, 0xb1));
  const __m512d s1 =
      _mm512_add_pd(s2, _mm512_maskz_permute_pd(all, s2, 0x55));
  return _mm512_cvtsd_f64(s1);
}

// C(0:RI, 0:RJ) += alpha * A^T B for one register tile. Every element runs
// the same sequence (8-lane FMAs, one masked tail, reduce, one fused
// update), whatever the tile's shape.
template <int RI, int RJ>
void inner_tile(idx k, double alpha, const double* __restrict a, idx lda,
                const double* __restrict b, idx ldb, double* __restrict c,
                idx ldc) {
  __m512d acc[RI][RJ];
  for (int i = 0; i < RI; ++i) {
    for (int j = 0; j < RJ; ++j) acc[i][j] = _mm512_setzero_pd();
  }
  const idx kv = k & ~idx{7};
  for (idx p = 0; p < kv; p += 8) {
    __m512d bv[RJ];
    for (int j = 0; j < RJ; ++j) bv[j] = _mm512_loadu_pd(b + j * ldb + p);
    for (int i = 0; i < RI; ++i) {
      const __m512d av = _mm512_loadu_pd(a + i * lda + p);
      for (int j = 0; j < RJ; ++j) {
        acc[i][j] = _mm512_fmadd_pd(av, bv[j], acc[i][j]);
      }
    }
  }
  if (kv < k) {
    const auto tail = static_cast<__mmask8>((1u << (k - kv)) - 1u);
    __m512d bv[RJ];
    for (int j = 0; j < RJ; ++j) {
      bv[j] = _mm512_maskz_loadu_pd(tail, b + j * ldb + kv);
    }
    for (int i = 0; i < RI; ++i) {
      const __m512d av = _mm512_maskz_loadu_pd(tail, a + i * lda + kv);
      for (int j = 0; j < RJ; ++j) {
        acc[i][j] = _mm512_fmadd_pd(av, bv[j], acc[i][j]);
      }
    }
  }
  for (int j = 0; j < RJ; ++j) {
    for (int i = 0; i < RI; ++i) {
      double& cij = c[i + j * ldc];
      cij = std::fma(alpha, reduce_add(acc[i][j]), cij);
    }
  }
}

using InnerTileFn = void (*)(idx, double, const double*, idx, const double*,
                             idx, double*, idx);

constexpr InnerTileFn kInnerTiles[kIpRows][kIpCols] = {
    {inner_tile<1, 1>, inner_tile<1, 2>, inner_tile<1, 3>, inner_tile<1, 4>},
    {inner_tile<2, 1>, inner_tile<2, 2>, inner_tile<2, 3>, inner_tile<2, 4>},
    {inner_tile<3, 1>, inner_tile<3, 2>, inner_tile<3, 3>, inner_tile<3, 4>},
    {inner_tile<4, 1>, inner_tile<4, 2>, inner_tile<4, 3>, inner_tile<4, 4>},
    {inner_tile<5, 1>, inner_tile<5, 2>, inner_tile<5, 3>, inner_tile<5, 4>},
    {inner_tile<6, 1>, inner_tile<6, 2>, inner_tile<6, 3>, inner_tile<6, 4>}};

// Column strips outer: a strip's B columns stay in L1 while A streams.
void inner_product_avx512(idx m, idx n, idx k, double alpha, const double* a,
                          idx lda, const double* b, idx ldb, double* c,
                          idx ldc) {
  for (idx j = 0; j < n; j += kIpCols) {
    const idx rj = std::min<idx>(kIpCols, n - j);
    for (idx i = 0; i < m; i += kIpRows) {
      const idx ri = std::min<idx>(kIpRows, m - i);
      kInnerTiles[ri - 1][rj - 1](k, alpha, a + i * lda, lda, b + j * ldb,
                                  ldb, c + i + j * ldc, ldc);
    }
  }
}

}  // namespace

namespace detail {

KernelInfo make_avx512_kernel() {
  KernelInfo k;
  k.name = "avx512";
  k.fn = &microkernel_avx512;
  k.dot = &inner_product_avx512;
  // MC stays a multiple of MR=16 and NC of NR=8; same L2/L3 targets as the
  // narrower kernels so the slab-pool footprint is unchanged by dispatch.
  k.blocking = {/*mc=*/192, /*kc=*/256, /*nc=*/768, MR, NR};
  k.compiled = true;
  k.supported = false;  // dispatcher decides from cpuid
  return k;
}

}  // namespace detail
}  // namespace camult::blas

#else  // toolchain could not build AVX-512: register a stub

namespace camult::blas::detail {

KernelInfo make_avx512_kernel() {
  KernelInfo k;
  k.name = "avx512";
  k.fn = nullptr;
  k.dot = nullptr;
  k.blocking = {192, 256, 768, 16, 8};
  k.compiled = false;
  k.supported = false;
  return k;
}

}  // namespace camult::blas::detail

#endif
