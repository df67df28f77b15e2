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
//
// The short-product kernel runs the microkernel's 16 x 8 tile on A's
// columns in place, broadcasting B through its row and column strides
// (B or the transpose of a column-major matrix); a row tail is two
// masked loads and stores. The pivot search takes the largest |x| on four
// max chains, then scans for the first element equal to it.
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

// C(0:16, 0:NC) += alpha * A B on one row tile, rows masked by lo and hi:
// the microkernel's accumulators, FMA chain and fused alpha update, with A
// read from its columns (ld lda) instead of a packed block, and B(p, j)
// from b[p * rsb + j * csb].
template <int NC>
void short_tile(idx k, double alpha, const double* __restrict a, idx lda,
                const double* __restrict b, idx rsb, idx csb,
                double* __restrict c, idx ldc, __mmask8 lo, __mmask8 hi) {
  __m512d acc_lo[NC];
  __m512d acc_hi[NC];
  for (int j = 0; j < NC; ++j) {
    acc_lo[j] = _mm512_setzero_pd();
    acc_hi[j] = _mm512_setzero_pd();
  }
  for (idx p = 0; p < k; ++p) {
    const double* ap = a + p * lda;
    const __m512d a0 = _mm512_maskz_loadu_pd(lo, ap);
    const __m512d a1 = _mm512_maskz_loadu_pd(hi, ap + 8);
    for (int j = 0; j < NC; ++j) {
      const __m512d bv = _mm512_set1_pd(b[p * rsb + j * csb]);
      acc_lo[j] = _mm512_fmadd_pd(a0, bv, acc_lo[j]);
      acc_hi[j] = _mm512_fmadd_pd(a1, bv, acc_hi[j]);
    }
  }
  const __m512d va = _mm512_set1_pd(alpha);
  // Unrolled, or GCC 12 keeps the accumulators in memory through the p
  // loop above: one store per FMA.
#pragma GCC unroll 8
  for (int j = 0; j < NC; ++j) {
    double* cc = c + j * ldc;
    _mm512_mask_storeu_pd(
        cc, lo, _mm512_fmadd_pd(va, acc_lo[j], _mm512_maskz_loadu_pd(lo, cc)));
    _mm512_mask_storeu_pd(cc + 8, hi,
                          _mm512_fmadd_pd(va, acc_hi[j],
                                          _mm512_maskz_loadu_pd(hi, cc + 8)));
  }
}

using ShortTileFn = void (*)(idx, double, const double*, idx, const double*,
                             idx, idx, double*, idx, __mmask8, __mmask8);

constexpr ShortTileFn kShortTiles[NR] = {
    short_tile<1>, short_tile<2>, short_tile<3>, short_tile<4>,
    short_tile<5>, short_tile<6>, short_tile<7>, short_tile<8>};

// Row tiles outer: a tile's k columns of A stay in L1 across the strips.
void short_product_avx512(idx m, idx n, idx k, double alpha, const double* a,
                          idx lda, const double* b, idx rsb, idx csb,
                          double* c, idx ldc) {
  for (idx i = 0; i < m; i += MR) {
    const idx r = std::min<idx>(MR, m - i);
    const auto lo = static_cast<__mmask8>(r >= 8 ? 0xffu : (1u << r) - 1u);
    const auto hi =
        static_cast<__mmask8>(r >= MR ? 0xffu : r > 8 ? (1u << (r - 8)) - 1u : 0u);
    for (idx j = 0; j < n; j += NR) {
      kShortTiles[std::min<idx>(NR, n - j) - 1](k, alpha, a + i, lda,
                                                b + j * csb, rsb, csb,
                                                c + i + j * ldc, ldc, lo, hi);
    }
  }
}

// vmaxpd: the second operand when either is NaN. Spelled with a full
// mask for the same GCC 12 warning as reduce_add.
__m512d max_pd(__m512d a, __m512d b) { return _mm512_maskz_max_pd(0xff, a, b); }

double reduce_max(__m512d v) {
  const __mmask8 all = 0xff;
  const __m512d s4 = max_pd(v, _mm512_maskz_shuffle_f64x2(all, v, v, 0x4e));
  const __m512d s2 = max_pd(s4, _mm512_maskz_shuffle_f64x2(all, s4, s4, 0xb1));
  const __m512d s1 = max_pd(s2, _mm512_maskz_permute_pd(all, s2, 0x55));
  return _mm512_cvtsd_f64(s1);
}

// max_pd(|x|, m) never lets a NaN into m. The chains start at 0, which the
// non-NaN x[0] already reaches, and the tail's masked-out lanes load as 0.
idx iamax_avx512(idx n, const double* x) {
  __m512d m0 = _mm512_setzero_pd();
  __m512d m1 = m0;
  __m512d m2 = m0;
  __m512d m3 = m0;
  idx i = 0;
  for (; i + 32 <= n; i += 32) {
    m0 = max_pd(_mm512_abs_pd(_mm512_loadu_pd(x + i)), m0);
    m1 = max_pd(_mm512_abs_pd(_mm512_loadu_pd(x + i + 8)), m1);
    m2 = max_pd(_mm512_abs_pd(_mm512_loadu_pd(x + i + 16)), m2);
    m3 = max_pd(_mm512_abs_pd(_mm512_loadu_pd(x + i + 24)), m3);
  }
  for (; i + 8 <= n; i += 8) {
    m0 = max_pd(_mm512_abs_pd(_mm512_loadu_pd(x + i)), m0);
  }
  const auto tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
  m1 = max_pd(_mm512_abs_pd(_mm512_maskz_loadu_pd(tail, x + i)), m1);
  const __m512d top = _mm512_set1_pd(
      reduce_max(max_pd(max_pd(m0, m1), max_pd(m2, m3))));
  for (i = 0; i + 8 <= n; i += 8) {
    const __mmask8 eq = _mm512_cmp_pd_mask(
        _mm512_abs_pd(_mm512_loadu_pd(x + i)), top, _CMP_EQ_OQ);
    if (eq != 0) return i + __builtin_ctz(eq);
  }
  const __mmask8 eq = _mm512_mask_cmp_pd_mask(
      tail, _mm512_abs_pd(_mm512_maskz_loadu_pd(tail, x + i)), top,
      _CMP_EQ_OQ);
  return i + __builtin_ctz(eq);
}

}  // namespace

namespace detail {

KernelInfo make_avx512_kernel() {
  KernelInfo k;
  k.name = "avx512";
  k.fn = &microkernel_avx512;
  k.dot = &inner_product_avx512;
  k.short_product = &short_product_avx512;
  k.iamax = &iamax_avx512;
  k.blocking = fixed_blocking<MR, NR>();
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
  k.short_product = nullptr;
  k.iamax = nullptr;
  k.blocking = fixed_blocking<16, 8>();
  k.compiled = false;
  k.supported = false;
  return k;
}

}  // namespace camult::blas::detail

#endif
