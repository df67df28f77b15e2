// kernel_avx2.cpp — hand-vectorized 8 x 6 AVX2/FMA microkernel. This TU is
// compiled with -mavx2 -mfma regardless of the project's global arch flags
// (see src/blas/CMakeLists.txt); nothing here may run unless the dispatcher
// checked __builtin_cpu_supports("avx2")/("fma") first.
//
// 12 independent ymm accumulators (2 per column) keep the FMA pipelines
// saturated — compilers reliably fail to get this register allocation right
// from the scalar loop.
//
// The inner-product kernel covers C with 3 x 3 tiles: one ymm accumulator
// per C element, 9 FMA chains plus 3 B and 1 A register of the 16. The
// contraction tail is a masked load, so no lane reads past a column.
//
// The short-product kernel runs the microkernel's 8 x 6 tile on A's
// columns in place, broadcasting B through its row and column strides
// (B or the transpose of a column-major matrix); a row tail is two
// masked loads and stores. The pivot search takes the largest |x| on four
// max chains, then scans for the first element equal to it.
#include "blas/kernel_impl.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace camult::blas {
namespace {

constexpr idx MR = 8;
constexpr idx NR = 6;

void microkernel_avx2(idx kc, double alpha, const double* __restrict ap,
                      const double* __restrict bp, double* __restrict c,
                      idx ldc, idx mr_eff, idx nr_eff) {
  __m256d acc_lo[NR];
  __m256d acc_hi[NR];
  for (int j = 0; j < NR; ++j) {
    acc_lo[j] = _mm256_setzero_pd();
    acc_hi[j] = _mm256_setzero_pd();
  }
  for (idx p = 0; p < kc; ++p) {
    const __m256d a0 = _mm256_loadu_pd(ap + p * MR);
    const __m256d a1 = _mm256_loadu_pd(ap + p * MR + 4);
    const double* b = bp + p * NR;
    for (int j = 0; j < NR; ++j) {
      const __m256d bv = _mm256_broadcast_sd(b + j);
      acc_lo[j] = _mm256_fmadd_pd(a0, bv, acc_lo[j]);
      acc_hi[j] = _mm256_fmadd_pd(a1, bv, acc_hi[j]);
    }
  }
  if (mr_eff == MR && nr_eff == NR) {
    const __m256d va = _mm256_set1_pd(alpha);
    for (int j = 0; j < NR; ++j) {
      double* cc = c + j * ldc;
      _mm256_storeu_pd(cc, _mm256_fmadd_pd(va, acc_lo[j],
                                           _mm256_loadu_pd(cc)));
      _mm256_storeu_pd(cc + 4, _mm256_fmadd_pd(va, acc_hi[j],
                                               _mm256_loadu_pd(cc + 4)));
    }
  } else {
    double acc[MR * NR];
    for (int j = 0; j < NR; ++j) {
      _mm256_storeu_pd(acc + j * MR, acc_lo[j]);
      _mm256_storeu_pd(acc + j * MR + 4, acc_hi[j]);
    }
    // std::fma, not cc += alpha*acc: the full-tile path above fuses the
    // alpha update, so the fringe path must too or a C element would round
    // differently depending on whether its tile is interior or fringe
    // (visible for alpha outside {0, +-1}).
    for (idx cj = 0; cj < nr_eff; ++cj) {
      double* cc = c + cj * ldc;
      const double* accc = acc + cj * MR;
      for (idx ri = 0; ri < mr_eff; ++ri) {
        cc[ri] = std::fma(alpha, accc[ri], cc[ri]);
      }
    }
  }
}

constexpr int kIpTile = 3;

double reduce_add(__m256d v) {
  const __m128d s = _mm_add_pd(_mm256_castpd256_pd128(v),
                               _mm256_extractf128_pd(v, 1));
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

// C(0:RI, 0:RJ) += alpha * A^T B for one register tile. Every element runs
// the same sequence (4-lane FMAs, one masked tail, reduce, one fused
// update), whatever the tile's shape.
template <int RI, int RJ>
void inner_tile(idx k, double alpha, const double* __restrict a, idx lda,
                const double* __restrict b, idx ldb, double* __restrict c,
                idx ldc) {
  __m256d acc[RI][RJ];
  for (int i = 0; i < RI; ++i) {
    for (int j = 0; j < RJ; ++j) acc[i][j] = _mm256_setzero_pd();
  }
  const idx kv = k & ~idx{3};
  for (idx p = 0; p < kv; p += 4) {
    __m256d bv[RJ];
    for (int j = 0; j < RJ; ++j) bv[j] = _mm256_loadu_pd(b + j * ldb + p);
    for (int i = 0; i < RI; ++i) {
      const __m256d av = _mm256_loadu_pd(a + i * lda + p);
      for (int j = 0; j < RJ; ++j) {
        acc[i][j] = _mm256_fmadd_pd(av, bv[j], acc[i][j]);
      }
    }
  }
  if (kv < k) {
    const __m256i tail = _mm256_cmpgt_epi64(_mm256_set1_epi64x(k - kv),
                                            _mm256_setr_epi64x(0, 1, 2, 3));
    __m256d bv[RJ];
    for (int j = 0; j < RJ; ++j) {
      bv[j] = _mm256_maskload_pd(b + j * ldb + kv, tail);
    }
    for (int i = 0; i < RI; ++i) {
      const __m256d av = _mm256_maskload_pd(a + i * lda + kv, tail);
      for (int j = 0; j < RJ; ++j) {
        acc[i][j] = _mm256_fmadd_pd(av, bv[j], acc[i][j]);
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

constexpr InnerTileFn kInnerTiles[kIpTile][kIpTile] = {
    {inner_tile<1, 1>, inner_tile<1, 2>, inner_tile<1, 3>},
    {inner_tile<2, 1>, inner_tile<2, 2>, inner_tile<2, 3>},
    {inner_tile<3, 1>, inner_tile<3, 2>, inner_tile<3, 3>}};

// Column strips outer: a strip's B columns stay in L1 while A streams.
void inner_product_avx2(idx m, idx n, idx k, double alpha, const double* a,
                        idx lda, const double* b, idx ldb, double* c,
                        idx ldc) {
  for (idx j = 0; j < n; j += kIpTile) {
    const idx rj = std::min<idx>(kIpTile, n - j);
    for (idx i = 0; i < m; i += kIpTile) {
      const idx ri = std::min<idx>(kIpTile, m - i);
      kInnerTiles[ri - 1][rj - 1](k, alpha, a + i * lda, lda, b + j * ldb,
                                  ldb, c + i + j * ldc, ldc);
    }
  }
}

// C(0:8, 0:NC) += alpha * A B on one row tile, rows masked by lo and hi:
// the microkernel's accumulators, FMA chain and fused alpha update, with A
// read from its columns (ld lda) instead of a packed block, and B(p, j)
// from b[p * rsb + j * csb].
template <int NC>
void short_tile(idx k, double alpha, const double* __restrict a, idx lda,
                const double* __restrict b, idx rsb, idx csb,
                double* __restrict c, idx ldc, __m256i lo, __m256i hi) {
  __m256d acc_lo[NC];
  __m256d acc_hi[NC];
  for (int j = 0; j < NC; ++j) {
    acc_lo[j] = _mm256_setzero_pd();
    acc_hi[j] = _mm256_setzero_pd();
  }
  for (idx p = 0; p < k; ++p) {
    const double* ap = a + p * lda;
    const __m256d a0 = _mm256_maskload_pd(ap, lo);
    const __m256d a1 = _mm256_maskload_pd(ap + 4, hi);
    for (int j = 0; j < NC; ++j) {
      const __m256d bv = _mm256_broadcast_sd(b + p * rsb + j * csb);
      acc_lo[j] = _mm256_fmadd_pd(a0, bv, acc_lo[j]);
      acc_hi[j] = _mm256_fmadd_pd(a1, bv, acc_hi[j]);
    }
  }
  const __m256d va = _mm256_set1_pd(alpha);
  // Unrolled, or GCC 12 keeps the accumulators in memory through the p
  // loop above: one store per FMA.
#pragma GCC unroll 6
  for (int j = 0; j < NC; ++j) {
    double* cc = c + j * ldc;
    _mm256_maskstore_pd(
        cc, lo, _mm256_fmadd_pd(va, acc_lo[j], _mm256_maskload_pd(cc, lo)));
    _mm256_maskstore_pd(cc + 4, hi,
                        _mm256_fmadd_pd(va, acc_hi[j],
                                        _mm256_maskload_pd(cc + 4, hi)));
  }
}

using ShortTileFn = void (*)(idx, double, const double*, idx, const double*,
                             idx, idx, double*, idx, __m256i, __m256i);

constexpr ShortTileFn kShortTiles[NR] = {short_tile<1>, short_tile<2>,
                                         short_tile<3>, short_tile<4>,
                                         short_tile<5>, short_tile<6>};

// Row tiles outer: a tile's k columns of A stay in L1 across the strips.
void short_product_avx2(idx m, idx n, idx k, double alpha, const double* a,
                        idx lda, const double* b, idx rsb, idx csb,
                        double* c, idx ldc) {
  const __m256i lanes = _mm256_setr_epi64x(0, 1, 2, 3);
  for (idx i = 0; i < m; i += MR) {
    const idx r = std::min<idx>(MR, m - i);
    const __m256i lo = _mm256_cmpgt_epi64(_mm256_set1_epi64x(r), lanes);
    const __m256i hi = _mm256_cmpgt_epi64(_mm256_set1_epi64x(r - 4), lanes);
    for (idx j = 0; j < n; j += NR) {
      kShortTiles[std::min<idx>(NR, n - j) - 1](k, alpha, a + i, lda,
                                                b + j * csb, rsb, csb,
                                                c + i + j * ldc, ldc, lo, hi);
    }
  }
}

__m256d abs_pd(__m256d v) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v); }

double reduce_max(__m256d v) {
  const __m128d s = _mm_max_pd(_mm256_castpd256_pd128(v),
                               _mm256_extractf128_pd(v, 1));
  return _mm_cvtsd_f64(_mm_max_sd(s, _mm_unpackhi_pd(s, s)));
}

// vmaxpd returns its second operand when either is NaN, so max(|x|, m)
// never lets a NaN into m (std::max keeps its first argument likewise).
// The chains start at 0, which the non-NaN x[0] already reaches.
idx iamax_avx2(idx n, const double* x) {
  __m256d m0 = _mm256_setzero_pd();
  __m256d m1 = m0;
  __m256d m2 = m0;
  __m256d m3 = m0;
  idx i = 0;
  for (; i + 16 <= n; i += 16) {
    m0 = _mm256_max_pd(abs_pd(_mm256_loadu_pd(x + i)), m0);
    m1 = _mm256_max_pd(abs_pd(_mm256_loadu_pd(x + i + 4)), m1);
    m2 = _mm256_max_pd(abs_pd(_mm256_loadu_pd(x + i + 8)), m2);
    m3 = _mm256_max_pd(abs_pd(_mm256_loadu_pd(x + i + 12)), m3);
  }
  for (; i + 4 <= n; i += 4) {
    m0 = _mm256_max_pd(abs_pd(_mm256_loadu_pd(x + i)), m0);
  }
  double top = reduce_max(
      _mm256_max_pd(_mm256_max_pd(m0, m1), _mm256_max_pd(m2, m3)));
  for (; i < n; ++i) top = std::max(top, std::abs(x[i]));
  const __m256d vt = _mm256_set1_pd(top);
  for (i = 0; i + 4 <= n; i += 4) {
    const int eq = _mm256_movemask_pd(
        _mm256_cmp_pd(abs_pd(_mm256_loadu_pd(x + i)), vt, _CMP_EQ_OQ));
    if (eq != 0) return i + __builtin_ctz(static_cast<unsigned>(eq));
  }
  while (std::abs(x[i]) != top) ++i;
  return i;
}

}  // namespace

namespace detail {

KernelInfo make_avx2_kernel() {
  KernelInfo k;
  k.name = "avx2";
  k.fn = &microkernel_avx2;
  k.dot = &inner_product_avx2;
  k.short_product = &short_product_avx2;
  k.iamax = &iamax_avx2;
  k.blocking = fixed_blocking<MR, NR>();
  k.compiled = true;
  k.supported = false;  // dispatcher decides from cpuid
  return k;
}

}  // namespace detail
}  // namespace camult::blas

#else  // toolchain could not build AVX2: register a stub

namespace camult::blas::detail {

KernelInfo make_avx2_kernel() {
  KernelInfo k;
  k.name = "avx2";
  k.fn = nullptr;
  k.dot = nullptr;
  k.short_product = nullptr;
  k.iamax = nullptr;
  k.blocking = fixed_blocking<8, 6>();
  k.compiled = false;
  k.supported = false;
  return k;
}

}  // namespace camult::blas::detail

#endif
