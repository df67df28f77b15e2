// kernel_scalar.cpp — portable C microkernel, 8 x 6. No hand vectorization
// and no ISA flags beyond the project baseline, so this TU runs anywhere
// the binary loads; it is the guaranteed fallback the dispatcher can always
// select. The register tile matches the AVX2 kernel so both share the same
// packed-panel layout.
//
// The inner-product kernel mirrors the vector ones with four scalar lanes
// per C element over 2 x 2 tiles, so the compiler is free to vectorise the
// lane loop and the tail fills the lanes the way a masked load would. The
// short-product kernel is the microkernel's loop on A's columns in place,
// with B read through its row and column strides, and the pivot search is
// branch-free: the largest |x| on four max lanes, then a scan for the first
// element equal to it.
#include "blas/kernel_impl.hpp"

#include <algorithm>
#include <cmath>

namespace camult::blas {
namespace {

constexpr idx MR = 8;
constexpr idx NR = 6;

void microkernel_scalar(idx kc, double alpha, const double* __restrict ap,
                        const double* __restrict bp, double* __restrict c,
                        idx ldc, idx mr_eff, idx nr_eff) {
  double acc[MR * NR];
  for (idx i = 0; i < MR * NR; ++i) acc[i] = 0.0;
  for (idx p = 0; p < kc; ++p) {
    const double* a = ap + p * MR;
    const double* b = bp + p * NR;
    for (idx cj = 0; cj < NR; ++cj) {
      const double bv = b[cj];
      double* accc = acc + cj * MR;
      for (idx ri = 0; ri < MR; ++ri) accc[ri] += a[ri] * bv;
    }
  }
  // One store loop for full and fringe tiles (a full tile is just
  // mr_eff == MR, nr_eff == NR): a C element must round the same way
  // whether its tile happened to be interior or on the fringe, so the
  // padded-vs-fringe bit-parity tests can hold for every alpha.
  for (idx cj = 0; cj < nr_eff; ++cj) {
    double* cc = c + cj * ldc;
    const double* accc = acc + cj * MR;
    for (idx ri = 0; ri < mr_eff; ++ri) cc[ri] += alpha * accc[ri];
  }
}

constexpr int kIpTile = 2;
constexpr int kLanes = 4;

// C(0:RI, 0:RJ) += alpha * A^T B for one register tile; every element runs
// the same sequence whatever the tile's shape.
template <int RI, int RJ>
void inner_tile(idx k, double alpha, const double* __restrict a, idx lda,
                const double* __restrict b, idx ldb, double* __restrict c,
                idx ldc) {
  double acc[RI][RJ][kLanes] = {};
  const idx kv = k - k % kLanes;
  for (idx p = 0; p < kv; p += kLanes) {
    for (int i = 0; i < RI; ++i) {
      for (int j = 0; j < RJ; ++j) {
        for (int l = 0; l < kLanes; ++l) {
          acc[i][j][l] += a[i * lda + p + l] * b[j * ldb + p + l];
        }
      }
    }
  }
  for (idx p = kv; p < k; ++p) {
    for (int i = 0; i < RI; ++i) {
      for (int j = 0; j < RJ; ++j) {
        acc[i][j][p - kv] += a[i * lda + p] * b[j * ldb + p];
      }
    }
  }
  for (int j = 0; j < RJ; ++j) {
    for (int i = 0; i < RI; ++i) {
      const double* s = acc[i][j];
      c[i + j * ldc] += alpha * ((s[0] + s[2]) + (s[1] + s[3]));
    }
  }
}

using InnerTileFn = void (*)(idx, double, const double*, idx, const double*,
                             idx, double*, idx);

constexpr InnerTileFn kInnerTiles[kIpTile][kIpTile] = {
    {inner_tile<1, 1>, inner_tile<1, 2>},
    {inner_tile<2, 1>, inner_tile<2, 2>}};

void inner_product_scalar(idx m, idx n, idx k, double alpha, const double* a,
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

// The microkernel's accumulate and store loops on one mr_eff x nr_eff tile,
// with A read from its columns (ld lda) and B(p, j) from b[p * rsb + j * csb].
void short_tile(idx k, double alpha, const double* __restrict a, idx lda,
                const double* __restrict b, idx rsb, idx csb,
                double* __restrict c, idx ldc, idx mr_eff, idx nr_eff) {
  double acc[MR * NR] = {};
  for (idx p = 0; p < k; ++p) {
    const double* ap = a + p * lda;
    for (idx cj = 0; cj < nr_eff; ++cj) {
      const double bv = b[p * rsb + cj * csb];
      double* accc = acc + cj * MR;
      for (idx ri = 0; ri < mr_eff; ++ri) accc[ri] += ap[ri] * bv;
    }
  }
  for (idx cj = 0; cj < nr_eff; ++cj) {
    double* cc = c + cj * ldc;
    const double* accc = acc + cj * MR;
    for (idx ri = 0; ri < mr_eff; ++ri) cc[ri] += alpha * accc[ri];
  }
}

void short_product_scalar(idx m, idx n, idx k, double alpha, const double* a,
                          idx lda, const double* b, idx rsb, idx csb,
                          double* c, idx ldc) {
  for (idx i = 0; i < m; i += MR) {
    const idx mr_eff = std::min<idx>(MR, m - i);
    for (idx j = 0; j < n; j += NR) {
      short_tile(k, alpha, a + i, lda, b + j * csb, rsb, csb, c + i + j * ldc,
                 ldc, mr_eff, std::min<idx>(NR, n - j));
    }
  }
}

// std::max(m, v) keeps m when v is NaN, so a NaN never enters a lane. The
// lanes start at 0, which the non-NaN x[0] already reaches.
idx iamax_scalar(idx n, const double* x) {
  constexpr int kMaxLanes = 4;
  double lane[kMaxLanes] = {};
  idx i = 0;
  for (; i + kMaxLanes <= n; i += kMaxLanes) {
    for (int l = 0; l < kMaxLanes; ++l) {
      lane[l] = std::max(lane[l], std::abs(x[i + l]));
    }
  }
  double top = std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
  for (; i < n; ++i) top = std::max(top, std::abs(x[i]));
  i = 0;
  while (std::abs(x[i]) != top) ++i;
  return i;
}

}  // namespace

namespace detail {

KernelInfo make_scalar_kernel() {
  KernelInfo k;
  k.name = "scalar";
  k.fn = &microkernel_scalar;
  k.dot = &inner_product_scalar;
  k.short_product = &short_product_scalar;
  k.iamax = &iamax_scalar;
  k.blocking = fixed_blocking<MR, NR>();
  k.compiled = true;
  k.supported = false;  // dispatcher sets this (always true for scalar)
  return k;
}

}  // namespace detail
}  // namespace camult::blas
