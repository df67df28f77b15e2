#include "blas/level1.hpp"

#include <cmath>
#include <limits>

#include "blas/kernel.hpp"

namespace camult::blas {

idx iamax(idx n, const double* x, idx incx) {
  if (n <= 0) return -1;
  // Nothing compares greater than a NaN x[0], and a later NaN never wins.
  if (std::isnan(x[0])) return 0;
  if (incx == 1) return active_kernel().iamax(n, x);
  idx best = 0;
  double best_val = std::abs(x[0]);
  for (idx i = 1; i < n; ++i) {
    const double v = std::abs(x[i * incx]);
    if (v > best_val) {
      best_val = v;
      best = i;
    }
  }
  return best;
}

void swap(idx n, double* x, idx incx, double* y, idx incy) {
  for (idx i = 0; i < n; ++i) {
    std::swap(x[i * incx], y[i * incy]);
  }
}

void scal(idx n, double alpha, double* x, idx incx) {
  if (incx == 1) {
    for (idx i = 0; i < n; ++i) x[i] *= alpha;
  } else {
    for (idx i = 0; i < n; ++i) x[i * incx] *= alpha;
  }
}

void axpy(idx n, double alpha, const double* x, idx incx, double* y,
          idx incy) {
  if (alpha == 0.0) return;
  if (incx == 1 && incy == 1) {
    for (idx i = 0; i < n; ++i) y[i] += alpha * x[i];
  } else {
    for (idx i = 0; i < n; ++i) y[i * incy] += alpha * x[i * incx];
  }
}

void axpy_columns(idx m, idx count, double alpha, const double* c, idx incc,
                  const double* x, idx ldx, double* __restrict y) {
  idx t = 0;
  for (; t + 4 <= count; t += 4) {
    const double c0 = alpha * c[t * incc];
    const double c1 = alpha * c[(t + 1) * incc];
    const double c2 = alpha * c[(t + 2) * incc];
    const double c3 = alpha * c[(t + 3) * incc];
    const double* x0 = x + t * ldx;
    const double* x1 = x0 + ldx;
    const double* x2 = x1 + ldx;
    const double* x3 = x2 + ldx;
    for (idx i = 0; i < m; ++i) {
      double v = y[i];
      v += c0 * x0[i];
      v += c1 * x1[i];
      v += c2 * x2[i];
      v += c3 * x3[i];
      y[i] = v;
    }
  }
  for (; t < count; ++t) {
    const double ct = alpha * c[t * incc];
    const double* xt = x + t * ldx;
    for (idx i = 0; i < m; ++i) y[i] += ct * xt[i];
  }
}

double dot(idx n, const double* x, idx incx, const double* y, idx incy) {
  double s = 0.0;
  if (incx == 1 && incy == 1) {
    for (idx i = 0; i < n; ++i) s += x[i] * y[i];
  } else {
    for (idx i = 0; i < n; ++i) s += x[i * incx] * y[i * incy];
  }
  return s;
}

double nrm2(idx n, const double* x, idx incx) {
  // One unscaled pass with eight independent partial sums. It is exact to
  // rounding whenever no square overflowed (the sum is finite) and the sum
  // lies far above the underflow range (a square that underflowed is then
  // below one ulp of it); NaN fails both tests. Otherwise rescan with the
  // scaled, overflow-free recurrence.
  constexpr int kLanes = 8;
  double part[kLanes] = {};
  idx i = 0;
  if (incx == 1) {
    for (; i + kLanes <= n; i += kLanes) {
      for (int l = 0; l < kLanes; ++l) part[l] += x[i + l] * x[i + l];
    }
  }
  double sum = ((part[0] + part[4]) + (part[2] + part[6])) +
               ((part[1] + part[5]) + (part[3] + part[7]));
  for (; i < n; ++i) sum += x[i * incx] * x[i * incx];
  constexpr double kSafeSum = 0x1p-900;
  if (sum > kSafeSum && sum < std::numeric_limits<double>::infinity()) {
    return std::sqrt(sum);
  }

  double scale = 0.0;
  double ssq = 1.0;
  for (i = 0; i < n; ++i) {
    const double v = std::abs(x[i * incx]);
    if (v == 0.0) continue;
    if (scale < v) {
      const double r = scale / v;
      ssq = 1.0 + ssq * r * r;
      scale = v;
    } else {
      const double r = v / scale;
      ssq += r * r;
    }
  }
  return scale * std::sqrt(ssq);
}

void copy(idx n, const double* x, idx incx, double* y, idx incy) {
  if (incx == 1 && incy == 1) {
    for (idx i = 0; i < n; ++i) y[i] = x[i];
  } else {
    for (idx i = 0; i < n; ++i) y[i * incy] = x[i * incx];
  }
}

double asum(idx n, const double* x, idx incx) {
  double s = 0.0;
  for (idx i = 0; i < n; ++i) s += std::abs(x[i * incx]);
  return s;
}

}  // namespace camult::blas
