// Tests for BLAS level-1 kernels. The pivot search runs on every runnable
// kernel variant against the scalar loop it replaced, kept here as the
// oracle: maximum at every position, ties, NaN, Inf, signed zeros,
// subnormals and strides.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "blas/kernel.hpp"
#include "blas/level1.hpp"
#include "common/test_utils.hpp"
#include "matrix/random.hpp"

namespace camult::blas {
namespace {

using camult::test::KernelGuard;
using camult::test::runnable_kernels;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// The scalar loop iamax ran before it was vectorised: the first index of
// the largest |x|, a NaN winning only at x[0].
idx iamax_oracle(idx n, const double* x, idx incx) {
  if (n <= 0) return -1;
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


// Lengths 0-40 cover every vector tail and block of the variants (4 and 8
// lanes, four chains); 2,066 is one column of a tournament stack.
std::vector<idx> search_lengths() {
  std::vector<idx> out;
  for (idx n = 0; n <= 40; ++n) out.push_back(n);
  out.push_back(2066);
  return out;
}

// x at offset `off` of a host padded with Inf on both sides, so a read past
// either end of the vector would change the index it returns.
struct Padded {
  std::vector<double> host;
  idx off;
  Padded(const std::vector<double>& x, idx offset)
      : host(x.size() + 2 * static_cast<std::size_t>(offset) + 16, kInf),
        off(offset) {
    std::copy(x.begin(), x.end(), host.begin() + offset);
  }
  const double* data() const { return host.data() + off; }
};

void expect_iamax(const std::vector<double>& x, idx expected,
                  const std::string& what) {
  const idx n = static_cast<idx>(x.size());
  ASSERT_EQ(iamax_oracle(n, x.data(), 1), expected) << what;
  for (idx off : {0, 1, 3}) {
    const Padded p(x, off);
    EXPECT_EQ(iamax(n, p.data(), 1), expected)
        << active_kernel().name << " " << what << " n=" << n
        << " off=" << off;
  }
}

TEST(Iamax, MaximumAtEveryPositionEveryKernel) {
  KernelGuard guard;
  for (const std::string& name : runnable_kernels()) {
    ASSERT_TRUE(set_active_kernel(name));
    for (idx n : search_lengths()) {
      const Matrix r = random_matrix(std::max<idx>(n, 1), 1, 90 + n);
      std::vector<double> x(r.data(), r.data() + n);
      if (n == 0) {
        EXPECT_EQ(iamax(0, x.data(), 1), -1);
        continue;
      }
      for (idx p = 0; p < n; ++p) {
        std::vector<double> y = x;
        y[static_cast<std::size_t>(p)] = (p % 2 == 0) ? 3.0 : -3.0;
        expect_iamax(y, p, "max at " + std::to_string(p));
      }
    }
  }
}

TEST(Iamax, TiesFirstWinsEveryKernel) {
  KernelGuard guard;
  for (const std::string& name : runnable_kernels()) {
    ASSERT_TRUE(set_active_kernel(name));
    for (idx n : search_lengths()) {
      if (n == 0) continue;
      expect_iamax(std::vector<double>(static_cast<std::size_t>(n), -2.5), 0,
                   "all equal");
      // Every pair of tied maxima for short lengths, and a spread of pairs
      // (within and across vector blocks) for the long one.
      const idx step = n > 40 ? 97 : 1;
      for (idx p1 = 0; p1 < n; p1 += step) {
        for (idx p2 = p1 + 1; p2 < n; p2 += step) {
          std::vector<double> y(static_cast<std::size_t>(n), 0.5);
          y[static_cast<std::size_t>(p1)] = -4.0;
          y[static_cast<std::size_t>(p2)] = 4.0;
          expect_iamax(y, p1, "tie " + std::to_string(p1) + "," +
                                  std::to_string(p2));
        }
      }
    }
  }
}

TEST(Iamax, NanWinsOnlyAtTheFrontEveryKernel) {
  KernelGuard guard;
  for (const std::string& name : runnable_kernels()) {
    ASSERT_TRUE(set_active_kernel(name));
    for (idx n : search_lengths()) {
      if (n == 0) continue;
      const Matrix r = random_matrix(n, 1, 190 + n);
      const std::vector<double> x(r.data(), r.data() + n);
      for (double nan : {kNan, -kNan}) {
        // NaN at x[0] wins over anything, Inf included.
        std::vector<double> y = x;
        y[0] = nan;
        y[static_cast<std::size_t>(n - 1)] = kInf;
        if (n > 1) expect_iamax(y, 0, "NaN at 0");
        // Everywhere else a NaN is skipped.
        for (idx q = 1; q < n; ++q) {
          std::vector<double> z = x;
          const idx p = (q * 7 + 3) % n;
          z[static_cast<std::size_t>(p)] = 5.0;
          if (p != q) {
            z[static_cast<std::size_t>(q)] = nan;
            expect_iamax(z, p, "NaN at " + std::to_string(q));
          }
        }
        // All NaN behind a finite x[0].
        std::vector<double> w(static_cast<std::size_t>(n), nan);
        w[0] = -0.25;
        expect_iamax(w, 0, "NaN tail");
      }
    }
  }
}

TEST(Iamax, InfSignedZerosAndSubnormalsEveryKernel) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double sub = std::numeric_limits<double>::min() / 4;  // subnormal
  KernelGuard guard;
  for (const std::string& name : runnable_kernels()) {
    ASSERT_TRUE(set_active_kernel(name));
    for (idx n : search_lengths()) {
      if (n < 2) continue;
      const std::size_t last = static_cast<std::size_t>(n - 1);
      const std::size_t mid = last / 2 + 1;
      std::vector<double> y(static_cast<std::size_t>(n), 1e300);
      y[mid] = -kInf;
      y[last] = kInf;
      expect_iamax(y, static_cast<idx>(mid), "-Inf then +Inf");
      std::vector<double> z(static_cast<std::size_t>(n), -0.0);
      z[mid] = 0.0;
      expect_iamax(z, 0, "-0.0 against +0.0");
      z[0] = 0.0;
      z[mid] = -0.0;
      expect_iamax(z, 0, "+0.0 against -0.0");
      std::vector<double> s(static_cast<std::size_t>(n), tiny);
      s[0] = 0.0;
      s[mid] = -sub;
      expect_iamax(s, static_cast<idx>(mid), "subnormal maximum");
      s[mid] = tiny;
      expect_iamax(s, 1, "subnormal ties behind a zero");
    }
  }
}

TEST(Iamax, StrideTwoMatchesScalarLoop) {
  const Matrix r = random_matrix(2 * 2066, 1, 33);
  std::vector<double> y(r.data(), r.data() + 2 * 2066);
  y[2 * 501] = kNan;
  y[2 * 7] = -kNan;
  y[2 * 1500] = -9.0;
  y[2 * 1700] = 9.0;
  for (idx n : search_lengths()) {
    if (2 * n > static_cast<idx>(y.size())) continue;
    EXPECT_EQ(iamax(n, y.data(), 2), iamax_oracle(n, y.data(), 2)) << n;
  }
  y[0] = kNan;
  EXPECT_EQ(iamax(2066, y.data(), 2), 0);
}

TEST(Iamax, FindsLargestMagnitude) {
  std::vector<double> x = {1.0, -5.0, 3.0, 4.0};
  EXPECT_EQ(iamax(4, x.data(), 1), 1);
}

TEST(Iamax, FirstOnTies) {
  std::vector<double> x = {2.0, -2.0, 2.0};
  EXPECT_EQ(iamax(3, x.data(), 1), 0);
}

TEST(Iamax, EmptyReturnsMinusOne) {
  EXPECT_EQ(iamax(0, nullptr, 1), -1);
}

TEST(Iamax, Strided) {
  std::vector<double> x = {1.0, 99.0, 2.0, 99.0, -7.0, 99.0};
  EXPECT_EQ(iamax(3, x.data(), 2), 2);
}

TEST(Swap, ExchangesStridedVectors) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {5, 6, 7, 8};
  swap(2, x.data(), 2, y.data(), 1);
  EXPECT_EQ(x, (std::vector<double>{5, 2, 6, 4}));
  EXPECT_EQ(y, (std::vector<double>{1, 3, 7, 8}));
}

TEST(Scal, ScalesInPlace) {
  std::vector<double> x = {1, 2, 3};
  scal(3, -2.0, x.data(), 1);
  EXPECT_EQ(x, (std::vector<double>{-2, -4, -6}));
}

TEST(Axpy, Accumulates) {
  std::vector<double> x = {1, 2, 3};
  std::vector<double> y = {10, 20, 30};
  axpy(3, 2.0, x.data(), 1, y.data(), 1);
  EXPECT_EQ(y, (std::vector<double>{12, 24, 36}));
}

TEST(Axpy, AlphaZeroIsNoop) {
  std::vector<double> x = {1, 2, 3};
  std::vector<double> y = {10, 20, 30};
  axpy(3, 0.0, x.data(), 1, y.data(), 1);
  EXPECT_EQ(y, (std::vector<double>{10, 20, 30}));
}

TEST(Dot, Computes) {
  std::vector<double> x = {1, 2, 3};
  std::vector<double> y = {4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(3, x.data(), 1, y.data(), 1), 32.0);
}

TEST(Nrm2, PythagoreanTriple) {
  std::vector<double> x = {3, 4};
  EXPECT_DOUBLE_EQ(nrm2(2, x.data(), 1), 5.0);
}

TEST(Nrm2, AvoidsOverflow) {
  std::vector<double> x = {1e300, 1e300};
  EXPECT_TRUE(std::isfinite(nrm2(2, x.data(), 1)));
  EXPECT_NEAR(nrm2(2, x.data(), 1) / 1e300, std::sqrt(2.0), 1e-12);
}

TEST(Nrm2, AvoidsUnderflow) {
  std::vector<double> x = {1e-300, 1e-300};
  EXPECT_GT(nrm2(2, x.data(), 1), 0.0);
  EXPECT_NEAR(nrm2(2, x.data(), 1) / 1e-300, std::sqrt(2.0), 1e-12);
}

TEST(Nrm2, ZeroVector) {
  std::vector<double> x = {0.0, 0.0, 0.0};
  EXPECT_EQ(nrm2(3, x.data(), 1), 0.0);
}

TEST(Copy, CopiesStrided) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y(2, 0.0);
  copy(2, x.data(), 2, y.data(), 1);
  EXPECT_EQ(y, (std::vector<double>{1, 3}));
}

TEST(Asum, SumsMagnitudes) {
  std::vector<double> x = {1, -2, 3};
  EXPECT_DOUBLE_EQ(asum(3, x.data(), 1), 6.0);
}

}  // namespace
}  // namespace camult::blas
