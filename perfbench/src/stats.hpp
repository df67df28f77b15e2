// stats.hpp — the sample statistics every perfbench metric is reported with.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Linearly interpolated percentile, p in [0, 1] (numpy's default method).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of an empty sample");
  if (!(p >= 0.0 && p <= 1.0)) throw std::invalid_argument("p outside [0, 1]");
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Samples strictly above `value`: a tail percentile is only reported as
/// such when at least ten samples lie beyond it.
inline std::size_t count_above(const std::vector<double>& v, double value) {
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > value; }));
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / q2: the run-to-run spread measure the benchmark's bounds
  /// are checked against.
  double relative_iqr() const { return q2 != 0.0 ? (q3 - q1) / q2 : 0.0; }
};

/// Quartiles exactly as Python's statistics.quantiles(v, n=4) computes them
/// (its default "exclusive" method), so a spread printed here matches the
/// one the acceptance check computes from the same values. Needs >= 2
/// samples.
inline Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need >= 2 samples");
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long long>(v.size());
  const long long m = ld + 1;
  double q[3];
  for (long long i = 1; i <= 3; ++i) {
    const long long j = std::clamp(i * m / 4, 1LL, ld - 1);
    const long long delta = i * m - j * 4;
    q[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

}  // namespace perfbench
