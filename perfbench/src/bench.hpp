// bench.hpp — definitions shared by the perfbench workloads.
#pragma once

#include <cstdint>
#include <string>

#include "core/calu.hpp"
#include "core/caqr.hpp"
#include "matrix/view.hpp"

namespace perfbench {

using camult::ConstMatrixView;
using camult::idx;
using camult::MatrixView;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Shrink every shape so a run takes about a second (the benchmark's own
  /// tests; never used for measurements).
  bool tiny = false;
  /// Flip one bit of one operation's output before it is checked (the
  /// tests prove that the checker turns it into a failed operation).
  bool corrupt = false;
};

/// One factorization problem: an m x n input factored with panel width b
/// and tr panel tasks; every other library option stays at its default.
struct Shape {
  idx m = 0;
  idx n = 0;
  idx b = 0;
  idx tr = 0;
  double bytes() const { return 8.0 * static_cast<double>(m * n); }
};

/// Stream `stream` of the run seed: every input of a run is a function of
/// --seed alone, and distinct streams give independent inputs.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Bitwise digests of factorization outputs. Execution knobs (threads,
/// pool, scheduling) never change the bits, so every repetition of one
/// input must reproduce the first repetition's digest exactly.
std::uint64_t digest(ConstMatrixView a, std::uint64_t h = 0);
std::uint64_t digest_lu(ConstMatrixView a, const camult::core::CaluResult& r);
std::uint64_t digest_qr(ConstMatrixView a, const camult::core::CaqrResult& r);

/// Flip the lowest mantissa bit of a(0, 0) (test hook, see Options).
void corrupt_one_bit(MatrixView a);

/// Scaled-residual bound: the same threshold the library's own tests hold
/// lu_residual / caqr_residual to (tests/common/test_utils.hpp).
inline constexpr double kResidualBound = 50.0;

int online_cpus();                ///< CPUs this process may run on
std::int64_t llc_bytes();         ///< last-level cache size, 0 if unknown
double peak_rss_mb();             ///< getrusage high-water mark, MiB

inline double seconds_between(std::int64_t t0_ns, std::int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) * 1e-9;
}

}  // namespace perfbench
