// test_utils.hpp — shared helpers for the gtest suites: naive reference
// kernels and comparison utilities. Reference implementations are
// deliberately simple (triple loops) so they are obviously correct.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "blas/kernel.hpp"
#include "blas/types.hpp"
#include "matrix/matrix.hpp"
#include "matrix/permutation.hpp"

namespace camult::test {

/// C = alpha * op(A) * op(B) + beta * C, naive triple loop.
void reference_gemm(blas::Trans transa, blas::Trans transb, double alpha,
                    ConstMatrixView a, ConstMatrixView b, double beta,
                    MatrixView c);

/// Dense triangular matrix from the referenced triangle of a.
Matrix reference_triangle(ConstMatrixView a, blas::Uplo uplo, blas::Diag diag);

/// Reference solve op(T) * X = B or X * op(T) = B via explicit triangle and
/// column-wise substitution.
Matrix reference_trsm(blas::Side side, blas::Uplo uplo, blas::Trans trans,
                      blas::Diag diag, double alpha, ConstMatrixView a,
                      ConstMatrixView b);

/// Maximum elementwise |a - b|.
double max_diff(ConstMatrixView a, ConstMatrixView b);

/// gtest assertion: matrices equal within tol (absolute, on max diff scaled
/// by max magnitude).
::testing::AssertionResult matrices_near(ConstMatrixView a, ConstMatrixView b,
                                         double tol);

/// Restores cpuid auto-selection of the BLAS kernel variant when it goes
/// out of scope, however the test that switched variants exits. Inline, so
/// suites that never switch variants need not link camult_blas.
struct KernelGuard {
  ~KernelGuard() { blas::set_active_kernel(""); }
};

/// Names of the kernel variants this host can run, fastest first.
inline std::vector<std::string> runnable_kernels() {
  std::vector<std::string> out;
  for (const blas::KernelInfo& k : blas::kernel_registry()) {
    if (k.supported) out.emplace_back(k.name);
  }
  return out;
}

/// Residual thresholds: scaled residuals from lapack/verify.hpp are measured
/// in units of (size * eps); anything below this is a pass.
inline constexpr double kResidualThreshold = 50.0;

// ---- Adversarial matrix ensembles --------------------------------------
//
// Inputs chosen to stress the numerics rather than the scheduling: pivot
// growth, pivot ties, (near-)singularity, and wide dynamic range. Used by
// test_adversarial.cpp to pin the CALU/CAQR backward-error bounds, and
// available to any suite that wants hostile inputs.

/// Nearly singular: the last column is a linear combination of the others
/// plus `eps_scale` * noise (exactly singular for eps_scale == 0).
Matrix near_singular_matrix(idx m, idx n, double eps_scale,
                            std::uint64_t seed);

/// Random matrix where consecutive row pairs are exact duplicates (pivot
/// ties everywhere; square versions are exactly singular).
Matrix duplicate_rows_matrix(idx m, idx n, std::uint64_t seed);

/// Random matrix scaled by geometric row and column scalings spanning
/// 2^[-scale_pow, +scale_pow].
Matrix badly_scaled_matrix(idx m, idx n, int scale_pow, std::uint64_t seed);

/// Random matrix with quiet NaNs planted at a few deterministic positions,
/// always including (0, 0) so the leading panel is poisoned.
Matrix nan_seeded_matrix(idx m, idx n, std::uint64_t seed);

/// Random matrix with +/-Inf planted the same way.
Matrix inf_seeded_matrix(idx m, idx n, std::uint64_t seed);

/// Random matrix whose column `col` is exactly zero: the panel containing
/// `col` is exactly singular by construction, with no floating-point
/// cancellation involved (the pivot search sees literal zeros).
Matrix zero_column_matrix(idx m, idx n, idx col, std::uint64_t seed);

/// One named adversarial input.
struct AdversarialCase {
  std::string name;
  Matrix a;
  /// Exactly rank-deficient: LU factorizations may legitimately report
  /// info != 0, but the backward-error bound must still hold.
  bool singular = false;
};

/// The ensemble for an m x n problem (m >= n): Wilkinson growth (square
/// cases only; kept at order <= 40 so the 2^(n-1) growth stays exact in
/// doubles), near-singular, duplicate-row, rank-deficient, badly scaled.
std::vector<AdversarialCase> adversarial_cases(idx m, idx n,
                                               std::uint64_t seed);

}  // namespace camult::test
