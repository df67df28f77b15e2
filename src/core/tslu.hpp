// tslu.hpp — TSLU: communication-avoiding LU of a tall-skinny panel
// (sequential driver; the task-parallel version lives inside CALU).
//
// Two phases (paper Section II):
//  1. tournament pivoting over a reduction tree elects b pivot rows;
//  2. the pivots are swapped to the top and the whole panel is factored
//     against the b x b LU of the winners (no further pivoting needed).
//
// With tr == 1 (or a panel too short for two leaves) the panel is factored
// by GEPP in place, bitwise. With more leaves each leaf is a sequential flat
// tournament over chunks of tournament_chunk_rows rows, so a leaf's winners
// are its GEPP pivot rows only when it fits one chunk.
#pragma once

#include "core/options.hpp"
#include "matrix/permutation.hpp"

namespace camult::core {

struct TsluOptions {
  idx tr = 4;  ///< leaf count of the tournament (paper's T_r)
  ReductionTree tree = ReductionTree::Binary;
  /// Health monitoring with graceful degradation: screen the panel for
  /// non-finite entries and, when the tournament elects a zero/degenerate
  /// pivot or its growth exceeds growth_limit, discard the tournament and
  /// refactor the (still untouched) panel with full-panel GEPP. Off = the
  /// LAPACK-style complete-with-Inf behaviour.
  bool monitor = true;
  /// Pivot-growth threshold max|U_KK| / max|panel| above which the monitor
  /// falls back to GEPP; <= 0 disables the growth trigger (zero pivots
  /// still trigger). The default passes every GEPP-stable matrix — even
  /// Wilkinson's 2^(n-1) worst case at the panel widths used here — and
  /// catches the pathological tournament outcomes well past it.
  double growth_limit = 1e12;
};

/// Factor an m x b panel in place: on exit the unit lower trapezoid holds L,
/// the upper triangle holds U, and ipiv (resized to b) is the swap sequence
/// (laswp convention, relative to the panel top). Requires m >= b.
/// Returns 0, or the 1-based index of the first zero pivot.
/// `health`, when non-null, receives the panel's screen/growth/fallback
/// verdict (fallback_list uses panel index 0).
idx tslu_factor(MatrixView panel, PivotVector& ipiv,
                const TsluOptions& opts = {}, HealthReport* health = nullptr);

/// X := X * U^{-1} against the upper triangle of `lu` (the TSLU "remaining
/// rows of L" solve), skipping the divide for exactly-zero diagonal entries
/// so an exactly singular U_KK yields finite (if rank-deficient) L instead
/// of a column of Inf — the same convention as getf2's skipped scal. Used
/// on the info != 0 path only: when every pivot is nonzero the callers keep
/// blas::trsm, whose operation order this plain loop does not reproduce
/// bit-for-bit.
void guarded_l_solve(ConstMatrixView lu, MatrixView x);

}  // namespace camult::core
