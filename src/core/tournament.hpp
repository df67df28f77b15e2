// tournament.hpp — tournament-pivoting kernels (the preprocessing step of
// TSLU, paper Section II).
//
// Each node of the reduction tree plays a "match": Gaussian elimination with
// partial pivoting on the stacked candidate rows elects the b best pivot
// rows, which advance to the next round. Candidates carry the ORIGINAL row
// values (the arrow notation's f(A) returns permuted rows of A, not U) plus
// their global row indices so the final permutation can be reconstructed.
#pragma once

#include <algorithm>
#include <vector>

#include "lapack/getrf.hpp"
#include "matrix/matrix.hpp"
#include "matrix/permutation.hpp"

namespace camult::core {

/// Input screening for the health monitor: largest finite magnitude of a
/// block of the panel and whether any entry is non-finite. Taken on the
/// pre-mutation panel (the tournament only reads it), so the verdict
/// describes the actual input.
struct PanelScreen {
  double absmax = 0.0;  ///< max |finite entry|; 0 for an all-zero panel
  bool nonfinite = false;
  /// Fold in the screen of another block: the result screens both.
  void merge(const PanelScreen& other) {
    absmax = std::max(absmax, other.absmax);
    nonfinite = nonfinite || other.nonfinite;
  }
};
PanelScreen screen_panel(ConstMatrixView panel);

/// A set of <= b candidate pivot rows surviving a tournament round.
struct Candidates {
  Matrix values;               ///< r x b candidate rows (original values)
  std::vector<idx> row_index;  ///< global row index of each candidate row
  /// Packed LU factors (getf2 layout) of the stacked rows this node
  /// eliminated, restricted to its top r x b block. Only consumed at the
  /// root, where it provides L_KK / U_KK for free.
  Matrix lu_top;
  /// Screen of every panel row under this node: a leaf screens its block
  /// while copying it, a combine merges its sources. At the root this is
  /// screen_panel of the whole (still unmodified) panel.
  PanelScreen screen;
};

/// Leaf match: GEPP on one scratch copy of `block` (rows of the panel
/// starting at global row `row_offset`); elects min(b, block.rows()) pivot
/// rows, whose original values are read back from `block`. The copy loop
/// also fills Candidates::screen.
Candidates tournament_leaf(
    ConstMatrixView block, idx row_offset, idx b,
    lapack::LuPanelKernel kernel = lapack::LuPanelKernel::Recursive);

/// Internal match: stack the candidate sets and run GEPP on the stack;
/// elects min(b, total rows) pivot rows and merges the sources' screens.
/// `sources` must be non-empty.
Candidates tournament_combine(
    const std::vector<const Candidates*>& sources, idx b,
    lapack::LuPanelKernel kernel = lapack::LuPanelKernel::Recursive);

/// Convert the winners into a LAPACK-style swap sequence over the panel:
/// swap step k brings winner k (global row winners[k]) to row k. The
/// sequence accounts for earlier swaps displacing rows.
PivotVector winners_to_pivots(const std::vector<idx>& winners, idx panel_rows);

/// Degeneracy check on a packed LU block (getf2 layout — U on and above the
/// diagonal): max |U| over the leading `b` columns and whether any diagonal
/// entry is exactly zero. Applied to the tournament root's lu_top this
/// tells, BEFORE the panel is overwritten, whether installing the
/// tournament's U_KK would divide by zero or exceed the growth limit.
struct RootCheck {
  double umax = 0.0;
  bool zero_pivot = false;
};
RootCheck check_packed_lu(ConstMatrixView lu, idx b);

}  // namespace camult::core
