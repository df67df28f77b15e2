// tournament.hpp — tournament-pivoting kernels (the preprocessing step of
// TSLU, paper Section II).
//
// Each node of the reduction tree plays a "match": Gaussian elimination with
// partial pivoting on the stacked candidate rows elects the b best pivot
// rows, which advance to the next round. Candidates carry the ORIGINAL row
// values (the arrow notation's f(A) returns permuted rows of A, not U) plus
// their global row indices so the final permutation can be reconstructed.
//
// A leaf taller than tournament_chunk_rows plays its own sequential flat
// tournament over L2-sized chunks (the sequential TSLU of Demmel, Grigori,
// Hoemmen and Langou), so a T_r = 1 panel is exact GEPP only up to one
// chunk's height.
#pragma once

#include <algorithm>
#include <vector>

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
  /// eliminated (a chunked leaf: its last stack), restricted to its top
  /// r x b block. Only consumed at the root, where it provides L_KK / U_KK
  /// for free.
  Matrix lu_top;
  /// Screen of every panel row under this node: a leaf screens its block
  /// while copying it, a combine merges its sources. At the root this is
  /// screen_panel of the whole (still unmodified) panel.
  PanelScreen screen;
};

/// Rows of a tournament leaf's block that one pass of tournament_leaf
/// reads: about 1.5 MiB of a `cols`-column block, and at least 2b. The
/// pass's stack (the chunk under <= b carried winners) then stays in a
/// 2 MiB L2 through the whole GEPP (docs/algorithms.md § 1 has the sweep).
/// Depends on (cols, b) only, so the chunking (and the bits of the
/// winners) never depend on the caller.
idx tournament_chunk_rows(idx cols, idx b);

/// Leaf match over `block` (rows of the panel starting at global row
/// `row_offset`); elects min(b, block.rows()) pivot rows. The block is read
/// once, as a sequential flat tournament over chunks of
/// tournament_chunk_rows(cols, b) rows: each pass runs GEPP on one reused
/// scratch that stacks the running winners' original rows on the next
/// chunk's rows, and its winners advance to the next pass. A block of one
/// chunk is one GEPP on its copy; a taller block's winners equal GEPP's
/// only within each chunk. The copy loop also fills Candidates::screen,
/// and lu_top is the top of the last pass's factored stack.
Candidates tournament_leaf(ConstMatrixView block, idx row_offset, idx b);

/// Internal match: stack the candidate sets and run GEPP on the stack;
/// elects min(b, total rows) pivot rows and merges the sources' screens.
/// `sources` must be non-empty.
Candidates tournament_combine(const std::vector<const Candidates*>& sources,
                              idx b);

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
