#include "core/tournament.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "lapack/getf2.hpp"
#include "lapack/getrf.hpp"

namespace camult::core {
namespace {

// Fold column col[0, n) into `s`, copying it to `dst` when non-null.
// Finite magnitudes order like their bit patterns (as signed 64-bit
// integers once the sign bit is cleared), so the loop is a branch-free
// integer max/compare the compiler vectorizes, not an isfinite branch.
void screen_column(const double* col, idx n, double* dst, PanelScreen& s) {
  constexpr std::int64_t kAbsMask = 0x7fffffffffffffff;
  constexpr std::int64_t kInfBits = 0x7ff0000000000000;
  std::int64_t amax = std::bit_cast<std::int64_t>(s.absmax);
  std::int64_t bad = 0;
  auto fold = [&](double v) {
    const std::int64_t u = std::bit_cast<std::int64_t>(v) & kAbsMask;
    amax = std::max(amax, u < kInfBits ? u : 0);
    bad |= u >= kInfBits;
  };
  if (dst != nullptr) {
    for (idx i = 0; i < n; ++i) {
      dst[i] = col[i];
      fold(col[i]);
    }
  } else {
    for (idx i = 0; i < n; ++i) fold(col[i]);
  }
  s.absmax = std::bit_cast<double>(amax);
  s.nonfinite = s.nonfinite || bad != 0;
}

// Elect pivots: GEPP on `scratch` (overwritten by its packed LU), then
// gather the winners' original rows from `original` (row-aligned with the
// unfactored scratch) and their global indices global_row(r).
template <typename GlobalRow>
Candidates elect(MatrixView scratch, ConstMatrixView original, idx b,
                 lapack::LuPanelKernel kernel, GlobalRow global_row) {
  const idx rows = scratch.rows();
  const idx cols = scratch.cols();
  const idx k = std::min(b, rows);

  PivotVector ipiv;
  // Zero pivots tolerated: the row order is still the GEPP order.
  if (kernel == lapack::LuPanelKernel::Recursive) {
    lapack::rgetf2(scratch, ipiv);
  } else {
    lapack::getf2(scratch, ipiv);
  }

  // Positions after applying the swap sequence: permuted[r] = original slot.
  Permutation perm = ipiv_to_permutation(ipiv, rows);

  Candidates out;
  out.values = Matrix(k, cols);
  out.row_index.resize(static_cast<std::size_t>(k));
  for (idx r = 0; r < k; ++r) {
    const idx src = perm[static_cast<std::size_t>(r)];
    for (idx j = 0; j < cols; ++j) out.values(r, j) = original(src, j);
    out.row_index[static_cast<std::size_t>(r)] = global_row(src);
  }
  // Keep the LU factors of the winners (top k x cols of the factored stack).
  out.lu_top = Matrix(k, cols);
  copy_into(scratch.rows_range(0, k), out.lu_top.view());
  return out;
}

}  // namespace

Candidates tournament_leaf(ConstMatrixView block, idx row_offset, idx b,
                           lapack::LuPanelKernel kernel) {
  assert(!block.empty());
  // The one copy of the block is the GEPP target; the winners' original
  // rows come back from `block` itself.
  Matrix scratch(block.rows(), block.cols());
  PanelScreen screen;
  for (idx j = 0; j < block.cols(); ++j) {
    screen_column(block.col_ptr(j), block.rows(), scratch.view().col_ptr(j),
                  screen);
  }
  Candidates out = elect(scratch.view(), block, b, kernel,
                         [row_offset](idx r) { return row_offset + r; });
  out.screen = screen;
  return out;
}

Candidates tournament_combine(const std::vector<const Candidates*>& sources,
                              idx b, lapack::LuPanelKernel kernel) {
  assert(!sources.empty());
  const idx cols = sources.front()->values.cols();
  idx total = 0;
  for (const Candidates* c : sources) total += c->values.rows();

  Matrix stacked(total, cols);
  std::vector<idx> index;
  index.reserve(static_cast<std::size_t>(total));
  PanelScreen screen;
  idx row = 0;
  for (const Candidates* c : sources) {
    copy_into(c->values.view(),
              stacked.view().rows_range(row, c->values.rows()));
    index.insert(index.end(), c->row_index.begin(), c->row_index.end());
    screen.merge(c->screen);
    row += c->values.rows();
  }
  Matrix scratch = stacked;
  Candidates out = elect(scratch.view(), stacked.view(), b, kernel,
                         [&index](idx r) {
                           return index[static_cast<std::size_t>(r)];
                         });
  out.screen = screen;
  return out;
}

PanelScreen screen_panel(ConstMatrixView panel) {
  PanelScreen s;
  for (idx j = 0; j < panel.cols(); ++j) {
    screen_column(panel.col_ptr(j), panel.rows(), nullptr, s);
  }
  return s;
}

RootCheck check_packed_lu(ConstMatrixView lu, idx b) {
  RootCheck c;
  const idx jmax = std::min(b, lu.cols());
  for (idx j = 0; j < jmax; ++j) {
    const idx imax = std::min(j + 1, lu.rows());
    for (idx i = 0; i < imax; ++i) {
      const double v = std::abs(lu(i, j));
      if (v > c.umax || std::isnan(v)) c.umax = v;
    }
    if (j < lu.rows() && lu(j, j) == 0.0) c.zero_pivot = true;
  }
  return c;
}

PivotVector winners_to_pivots(const std::vector<idx>& winners,
                              idx panel_rows) {
  // position_of[r] = current row of the panel row that started at r.
  // Only rows that move are tracked.
  std::unordered_map<idx, idx> position_of;
  auto pos = [&](idx original) {
    auto it = position_of.find(original);
    return it == position_of.end() ? original : it->second;
  };
  std::unordered_map<idx, idx> original_at;  // current row -> original row
  auto orig = [&](idx current) {
    auto it = original_at.find(current);
    return it == original_at.end() ? current : it->second;
  };

  PivotVector ipiv(winners.size());
  for (std::size_t k = 0; k < winners.size(); ++k) {
    const idx dst = static_cast<idx>(k);
    const idx src = pos(winners[k]);
    assert(src >= dst && src < panel_rows);
    (void)panel_rows;
    ipiv[k] = src;
    if (src != dst) {
      const idx orig_dst = orig(dst);
      const idx orig_src = orig(src);
      position_of[orig_dst] = src;
      position_of[orig_src] = dst;
      original_at[src] = orig_dst;
      original_at[dst] = orig_src;
    }
  }
  return ipiv;
}

}  // namespace camult::core
