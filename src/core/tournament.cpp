#include "core/tournament.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <unordered_map>

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

// Elect pivots: GEPP on `stack` (overwritten by its packed LU) elects
// min(b, rows) rows, gathering each winner's original values original(r, j)
// and global index global_row(r) by its stack row r. The winners' packed LU
// stays on top of the factored stack (see keep_lu_top).
template <typename Original, typename GlobalRow>
Candidates elect(MatrixView stack, idx b, Original original,
                 GlobalRow global_row) {
  const idx rows = stack.rows();
  const idx cols = stack.cols();
  const idx k = std::min(b, rows);

  PivotVector ipiv;
  // Zero pivots tolerated: the row order is still the GEPP order.
  lapack::rgetf2(stack, ipiv);

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
  return out;
}

// Keep the winners' packed LU: the top rows of the last factored stack.
void keep_lu_top(ConstMatrixView stack, Candidates& out) {
  out.lu_top = Matrix(out.values.rows(), stack.cols());
  copy_into(stack.rows_range(0, out.values.rows()), out.lu_top.view());
}

}  // namespace

idx tournament_chunk_rows(idx cols, idx b) {
  constexpr idx kChunkBytes = 1536 * 1024;
  const idx rows = kChunkBytes / (static_cast<idx>(sizeof(double)) *
                                  std::max<idx>(cols, 1));
  return std::max(2 * b, rows);
}

Candidates tournament_leaf(ConstMatrixView block, idx row_offset, idx b) {
  assert(!block.empty());
  const idx rows = block.rows();
  const idx cols = block.cols();
  // A sequential flat tournament over the block's chunks, top to bottom.
  // Each pass stacks the running winners' original rows on the chunk's
  // rows in one reused scratch (screening the chunk in that copy loop) and
  // runs GEPP on the stack, so every row of the block is read once. A block
  // of one chunk is a single GEPP on its copy, with no winners carried.
  const idx chunk = std::min(rows, tournament_chunk_rows(cols, b));
  Matrix scratch(rows > chunk ? b + chunk : chunk, cols);
  Candidates out;  // the running winners; none before the first pass
  PanelScreen screen;
  MatrixView stack;
  for (idx top = 0; top < rows; top += chunk) {
    const idx c = std::min(chunk, rows - top);
    const idx w = out.values.rows();
    stack = MatrixView(scratch.data(), w + c, cols, w + c);
    for (idx j = 0; j < cols; ++j) {
      double* dst = stack.col_ptr(j);
      for (idx i = 0; i < w; ++i) dst[i] = out.values(i, j);
      screen_column(block.col_ptr(j) + top, c, dst + w, screen);
    }
    Candidates next = elect(
        stack, b,
        [&](idx r, idx j) {
          return r < w ? out.values(r, j) : block(top + r - w, j);
        },
        [&](idx r) {
          return r < w ? out.row_index[static_cast<std::size_t>(r)]
                       : row_offset + top + r - w;
        });
    out = std::move(next);
  }
  keep_lu_top(stack, out);
  out.screen = screen;
  return out;
}

Candidates tournament_combine(const std::vector<const Candidates*>& sources,
                              idx b) {
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
  Candidates out = elect(
      scratch.view(), b,
      [&stacked](idx r, idx j) { return stacked(r, j); },
      [&index](idx r) { return index[static_cast<std::size_t>(r)]; });
  keep_lu_top(scratch.view(), out);
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
