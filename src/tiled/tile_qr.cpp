#include "tiled/tile_qr.hpp"

#include <cassert>
#include <cmath>
#include <limits>
#include <string>

#include "matrix/norms.hpp"

namespace camult::tiled {

TileQrResult tile_qr_factor(MatrixView a, const TileQrOptions& opts) {
  const idx m = a.rows();
  const idx n = a.cols();
  const idx k_total = std::min(m, n);
  const idx b = std::max<idx>(1, std::min(opts.b, k_total));
  const idx n_steps = (k_total + b - 1) / b;
  const idx m_tiles = (m + b - 1) / b;

  TileQrResult result;
  result.m = m;
  result.n = n;
  result.b = b;
  result.steps.resize(static_cast<std::size_t>(n_steps));

  using rt::AccessMode;
  using rt::TaskKind;
  rt::TaskGraph graph({opts.num_threads, opts.record_trace});
  // Per-step keys: the diagonal tile's GEQRT, and each TSQRT of the chain.
  const rt::KeySpace leaf = graph.key_space(1);
  const rt::KeySpace node = graph.key_space(std::max<idx>(1, m_tiles));
  // Panel-chain tasks (the critical path) on the top priority band;
  // trailing updates below, ordered by iteration then column.
  auto panel_prio = [](idx k) {
    return 2000000000 - static_cast<int>(k) * 4;
  };
  auto update_prio = [](idx k, idx jblk) {
    return 1000000 - static_cast<int>(k * 1000 + (jblk - k));
  };

  for (idx k = 0; k < n_steps; ++k) {
    const idx row0 = k * b;
    const idx jb = std::min(b, k_total - row0);
    const idx rk = std::min(b, m - row0);
    TileQrStep& S = result.steps[static_cast<std::size_t>(k)];
    S.row0 = row0;
    S.rk = rk;
    S.jb = jb;
    const idx n_below = m_tiles - (k + 1);
    S.chain_row.resize(static_cast<std::size_t>(std::max<idx>(n_below, 0)));
    S.chain.resize(static_cast<std::size_t>(std::max<idx>(n_below, 0)));

    const int it = static_cast<int>(k);
    const auto segments = rt::trailing_segments(row0, jb, b, n);

    // GEQRT: QR of the diagonal tile.
    {
      TileQrStep* Sp = &S;
      MatrixView tile = a.block(row0, row0, rk, jb);
      graph.submit_accessing({{rt::block_key(k, k), AccessMode::ReadWrite},
                              {leaf.key(k), AccessMode::Write}},
                             {panel_prio(k), TaskKind::Panel, it, "geqrt"},
                             [Sp, tile]() {
                               Sp->leaf = core::tsqr_leaf_kernel(tile, 0);
                             });
    }

    // UNMQR: apply the diagonal tile's reflectors to the trailing segments.
    for (const rt::ColSegment& seg : segments) {
      TileQrStep* Sp = &S;
      ConstMatrixView tile = a.block(row0, row0, rk, jb);
      MatrixView c = a.block(row0, seg.col0, rk, seg.cols);
      graph.submit_accessing(
          {{leaf.key(k), AccessMode::Read},
           {rt::block_key(k, k), AccessMode::Read},
           {rt::block_key(k, seg.jblk), AccessMode::ReadWrite}},
          {update_prio(k, seg.jblk), TaskKind::Update, it,
           "unmqr j" + std::to_string(seg.jblk)},
          [Sp, tile, c]() {
            core::tsqr_leaf_apply(blas::Trans::Trans, tile, Sp->leaf, c);
          });
    }

    // TSQRT chain + TSMQR updates.
    for (idx ti = k + 1; ti < m_tiles; ++ti) {
      const idx ri = std::min(b, m - ti * b);
      const idx slot = ti - (k + 1);
      S.chain_row[static_cast<std::size_t>(slot)] = ti * b;
      {
        TileQrStep* Sp = &S;
        MatrixView r_tile = a.block(row0, row0, jb, jb);
        MatrixView full = a.block(ti * b, row0, ri, jb);
        graph.submit_accessing(
            {{rt::block_key(k, k), AccessMode::ReadWrite},
             {rt::block_key(ti, k), AccessMode::ReadWrite},
             {node.key(k, ti), AccessMode::Write}},
            {panel_prio(k), TaskKind::Panel, it,
             "tsqrt i" + std::to_string(ti)},
            [Sp, r_tile, full, slot]() {
              Sp->chain[static_cast<std::size_t>(slot)] = tsqrt(r_tile, full);
            });
      }
      for (const rt::ColSegment& seg : segments) {
        TileQrStep* Sp = &S;
        MatrixView c_top = a.block(row0, seg.col0, jb, seg.cols);
        MatrixView c_bot = a.block(ti * b, seg.col0, ri, seg.cols);
        graph.submit_accessing(
            {{node.key(k, ti), AccessMode::Read},
             {rt::block_key(k, seg.jblk), AccessMode::ReadWrite},
             {rt::block_key(ti, seg.jblk), AccessMode::ReadWrite}},
            {update_prio(k, seg.jblk), TaskKind::Update, it,
             "tsmqr i" + std::to_string(ti) + " j" + std::to_string(seg.jblk)},
            [Sp, c_top, c_bot, slot]() {
              tsmqr(blas::Trans::Trans,
                    Sp->chain[static_cast<std::size_t>(slot)], c_top, c_bot);
            });
      }
    }
  }

  graph.wait();
  if (opts.record_trace) {
    result.trace = graph.trace();
    result.edges = graph.edges();
  }
  result.sched = graph.stats();
  return result;
}

void tile_qr_apply_q(blas::Trans trans, ConstMatrixView a,
                     const TileQrResult& f, MatrixView c) {
  assert(c.rows() == f.m);
  auto apply_step = [&](const TileQrStep& S, blas::Trans dir) {
    ConstMatrixView tile = a.block(S.row0, S.row0, S.rk, S.jb);
    if (dir == blas::Trans::Trans) {
      core::tsqr_leaf_apply(blas::Trans::Trans, tile, S.leaf,
                            c.rows_range(S.row0, S.rk));
      for (std::size_t s = 0; s < S.chain.size(); ++s) {
        tsmqr(blas::Trans::Trans, S.chain[s],
              c.block(S.row0, 0, S.jb, c.cols()),
              c.block(S.chain_row[s], 0, S.chain[s].v.rows(), c.cols()));
      }
    } else {
      for (std::size_t s = S.chain.size(); s-- > 0;) {
        tsmqr(blas::Trans::NoTrans, S.chain[s],
              c.block(S.row0, 0, S.jb, c.cols()),
              c.block(S.chain_row[s], 0, S.chain[s].v.rows(), c.cols()));
      }
      core::tsqr_leaf_apply(blas::Trans::NoTrans, tile, S.leaf,
                            c.rows_range(S.row0, S.rk));
    }
  };
  if (trans == blas::Trans::Trans) {
    for (const TileQrStep& S : f.steps) apply_step(S, blas::Trans::Trans);
  } else {
    for (auto it = f.steps.rbegin(); it != f.steps.rend(); ++it) {
      apply_step(*it, blas::Trans::NoTrans);
    }
  }
}

double tile_qr_residual(ConstMatrixView a_orig, ConstMatrixView a_factored,
                        const TileQrResult& f) {
  const idx m = f.m;
  const idx n = f.n;
  const idx k = std::min(m, n);
  Matrix qr = Matrix::zeros(m, n);
  for (idx j = 0; j < n; ++j) {
    const idx top = std::min(j + 1, k);
    for (idx i = 0; i < top; ++i) qr(i, j) = a_factored(i, j);
  }
  tile_qr_apply_q(blas::Trans::NoTrans, a_factored, f, qr.view());
  double diff2 = 0.0;
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) {
      const double d = qr(i, j) - a_orig(i, j);
      diff2 += d * d;
    }
  }
  const double na = norm_fro(a_orig);
  if (na == 0.0) return std::sqrt(diff2);
  return std::sqrt(diff2) /
         (na * static_cast<double>(std::max(m, n)) *
          std::numeric_limits<double>::epsilon());
}

}  // namespace camult::tiled
