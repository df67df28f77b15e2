#include "tiled/tile_lu.hpp"

#include <cassert>
#include <string>

#include "blas/blas.hpp"
#include "lapack/getrf.hpp"
#include "lapack/laswp.hpp"

namespace camult::tiled {
namespace {

using rt::AccessMode;
using rt::TaskKind;

// GESSM: apply the diagonal-tile GETRF to a trailing block of the same tile
// rows: permute, unit-lower solve on the top jb rows, then eliminate the
// tile rows below jb (rk > jb only at ragged edges).
void gessm(const TileLuStep& s, MatrixView c) {
  lapack::laswp(c, 0, s.jb, s.leaf_ipiv);
  blas::trsm(blas::Side::Left, blas::Uplo::Lower, blas::Trans::NoTrans,
             blas::Diag::Unit, 1.0, s.leaf_l.view().block(0, 0, s.jb, s.jb),
             c.rows_range(0, s.jb));
  if (s.rk > s.jb) {
    blas::gemm(blas::Trans::NoTrans, blas::Trans::NoTrans, -1.0,
               s.leaf_l.view().block(s.jb, 0, s.rk - s.jb, s.jb),
               c.rows_range(0, s.jb), 1.0, c.rows_range(s.jb, s.rk - s.jb));
  }
}

}  // namespace

TileLuResult tile_lu_factor(MatrixView a, const TileLuOptions& opts) {
  const idx m = a.rows();
  const idx n = a.cols();
  const idx k_total = std::min(m, n);
  const idx b = std::max<idx>(1, std::min(opts.b, k_total));
  const idx n_steps = (k_total + b - 1) / b;
  const idx m_tiles = (m + b - 1) / b;

  TileLuResult result;
  result.m = m;
  result.n = n;
  result.b = b;
  result.steps.resize(static_cast<std::size_t>(n_steps));
  std::vector<idx> infos(static_cast<std::size_t>(n_steps), 0);

  rt::TaskGraph graph({opts.num_threads, opts.record_trace});
  // Per-step keys: the diagonal tile's GETRF, and each TSTRF of the chain.
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
    TileLuStep& S = result.steps[static_cast<std::size_t>(k)];
    S.row0 = row0;
    S.rk = rk;
    S.jb = jb;
    const idx n_below = m_tiles - (k + 1);
    S.chain_row.resize(static_cast<std::size_t>(std::max<idx>(n_below, 0)));
    S.chain.resize(static_cast<std::size_t>(std::max<idx>(n_below, 0)));

    const int it = static_cast<int>(k);
    const auto segments = rt::trailing_segments(row0, jb, b, n);

    // GETRF: partial-pivoting LU of the diagonal tile.
    {
      TileLuStep* Sp = &S;
      idx* info_slot = &infos[static_cast<std::size_t>(k)];
      MatrixView tile = a.block(row0, row0, rk, jb);
      graph.submit_accessing(
          {{rt::block_key(k, k), AccessMode::ReadWrite},
           {leaf.key(k), AccessMode::Write}},
          {panel_prio(k), TaskKind::Panel, it, "getrf"},
          [Sp, tile, info_slot]() {
            const idx info = lapack::rgetf2(tile, Sp->leaf_ipiv);
            if (info != 0) *info_slot = info;
            Sp->leaf_l = Matrix::zeros(Sp->rk, Sp->jb);
            for (idx j = 0; j < Sp->jb; ++j) {
              Sp->leaf_l(j, j) = 1.0;
              for (idx i = j + 1; i < Sp->rk; ++i) {
                Sp->leaf_l(i, j) = tile(i, j);
              }
            }
          });
    }

    // GESSM per trailing segment.
    for (const rt::ColSegment& seg : segments) {
      TileLuStep* Sp = &S;
      MatrixView c = a.block(row0, seg.col0, rk, seg.cols);
      graph.submit_accessing(
          {{leaf.key(k), AccessMode::Read},
           {rt::block_key(k, seg.jblk), AccessMode::ReadWrite}},
          {update_prio(k, seg.jblk), TaskKind::UFactor, it,
           "gessm j" + std::to_string(seg.jblk)},
          [Sp, c]() { gessm(*Sp, c); });
    }

    // TSTRF chain + SSSSM updates.
    for (idx ti = k + 1; ti < m_tiles; ++ti) {
      const idx ri = std::min(b, m - ti * b);
      const idx slot = ti - (k + 1);
      S.chain_row[static_cast<std::size_t>(slot)] = ti * b;
      {
        TileLuStep* Sp = &S;
        idx* info_slot = &infos[static_cast<std::size_t>(k)];
        MatrixView u_tile = a.block(row0, row0, jb, jb);
        MatrixView full = a.block(ti * b, row0, ri, jb);
        graph.submit_accessing(
            {{rt::block_key(k, k), AccessMode::ReadWrite},
             {rt::block_key(ti, k), AccessMode::ReadWrite},
             {node.key(k, ti), AccessMode::Write}},
            {panel_prio(k), TaskKind::Panel, it,
             "tstrf i" + std::to_string(ti)},
            [Sp, u_tile, full, slot, info_slot]() {
              Sp->chain[static_cast<std::size_t>(slot)] = tstrf(u_tile, full);
              const idx info = Sp->chain[static_cast<std::size_t>(slot)].info;
              if (info != 0 && *info_slot == 0) *info_slot = info;
            });
      }
      for (const rt::ColSegment& seg : segments) {
        TileLuStep* Sp = &S;
        MatrixView c_top = a.block(row0, seg.col0, jb, seg.cols);
        MatrixView c_bot = a.block(ti * b, seg.col0, ri, seg.cols);
        graph.submit_accessing(
            {{node.key(k, ti), AccessMode::Read},
             {rt::block_key(k, seg.jblk), AccessMode::ReadWrite},
             {rt::block_key(ti, seg.jblk), AccessMode::ReadWrite}},
            {update_prio(k, seg.jblk), TaskKind::Update, it,
             "ssssm i" + std::to_string(ti) + " j" + std::to_string(seg.jblk)},
            [Sp, c_top, c_bot, slot]() {
              ssssm(Sp->chain[static_cast<std::size_t>(slot)], c_top, c_bot);
            });
      }
    }
  }

  graph.wait();
  for (idx k = 0; k < n_steps; ++k) {
    if (infos[static_cast<std::size_t>(k)] != 0) {
      result.info = k * b + infos[static_cast<std::size_t>(k)];
      break;
    }
  }
  if (opts.record_trace) {
    result.trace = graph.trace();
    result.edges = graph.edges();
  }
  result.sched = graph.stats();
  return result;
}

void tile_lu_forward(const TileLuResult& f, MatrixView rhs) {
  assert(rhs.rows() == f.m);
  for (const TileLuStep& S : f.steps) {
    gessm(S, rhs.block(S.row0, 0, S.rk, rhs.cols()));
    for (std::size_t s = 0; s < S.chain.size(); ++s) {
      const idx ri = S.chain[s].l.rows() - S.jb;
      ssssm(S.chain[s], rhs.block(S.row0, 0, S.jb, rhs.cols()),
            rhs.block(S.chain_row[s], 0, ri, rhs.cols()));
    }
  }
}

void tile_lu_solve(const TileLuResult& f, ConstMatrixView a_factored,
                   MatrixView rhs) {
  assert(f.m == f.n);
  tile_lu_forward(f, rhs);
  blas::trsm(blas::Side::Left, blas::Uplo::Upper, blas::Trans::NoTrans,
             blas::Diag::NonUnit, 1.0, a_factored, rhs);
}

}  // namespace camult::tiled
