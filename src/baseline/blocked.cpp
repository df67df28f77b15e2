#include "baseline/blocked.hpp"

#include <memory>
#include <string>

#include "blas/blas.hpp"
#include "lapack/geqrf.hpp"
#include "lapack/getrf.hpp"
#include "lapack/laswp.hpp"
#include "matrix/matrix.hpp"

namespace camult::baseline {

using rt::AccessMode;
using rt::BlockAccess;
using rt::TaskKind;

BlockedLuResult blocked_getrf(MatrixView a, const BlockedOptions& opts) {
  const idx m = a.rows();
  const idx n = a.cols();
  const idx k_total = std::min(m, n);
  const idx b = std::max<idx>(1, std::min(opts.nb, k_total));
  const idx n_panels = (k_total + b - 1) / b;
  const idx m_blocks = (m + b - 1) / b;

  BlockedLuResult result;
  result.ipiv.assign(static_cast<std::size_t>(k_total), 0);
  std::vector<idx> infos(static_cast<std::size_t>(n_panels), 0);

  // Panel-local pivot vectors, kept alive for deferred left swaps.
  auto panel_piv = std::make_unique<std::vector<PivotVector>>(
      static_cast<std::size_t>(n_panels));
  std::vector<idx> panel_jb(static_cast<std::size_t>(n_panels), 0);

  rt::TaskGraph graph({opts.num_threads, opts.record_trace});
  const rt::KeySpace piv_keys = graph.key_space(1);  // panel k's pivots
  auto base_prio = [&](idx k) {
    return static_cast<int>((n_panels - k) * 1000);
  };

  for (idx k = 0; k < n_panels; ++k) {
    const idx row0 = k * b;
    const idx jb = std::min(b, k_total - row0);
    panel_jb[static_cast<std::size_t>(k)] = jb;
    const idx panel_rows = m - row0;

    // Serial panel task (the vendor bottleneck).
    {
      std::vector<BlockAccess> acc;
      rt::add_tile_range(acc, k, m_blocks, k, AccessMode::ReadWrite);
      acc.push_back({piv_keys.key(k), AccessMode::Write});
      rt::TaskOptions topts;
      topts.kind = TaskKind::Panel;
      topts.iteration = static_cast<int>(k);
      topts.priority = base_prio(k) + 900;
      topts.label = "panel";
      MatrixView panel = a.block(row0, row0, panel_rows, jb);
      PivotVector* piv = &(*panel_piv)[static_cast<std::size_t>(k)];
      PivotVector* gipiv = &result.ipiv;
      idx* info_slot = &infos[static_cast<std::size_t>(k)];
      graph.submit_accessing(
          acc, std::move(topts), [panel, piv, gipiv, info_slot, row0, jb]() {
            const idx info = lapack::rgetf2(panel, *piv);
            if (info != 0) *info_slot = info;
            for (idx j = 0; j < jb; ++j) {
              (*gipiv)[static_cast<std::size_t>(row0 + j)] =
                  row0 + (*piv)[static_cast<std::size_t>(j)];
            }
          });
    }

    // Trailing update: per column segment, a swap+trsm task, then gemm
    // tasks over row strips.
    const auto segments = rt::trailing_segments(row0, jb, b, n);
    const idx below_rows = panel_rows - jb;
    const idx strip = [&] {
      if (below_rows <= 0 || opts.strips <= 0) return below_rows;
      const idx blocks = (below_rows + b - 1) / b;
      const idx per = (blocks + opts.strips - 1) / opts.strips;
      return per * b;
    }();

    for (const rt::ColSegment& seg : segments) {
      {
        std::vector<BlockAccess> acc;
        acc.push_back({piv_keys.key(k), AccessMode::Read});
        acc.push_back({rt::block_key(k, k), AccessMode::Read});
        rt::add_tile_range(acc, k, m_blocks, seg.jblk, AccessMode::ReadWrite);
        rt::TaskOptions topts;
        topts.kind = TaskKind::UFactor;
        topts.iteration = static_cast<int>(k);
        topts.priority = base_prio(k) +
                         static_cast<int>(std::max<idx>(0, 100 - (seg.jblk - k)));
        topts.label = "swap+trsm j" + std::to_string(seg.jblk);
        MatrixView col = a.block(row0, seg.col0, panel_rows, seg.cols);
        MatrixView lkk = a.block(row0, row0, jb, jb);
        PivotVector* piv = &(*panel_piv)[static_cast<std::size_t>(k)];
        graph.submit_accessing(acc, std::move(topts), [col, lkk, piv, jb]() {
          lapack::laswp(col, 0, jb, *piv);
          blas::trsm(blas::Side::Left, blas::Uplo::Lower,
                     blas::Trans::NoTrans, blas::Diag::Unit, 1.0, lkk,
                     col.rows_range(0, jb));
        });
      }
      for (idx s0 = 0; s0 < below_rows; s0 += strip) {
        const idx srows = std::min(strip, below_rows - s0);
        std::vector<BlockAccess> acc;
        const idx tile0 = k + (jb + s0) / b;
        const idx tile1 = k + (jb + s0 + srows + b - 1) / b;
        rt::add_tile_range(acc, tile0, tile1, k, AccessMode::Read);
        acc.push_back({rt::block_key(k, seg.jblk), AccessMode::Read});
        rt::add_tile_range(acc, tile0, tile1, seg.jblk, AccessMode::ReadWrite);
        rt::TaskOptions topts;
        topts.kind = TaskKind::Update;
        topts.iteration = static_cast<int>(k);
        topts.priority = base_prio(k) +
                         static_cast<int>(std::max<idx>(0, 100 - (seg.jblk - k)));
        topts.label = "gemm j" + std::to_string(seg.jblk);
        MatrixView lblk = a.block(row0 + jb + s0, row0, srows, jb);
        MatrixView ublk = a.block(row0, seg.col0, jb, seg.cols);
        MatrixView cblk = a.block(row0 + jb + s0, seg.col0, srows, seg.cols);
        graph.submit_accessing(acc, std::move(topts), [lblk, ublk, cblk]() {
          blas::gemm(blas::Trans::NoTrans, blas::Trans::NoTrans, -1.0, lblk,
                     ublk, 1.0, cblk);
        });
      }
    }
  }

  // Deferred left swaps, one task per column block.
  const idx n_blocks = (n + b - 1) / b;
  for (idx jblk = 0; jblk < n_blocks && jblk * b < k_total; ++jblk) {
    const idx jcol0 = jblk * b;
    const idx jcols = std::min(b, n - jcol0);
    std::vector<BlockAccess> acc;
    for (idx kk = jblk + 1; kk < n_panels; ++kk) {
      acc.push_back({piv_keys.key(kk), AccessMode::Read});
    }
    if (acc.empty()) continue;
    rt::add_tile_range(acc, jblk + 1, m_blocks, jblk, AccessMode::ReadWrite);
    rt::TaskOptions topts;
    topts.kind = TaskKind::Generic;
    topts.label = "lswap j" + std::to_string(jblk);
    MatrixView colv = a.block(0, jcol0, m, jcols);
    std::vector<PivotVector>* pivs = panel_piv.get();
    std::vector<idx>* jbs = &panel_jb;
    const idx j_here = jblk;
    graph.submit_accessing(
        acc, std::move(topts), [colv, pivs, jbs, j_here, b, n_panels]() {
          for (idx kk = j_here + 1; kk < n_panels; ++kk) {
            MatrixView below = colv.trailing(kk * b, 0);
            lapack::laswp(below, 0, (*jbs)[static_cast<std::size_t>(kk)],
                          (*pivs)[static_cast<std::size_t>(kk)]);
          }
        });
  }

  graph.wait();
  for (idx k = 0; k < n_panels; ++k) {
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

BlockedQrResult blocked_geqrf(MatrixView a, const BlockedOptions& opts) {
  const idx m = a.rows();
  const idx n = a.cols();
  const idx k_total = std::min(m, n);
  const idx b = std::max<idx>(1, std::min(opts.nb, k_total));
  const idx n_panels = (k_total + b - 1) / b;
  const idx m_blocks = (m + b - 1) / b;

  BlockedQrResult result;
  result.tau.assign(static_cast<std::size_t>(k_total), 0.0);

  // Panel T factors kept alive until the graph drains.
  std::vector<std::unique_ptr<Matrix>> ts(static_cast<std::size_t>(n_panels));

  rt::TaskGraph graph({opts.num_threads, opts.record_trace});
  auto base_prio = [&](idx k) {
    return static_cast<int>((n_panels - k) * 1000);
  };

  for (idx k = 0; k < n_panels; ++k) {
    const idx row0 = k * b;
    const idx jb = std::min(b, k_total - row0);
    const idx panel_rows = m - row0;
    ts[static_cast<std::size_t>(k)] =
        std::make_unique<Matrix>(Matrix::zeros(jb, jb));
    Matrix* tmat = ts[static_cast<std::size_t>(k)].get();

    {
      std::vector<BlockAccess> acc;
      rt::add_tile_range(acc, k, m_blocks, k, AccessMode::ReadWrite);
      rt::TaskOptions topts;
      topts.kind = TaskKind::Panel;
      topts.iteration = static_cast<int>(k);
      topts.priority = base_prio(k) + 900;
      topts.label = "panel";
      MatrixView panel = a.block(row0, row0, panel_rows, jb);
      std::vector<double>* gtau = &result.tau;
      graph.submit_accessing(
          acc, std::move(topts), [panel, tmat, gtau, row0, jb]() {
            std::vector<double> tau;
            lapack::geqr3(panel, tau, tmat->view());
            for (idx j = 0; j < jb; ++j) {
              (*gtau)[static_cast<std::size_t>(row0 + j)] =
                  tau[static_cast<std::size_t>(j)];
            }
          });
    }

    for (const rt::ColSegment& seg : rt::trailing_segments(row0, jb, b, n)) {
      std::vector<BlockAccess> acc;
      rt::add_tile_range(acc, k, m_blocks, k, AccessMode::Read);
      rt::add_tile_range(acc, k, m_blocks, seg.jblk, AccessMode::ReadWrite);
      rt::TaskOptions topts;
      topts.kind = TaskKind::Update;
      topts.iteration = static_cast<int>(k);
      topts.priority = base_prio(k) +
                       static_cast<int>(std::max<idx>(0, 100 - (seg.jblk - k)));
      topts.label = "larfb j" + std::to_string(seg.jblk);
      ConstMatrixView panel = a.block(row0, row0, panel_rows, jb);
      MatrixView c = a.block(row0, seg.col0, panel_rows, seg.cols);
      graph.submit_accessing(acc, std::move(topts), [panel, tmat, c]() {
        lapack::larfb_left(blas::Trans::Trans, panel, tmat->view(), c);
      });
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

}  // namespace camult::baseline
