#include "tiled/tile_cholesky.hpp"

#include <cassert>
#include <string>

#include "blas/blas.hpp"
#include "lapack/potrf.hpp"

namespace camult::tiled {

TileCholeskyResult tile_cholesky_factor(MatrixView a,
                                        const TileCholeskyOptions& opts) {
  assert(a.rows() == a.cols());
  const idx n = a.rows();
  const idx b = std::max<idx>(1, std::min(opts.b, n));
  const idx nt = (n + b - 1) / b;

  TileCholeskyResult result;
  result.n = n;
  result.b = b;
  std::vector<idx> infos(static_cast<std::size_t>(nt), 0);

  using rt::AccessMode;
  using rt::TaskKind;
  rt::TaskGraph graph({opts.num_threads, opts.record_trace});
  auto panel_prio = [](idx k) {
    return 2000000000 - static_cast<int>(k) * 4;
  };
  auto update_prio = [](idx k, idx j) {
    return 1000000 - static_cast<int>(k * 1000 + (j - k));
  };
  auto tile_at = [&](idx ti, idx tj) {
    const idx rows = std::min(b, n - ti * b);
    const idx cols = std::min(b, n - tj * b);
    return a.block(ti * b, tj * b, rows, cols);
  };

  for (idx k = 0; k < nt; ++k) {
    const int it = static_cast<int>(k);
    {  // POTRF(k)
      MatrixView akk = tile_at(k, k);
      idx* info_slot = &infos[static_cast<std::size_t>(k)];
      graph.submit_accessing({{rt::block_key(k, k), AccessMode::ReadWrite}},
                             {panel_prio(k), TaskKind::Panel, it, "potrf"},
                             [akk, info_slot]() {
                               const idx info = lapack::potf2(akk);
                               if (info != 0) *info_slot = info;
                             });
    }
    for (idx i = k + 1; i < nt; ++i) {  // TRSM(i, k)
      MatrixView akk = tile_at(k, k);
      MatrixView aik = tile_at(i, k);
      graph.submit_accessing(
          {{rt::block_key(k, k), AccessMode::Read},
           {rt::block_key(i, k), AccessMode::ReadWrite}},
          {panel_prio(k) - 2, TaskKind::LFactor, it,
           "trsm i" + std::to_string(i)},
          [akk, aik]() {
            blas::trsm(blas::Side::Right, blas::Uplo::Lower,
                       blas::Trans::Trans, blas::Diag::NonUnit, 1.0,
                       ConstMatrixView(akk), aik);
          });
    }
    for (idx j = k + 1; j < nt; ++j) {
      {  // SYRK(j, k): diagonal tile update
        MatrixView ajk = tile_at(j, k);
        MatrixView ajj = tile_at(j, j);
        graph.submit_accessing(
            {{rt::block_key(j, k), AccessMode::Read},
             {rt::block_key(j, j), AccessMode::ReadWrite}},
            {update_prio(k, j), TaskKind::Update, it,
             "syrk j" + std::to_string(j)},
            [ajk, ajj]() {
              blas::syrk(blas::Uplo::Lower, blas::Trans::NoTrans, -1.0,
                         ConstMatrixView(ajk), 1.0, ajj);
            });
      }
      for (idx i = j + 1; i < nt; ++i) {  // GEMM(i, j, k)
        MatrixView aik = tile_at(i, k);
        MatrixView ajk = tile_at(j, k);
        MatrixView aij = tile_at(i, j);
        graph.submit_accessing(
            {{rt::block_key(i, k), AccessMode::Read},
             {rt::block_key(j, k), AccessMode::Read},
             {rt::block_key(i, j), AccessMode::ReadWrite}},
            {update_prio(k, j), TaskKind::Update, it,
             "gemm i" + std::to_string(i) + " j" + std::to_string(j)},
            [aik, ajk, aij]() {
              blas::gemm(blas::Trans::NoTrans, blas::Trans::Trans, -1.0, aik,
                         ajk, 1.0, aij);
            });
      }
    }
  }

  graph.wait();
  for (idx k = 0; k < nt; ++k) {
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

}  // namespace camult::tiled
