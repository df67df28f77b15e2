#include "tiled/tile_kernels.hpp"

#include <cassert>

#include "blas/blas.hpp"
#include "lapack/geqrf.hpp"
#include "lapack/getrf.hpp"
#include "lapack/laswp.hpp"

namespace camult::tiled {

TsqrtFactors tsqrt(MatrixView r_tile, ConstMatrixView full_tile) {
  const idx cb = r_tile.rows();
  assert(r_tile.cols() == cb && full_tile.cols() == cb);
  TsqrtFactors f;
  f.v = Matrix::from(full_tile);
  f.t = Matrix::zeros(cb, cb);
  blas::ScratchBuffer tau(static_cast<std::size_t>(cb));
  lapack::tpqrt(r_tile, f.v.view(), tau.data(), f.t.view());
  return f;
}

void tsmqr(blas::Trans trans, const TsqrtFactors& f, MatrixView c_top,
           MatrixView c_bot) {
  lapack::tpmqrt(trans, f.v.view(), f.t.view(), c_top, c_bot);
}

TstrfFactors tstrf(MatrixView u_tile, MatrixView full_tile) {
  const idx cb = u_tile.rows();
  const idx rb = full_tile.rows();
  assert(u_tile.cols() == cb);
  assert(full_tile.cols() == cb);

  Matrix stack = Matrix::zeros(cb + rb, cb);
  for (idx j = 0; j < cb; ++j) {
    for (idx i = 0; i <= j; ++i) stack(i, j) = u_tile(i, j);
    for (idx i = 0; i < rb; ++i) stack(cb + i, j) = full_tile(i, j);
  }
  TstrfFactors f;
  f.info = lapack::rgetf2(stack.view(), f.ipiv);

  // New U back into the triangle; L kept in the factors (unit diagonal
  // explicit) and the tile's slice mirrored into the full tile for
  // inspection.
  f.l = Matrix::zeros(cb + rb, cb);
  for (idx j = 0; j < cb; ++j) {
    for (idx i = 0; i <= j; ++i) u_tile(i, j) = stack(i, j);
    for (idx i = j + 1; i < cb + rb; ++i) f.l(i, j) = stack(i, j);
    f.l(j, j) = 1.0;
  }
  for (idx j = 0; j < cb; ++j) {
    for (idx i = 0; i < rb; ++i) full_tile(i, j) = f.l(cb + i, j);
  }
  f.l2pack = blas::pack_a(f.l.view().block(cb, 0, rb, cb),
                          blas::Trans::NoTrans);
  return f;
}

void ssssm(const TstrfFactors& f, MatrixView c_top, MatrixView c_bot) {
  const idx cb = static_cast<idx>(f.ipiv.size());
  const idx rb = f.l.rows() - cb;
  assert(c_top.rows() == cb && c_bot.rows() == rb);
  assert(c_top.cols() == c_bot.cols());
  const idx w = c_top.cols();

  Matrix stacked(cb + rb, w);
  copy_into(c_top, stacked.view().rows_range(0, cb));
  copy_into(c_bot, stacked.view().rows_range(cb, rb));
  lapack::laswp(stacked.view(), 0, cb, f.ipiv);
  blas::trsm(blas::Side::Left, blas::Uplo::Lower, blas::Trans::NoTrans,
             blas::Diag::Unit, 1.0, f.l.view().block(0, 0, cb, cb),
             stacked.view().rows_range(0, cb));
  blas::gemm_packed(-1.0, f.l2pack, blas::Trans::NoTrans,
                    stacked.view().rows_range(0, cb), 1.0,
                    stacked.view().rows_range(cb, rb));
  copy_into(stacked.view().rows_range(0, cb), c_top);
  copy_into(stacked.view().rows_range(cb, rb), c_bot);
}

}  // namespace camult::tiled
