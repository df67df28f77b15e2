// trsm.hpp — triangular solve with multiple right-hand sides.
//
//   Side::Left :  op(A) * X = alpha * B
//   Side::Right:  X * op(A) = alpha * B
//
// X overwrites B. A is the triangular n_tri x n_tri matrix (n_tri = rows of
// B for Left, cols of B for Right); only the referenced triangle is read.
//
// The implementation is recursive: the triangle is split in half and the
// rectangular off-diagonal work is routed through gemm, so large solves run
// at BLAS-3 speed. Small base cases run down contiguous columns of B: one
// trsv per column for Left, fused column axpys for Right. A Right solve
// sweeps B in row blocks (the rows of X are independent) sized so that a
// block stays L2-resident through the whole recursion.
#pragma once

#include "blas/types.hpp"
#include "matrix/view.hpp"

namespace camult::blas {

void trsm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView a, MatrixView b);

/// Rows of B one Side::Right solve handles at a time for an n_tri x n_tri
/// triangle: about 256 KiB of B, a multiple of 16. Depends on n_tri only,
/// so the row partition (and the bits of X) never depend on the caller.
idx trsm_right_row_block(idx n_tri);

}  // namespace camult::blas
