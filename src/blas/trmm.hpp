// trmm.hpp — triangular matrix-matrix multiply.
//
//   Side::Left :  B := alpha * op(A) * B
//   Side::Right:  B := alpha * B * op(A)
//
// A is triangular; only the referenced triangle is read. Recursive blocking
// routes the bulk of the work through gemm (needed because larfb spends a
// significant fraction of its flops here). Small base cases run down
// contiguous columns of B: one trmv per column for Left, fused column axpys
// for Right.
#pragma once

#include "blas/types.hpp"
#include "matrix/view.hpp"

namespace camult::blas {

void trmm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView a, MatrixView b);

}  // namespace camult::blas
