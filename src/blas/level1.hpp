// level1.hpp — BLAS level-1 vector kernels on strided vectors.
//
// Vectors are described by (pointer, length, stride) so both matrix columns
// (stride 1) and matrix rows (stride = ld) can be passed without copies.
#pragma once

#include "matrix/view.hpp"

namespace camult::blas {

/// Index of the element with the largest |value| (first on ties); -1 if
/// n <= 0. A NaN never wins unless it is x[0], which then wins. Unit-stride
/// calls run the active kernel variant's vectorised search (kernel.hpp),
/// which returns exactly the index of the scalar loop.
idx iamax(idx n, const double* x, idx incx);

/// x <-> y elementwise.
void swap(idx n, double* x, idx incx, double* y, idx incy);

/// x *= alpha.
void scal(idx n, double alpha, double* x, idx incx);

/// y += alpha * x.
void axpy(idx n, double alpha, const double* x, idx incx, double* y, idx incy);

/// y += alpha * sum_t c[t * incc] * x(:, t) over the `count` contiguous
/// columns x(:, t) = x + t * ldx of length m; y must not overlap them. The
/// terms are added in t order, one rounding each (the rounding of `count`
/// separate axpys), four columns per sweep over y. No zero-skip: a NaN in a
/// column reaches y even through a zero coefficient.
void axpy_columns(idx m, idx count, double alpha, const double* c, idx incc,
                  const double* x, idx ldx, double* y);

/// Sum of x_i * y_i.
double dot(idx n, const double* x, idx incx, const double* y, idx incy);

/// Euclidean norm: one unscaled sum of squares, rescanned with scaling
/// when that sum could have overflowed or underflowed.
double nrm2(idx n, const double* x, idx incx);

/// y = x.
void copy(idx n, const double* x, idx incx, double* y, idx incy);

/// Sum of |x_i|.
double asum(idx n, const double* x, idx incx);

}  // namespace camult::blas
