// householder.hpp — elementary reflector kernels (dlarfg / dlarf).
//
// A reflector is H = I - tau * [1; v] * [1; v]^T with the leading 1 implicit:
// only the tail v is stored (below the diagonal of the factored matrix).
#pragma once

#include "matrix/view.hpp"

namespace camult::lapack {

/// Generate a reflector annihilating x: on entry alpha is the pivot element
/// and x the n-1 tail elements; on exit alpha = beta (the resulting diagonal
/// value), x = v (the stored tail), and the return value is tau.
double larfg(idx n, double& alpha, double* x, idx incx);

/// Apply H = I - tau [1; v_tail] [1; v_tail]^T from the left to C
/// (C has 1 + len(v_tail) rows). work must hold C.cols() doubles.
void apply_reflector_left(double tau, const double* v_tail, MatrixView c,
                          double* work);

/// The same reflector applied to the stacked [top; below], where `top` is
/// the one row the implicit 1 meets and `below` has len(v_tail) rows; the
/// two need not be adjacent (the TS kernel's R row and its B block).
void apply_reflector_left(double tau, const double* v_tail, MatrixView top,
                          MatrixView below, double* work);

}  // namespace camult::lapack
