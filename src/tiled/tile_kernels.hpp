// tile_kernels.hpp — tile-algorithm kernels (PLASMA-style baselines).
//
// These implement the Buttari/Langou/Kurzak/Dongarra tiled one-sided
// factorizations the paper compares against as "PLASMA":
//  * QR:  GEQRT (tile QR), TSQRT (QR of [R; tile]), and their updates.
//  * LU:  GETRF (tile LU with partial pivoting inside the tile), TSTRF
//         (LU of [U; tile] — pairwise/incremental pivoting), and updates.
//
// Stacked factors are stored in per-step buffers (not back into the tiles),
// which keeps the tiles' own reflector/multiplier storage intact and makes
// the op-log replayable for solves and Q applications. TSQRT/TSMQR are the
// structured TS kernel pair lapack::tpqrt/tpmqrt (R's zero lower triangle
// costs nothing, and C is updated in place); TSTRF/SSSSM stack [U; tile]
// for GEPP.
#pragma once

#include <vector>

#include "blas/pack.hpp"
#include "blas/types.hpp"
#include "matrix/matrix.hpp"
#include "matrix/permutation.hpp"

namespace camult::tiled {

/// --- QR kernels -------------------------------------------------------

/// Factors of a TSQRT step: QR of the stack [R_top (triangle); full tile]
/// on the TS kernel lapack::tpqrt, so V = [I; v].
struct TsqrtFactors {
  Matrix v;  ///< rb x b reflector block V_B (a factored copy of the tile)
  Matrix t;  ///< b x b T factor
};

/// QR-factor [upper triangle of r_tile stacked on full_tile]; writes the new
/// R into r_tile's upper triangle (its strictly lower part is untouched).
/// full_tile is read only: V_B lands in the factors' copy of it.
TsqrtFactors tsqrt(MatrixView r_tile, ConstMatrixView full_tile);

/// Apply the TSQRT reflectors (Q^T for Trans) to the stacked pair
/// [c_top; c_bot] in place.
void tsmqr(blas::Trans trans, const TsqrtFactors& f, MatrixView c_top,
           MatrixView c_bot);

/// --- LU kernels -------------------------------------------------------

/// Factors of a TSTRF step: GEPP of the stack [U_top (triangle); full tile].
/// The step packs its L2 block once (l2pack): a tile-algorithm step is
/// applied across an entire trailing tile row, and at replay time again per
/// solve column, so the packing cost amortizes over every later ssssm.
struct TstrfFactors {
  Matrix l;          ///< 2b x b unit-lower-trapezoidal L of the stack
  PivotVector ipiv;  ///< swap sequence over the 2b stacked rows
  idx info = 0;
  blas::PackedPanel l2pack;  ///< packed bottom block of l, shared by ssssm
};

/// LU-factor [upper triangle of u_tile stacked on full_tile] with partial
/// pivoting; writes the new U into u_tile's upper triangle and the tile's
/// block of L into full_tile (for inspection; the authoritative L lives in
/// the returned factors).
TstrfFactors tstrf(MatrixView u_tile, MatrixView full_tile);

/// Apply a TSTRF step to the stacked right-hand pair [c_top; c_bot]:
/// permute, solve against L_top, update the bottom.
void ssssm(const TstrfFactors& f, MatrixView c_top, MatrixView c_bot);

}  // namespace camult::tiled
