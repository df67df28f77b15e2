// geqrf.hpp — Householder QR factorizations.
//
//  * geqr2: unblocked BLAS-2 QR (LAPACK dgeqr2) — the paper's "MKL_dgeqr2"
//    baseline class.
//  * larft/larfb: compact-WY block reflector formation/application.
//  * geqrf: blocked right-looking QR (LAPACK dgeqrf).
//  * geqr3: recursive QR (Elmroth–Gustavson) returning the full T factor —
//    the fast sequential kernel used inside TSQR.
//  * tpqrt/tpmqrt: the triangle-on-square TS kernel (LAPACK dtpqrt/dtpmqrt
//    with l = 0) — QR of [R; B] with R upper triangular, recursing like
//    geqr3. A chunked TSQR leaf and the tiled baseline's TSQRT/TSMQR run
//    on it.
//
// Factored form: the upper triangle of A holds R; the Householder tails v_j
// are stored below the diagonal (unit diagonal implicit); tau[j] are the
// reflector scalars.
#pragma once

#include <vector>

#include "blas/pack.hpp"
#include "blas/types.hpp"
#include "matrix/view.hpp"

namespace camult::lapack {

/// Unblocked QR. tau is resized to min(m, n).
void geqr2(MatrixView a, std::vector<double>& tau);

/// Form the k x k upper triangular T of the compact-WY representation
/// H_1 ... H_k = I - V T V^T (forward, columnwise storage). v is m x k
/// (m >= k) with implicit unit lower-trapezoidal structure (upper part
/// ignored). Every V(:, j)^T V(:, i) comes from one V^T V inner product;
/// t's strictly lower part is not written.
void larft(ConstMatrixView v, const double* tau, MatrixView t);

/// Apply a compact-WY block reflector from the left:
///   C := (I - V T V^T) C        (Trans::NoTrans)
///   C := (I - V T^T V^T) C      (Trans::Trans, i.e. H^T C = Q^T C... )
///
/// Note Q = H_1...H_k = I - V T V^T, so Trans::Trans applies Q^T.
/// V is m x k unit lower-trapezoidal (upper part ignored), C is m x n.
void larfb_left(blas::Trans trans, ConstMatrixView v, ConstMatrixView t,
                MatrixView c);

/// Pre-packed rectangular part of a reflector block for larfb_left. V2
/// (rows k..m of V) enters two gemms — once as the B operand (W += C2^T V2)
/// and once as the A operand (C2 -= V2 W^T) — so both packings are kept.
/// V1 (the unit lower triangle) is consumed by trmm straight from v.
/// Build once per panel, then share read-only across every trailing column
/// segment the reflector is applied to.
struct LarfbPackedV {
  blas::PackedPanel v2_a;  ///< pack_a(V2, NoTrans)
  blas::PackedPanel v2_b;  ///< pack_b(V2, NoTrans)
  bool empty() const { return v2_a.empty(); }
};

/// Pack V2 of an m x k reflector block for packed larfb_left application.
LarfbPackedV larfb_pack_v(ConstMatrixView v);

/// larfb_left consuming the pre-packed V2 (vp must come from larfb_pack_v
/// on the same v). Safe to call concurrently with shared v/t/vp as long as
/// the c blocks are disjoint.
void larfb_left(blas::Trans trans, ConstMatrixView v, ConstMatrixView t,
                const LarfbPackedV& vp, MatrixView c);

struct GeqrfOptions {
  idx nb = 64;  ///< panel width
  bool recursive_panel = true;  ///< use geqr3 for the panel (else geqr2)
};

/// Blocked QR. tau is resized to min(m, n).
void geqrf(MatrixView a, std::vector<double>& tau,
           const GeqrfOptions& opts = {});

/// geqr3's and tpqrt's recursions stop at blocks of at most this many
/// columns, from the sweeps in docs/benchmarks.md § CAQR leaf kernel and
/// § Short QR updates.
inline constexpr idx kGeqr3Base = 8;

/// Recursive QR of an m x n matrix with m >= n. Fills tau (resized to n) and
/// the full n x n upper triangular T such that Q = I - V T V^T. Blocks of at
/// most kGeqr3Base columns are factored by geqr2 with T from larft.
/// Allocates nothing from the heap once the calling thread's scratch pool
/// is warm.
void geqr3(MatrixView a, std::vector<double>& tau, MatrixView t);

/// QR of the stack [R; B] (LAPACK dtpqrt with l = 0): R is the upper
/// triangle of the n x n view r (its strictly lower part is never read or
/// written) and B is any c x n block, c >= 0. On exit r's upper triangle
/// holds the new R, B holds V_B (the reflectors are V = [I; V_B]), tau[0:n]
/// the reflector scalars and t the n x n upper triangular T with
/// Q = I - V T V^T. Recurses like geqr3, so the products run on the
/// inner-product, short-product and packed gemm paths; allocates nothing
/// from the heap once the calling thread's scratch pool is warm.
void tpqrt(MatrixView r, MatrixView b, double* tau, MatrixView t);

/// Apply tpqrt's reflectors (v = V_B, c x k; t = T, k x k) to the stacked
/// [c_top; c_bot] in place: Q^T for Trans, Q for NoTrans. c_top has k rows
/// and c_bot c rows; they need not be adjacent.
void tpmqrt(blas::Trans trans, ConstMatrixView v, ConstMatrixView t,
            MatrixView c_top, MatrixView c_bot);

/// Pack all of V_B for packed tpmqrt (both gemm operand layouts, as
/// larfb_pack_v does for V2).
LarfbPackedV tpmqrt_pack_v(ConstMatrixView v);

/// tpmqrt consuming the pre-packed V_B (vp from tpmqrt_pack_v on the same
/// v). Safe to call concurrently with shared v/t/vp on disjoint c blocks.
void tpmqrt(blas::Trans trans, ConstMatrixView v, ConstMatrixView t,
            const LarfbPackedV& vp, MatrixView c_top, MatrixView c_bot);

/// Join the T factors of two adjacent reflector blocks, geqr3's T12 step:
/// v = [V1 V2] is m x n unit lower-trapezoidal with V1 its first n1
/// columns, and t holds T1 = T(0:n1, 0:n1) and T2 = T(n1:n, n1:n). Fills
/// T(0:n1, n1:n) = -T1 (V1^T V2) T2.
void larft_join(ConstMatrixView v, idx n1, MatrixView t);

}  // namespace camult::lapack
