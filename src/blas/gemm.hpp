// gemm.hpp — general matrix multiply, the BLAS-3 workhorse of every
// factorization in this library.
//
// C = alpha * op(A) * op(B) + beta * C
//
// Two paths, both on the kernel variant (scalar / AVX2 / AVX-512) picked at
// RUNTIME from cpuid — see kernel.hpp:
//  * Packed: a GotoBLAS-style blocked algorithm. A and B are packed into
//    contiguous cache-resident panels and a register-blocked MR x NR
//    microkernel computes each C tile, over pack.hpp's fixed cache blocking
//    (contraction blocks of kGemmKC). All four transpose combinations are
//    supported; transposition is absorbed by packing.
//  * Inner product: C += alpha * A^T * B (Trans, NoTrans) with a narrow C
//    and a long contraction — QR's W = C^T V and T12 = V1^T V2 — reads the
//    contiguous columns of A and B in place, one dot product per C
//    element, over contraction blocks of kInnerKc. Packing a narrow result
//    wastes most of each register tile, so the packed path runs these
//    shapes at a fraction of its rate. The rule is inner_product_shape
//    below; it reads (m, n, k) only, never the data or its layout.
//  * Short product: C += alpha * A * op(B) (NoTrans, NoTrans or Trans) with
//    a narrow C and a short contraction — rgetf2's Schur updates below its
//    top level, the right-side trsm's, and QR's C2 -= V2 W^T — reads A's
//    columns in place and broadcasts op(B) through its row and column
//    strides, on the microkernel's tile and FMA chain, so it gives the
//    packed path's bits without paying to pack a panel the tile barely
//    reuses. The rule is short_product_shape below, again (m, n, k) only.
// The packing half of the pipeline (pack_a/pack_b/PackedPanel and the
// per-thread scratch pool) lives in pack.hpp; gemm_packed below consumes a
// pre-packed operand so repeated multiplies against the same panel — the
// CALU/CAQR trailing-update pattern — pay for packing once.
#pragma once

#include "blas/kernel.hpp"
#include "blas/pack.hpp"
#include "blas/types.hpp"
#include "matrix/view.hpp"

namespace camult::blas {

/// Shape contract: op(A) is m x k, op(B) is k x n, C is m x n.
/// (Trans, NoTrans) takes the inner-product path when
/// inner_product_shape(m, n, k). Any other call below 16^3 flops takes a
/// direct triple loop; above it, (NoTrans, NoTrans) and (NoTrans, Trans)
/// take the short-product path when short_product_shape(m, n, k), and the
/// rest the packed path.
void gemm(Trans transa, Trans transb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c);

/// The inner-product rule, from the sweep in docs/benchmarks.md § CAQR leaf
/// kernel: C at most kInnerMaxWidth wide in both dimensions and a
/// contraction at least twice its wider side. kInnerKc is the contraction
/// block; one block of A and B columns, (m + n) * kInnerKc doubles, is at
/// most 2 MiB, one L2.
inline constexpr idx kInnerMaxWidth = 256;
inline constexpr idx kInnerKc = 512;

constexpr bool inner_product_shape(idx m, idx n, idx k) {
  const idx w = m > n ? m : n;
  return w <= kInnerMaxWidth && k >= 2 * w;
}

/// C += alpha * A^T * B on the inner-product path whatever the shape (A is
/// k x m, B is k x n). gemm routes here by inner_product_shape; gemv(Trans)
/// with incx == 1 is its n = 1 case. Each element's bits depend only on
/// its own A and B columns, k and the active kernel.
void gemm_inner(double alpha, ConstMatrixView a, ConstMatrixView b,
                MatrixView c);

/// The short-product rule, from the sweep in docs/benchmarks.md § Short QR
/// updates (NoTrans and Trans B, AVX-512 and AVX2): a contraction of at
/// most kShortMaxDepth, and C at most kShortAnyRowsWidth columns wide, or
/// at most kShortMaxWidth wide with at most kShortMaxCElems elements (4
/// MiB). A wider C beyond that streams from memory in one-tile runs per
/// column, where the packed path's longer runs win. gemm checks the rule
/// after the 16^3 cutoff, so every routed shape is one the packed path took
/// before, and it gets the packed path's bits (the packed path holds k <=
/// kShortMaxDepth in one kc block).
inline constexpr idx kShortMaxDepth = 32;
inline constexpr idx kShortMaxWidth = 32;
inline constexpr idx kShortAnyRowsWidth = 8;
inline constexpr idx kShortMaxCElems = idx{1} << 19;
static_assert(kShortMaxDepth <= kGemmKC,
              "a routed contraction must fit one packed kc block");

constexpr bool short_product_shape(idx m, idx n, idx k) {
  return k <= kShortMaxDepth &&
         (n <= kShortAnyRowsWidth ||
          (n <= kShortMaxWidth && m * n <= kShortMaxCElems));
}

/// C = alpha * Ap * op(B) + beta * C, where Ap was built by pack_a().
/// Always takes the blocked-microkernel path (no small-case shortcut), so
/// results are bit-identical to the blocked path of gemm() and independent
/// of how the trailing matrix is split into column segments along n.
/// The panel is read-only: concurrent calls may share one PackedPanel.
void gemm_packed(double alpha, const PackedPanel& a_packed, Trans transb,
                 ConstMatrixView b, double beta, MatrixView c);

/// C = alpha * op(A) * Bp + beta * C, where Bp was built by pack_b().
void gemm_packed(Trans transa, double alpha, ConstMatrixView a,
                 const PackedPanel& b_packed, double beta, MatrixView c);

}  // namespace camult::blas
