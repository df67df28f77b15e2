// tsqr.hpp — TSQR: communication-avoiding QR of a tall-skinny matrix
// (sequential driver; CAQR runs the same kernels as parallel tasks).
//
// Leaf QR factorizations run on Tr row blocks; a reduction tree then
// QR-factors stacked R factors until one R remains. A leaf taller than one
// cache-sized chunk is itself a sequential flat TSQR over its chunks
// (Demmel, Grigori, Hoemmen and Langou): geqr3 on the first chunk, then the
// TS kernel lapack::tpqrt of the leaf's R against each later chunk, so
// every row of the leaf is read once. The Q factor is implicit: leaf
// reflectors stay in the matrix (LAPACK layout in the first chunk, V_B in
// place in the others), tree-node reflectors live in per-node buffers.
// apply_q/apply_qt replay them, which is exactly how CAQR updates its
// trailing matrix.
#pragma once

#include <vector>

#include "blas/types.hpp"
#include "core/options.hpp"
#include "core/partition.hpp"
#include "core/tpqrt.hpp"
#include "lapack/geqrf.hpp"
#include "matrix/matrix.hpp"

namespace camult::core {

struct TsqrOptions {
  idx tr = 4;  ///< leaf count (paper's T_r)
  ReductionTree tree = ReductionTree::Binary;
  /// Use the structured triangle-triangle kernel (tpqrt) for binary-tree
  /// nodes instead of the dense stacked kernel: ~2x fewer node flops and
  /// no gather/scatter in the updates. Identical results up to rounding.
  bool structured_nodes = false;
};

struct PanelScreen;

/// Compact-WY factors of one leaf; the V tails live in the factored matrix.
/// A leaf of c chunks keeps c T factors and c tau runs side by side, in
/// chunk order (c = 1 for a leaf of at most one chunk).
struct TsqrLeaf {
  idx start = 0;  ///< first row of the leaf (relative to the matrix top)
  idx rows = 0;
  Matrix t;  ///< n x (n * c): chunk k's n x n T in columns [k n, (k+1) n)
  std::vector<double> tau;  ///< n * c reflector scalars, chunk by chunk
};

/// Factors of one reduction-tree node: QR of the stacked R factors of its
/// sources. The slices (src_start[i], src_rows[i]) say which rows of the
/// matrix the node's reflectors act on.
struct TsqrNode {
  std::vector<idx> src_start;
  std::vector<idx> src_rows;
  Matrix vt;  ///< dense kernel: factored stacked buffer (R on top, V below)
  Matrix t;   ///< T factor (dense kernel only; structured keeps its own)
  bool structured = false;  ///< true: `tri` holds the factors instead
  TriTriFactors tri;
};

struct TsqrFactors {
  idx m = 0;
  idx n = 0;
  ReductionTree tree = ReductionTree::Binary;
  RowPartition part;
  std::vector<TsqrLeaf> leaves;
  std::vector<TsqrNode> nodes;  ///< in reduction order
};

/// Factor a (m x n, m >= n) in place: on exit the top n x n upper triangle
/// is R, the rest of the matrix holds leaf reflector tails. The returned
/// factors plus the matrix give the implicit Q.
TsqrFactors tsqr_factor(MatrixView a, const TsqrOptions& opts = {});

/// Kernels shared with task-parallel CAQR ------------------------------

/// Rows of every chunk but the last of a TSQR leaf `cols` wide: about
/// 3 MiB of rows, at least 2 cols, rounded down to a multiple of 8 so
/// every chunk starts at the leaf top's offset within a 64-byte line.
/// 3,928 at 100 columns. Reads the width only, so the chunking (and the
/// bits) never depend on threads, pool or window.
idx tsqr_chunk_rows(idx cols);

/// Leaf QR: factor `block` in place, producing (T, tau). The block is cut
/// top to bottom into chunks of tsqr_chunk_rows(cols) rows (the last chunk
/// is ragged and may be shorter than cols). Chunk 0 is factored by geqr3
/// in place; each later chunk by lapack::tpqrt against the block's top R,
/// with V_B overwriting the chunk. A block of one chunk is one geqr3, bit
/// for bit. With `screen`, each chunk is screened (merged into *screen)
/// just before it is factored.
TsqrLeaf tsqr_leaf_kernel(MatrixView block, idx start,
                          PanelScreen* screen = nullptr);

/// Tree-node QR: gather the top n x n R slices of `a` at `src_start`, stack
/// them, QR the stack, write the new R back into the first slice (upper
/// triangle only — reflector tails stored there are preserved).
TsqrNode tsqr_node_kernel(MatrixView a, const std::vector<idx>& src_start,
                          idx n);

/// Structured two-source node (binary tree): in-place tpqrt of the two R
/// triangles at src0/src1; no stacked buffer.
TsqrNode tsqr_node_kernel_tri(MatrixView a, idx src0, idx src1, idx n);

/// Apply a leaf's block reflectors to the matching rows of C, replaying its
/// chunks: forward for Q_leaf^T (trans == Trans, the factorization
/// direction), backward for Q_leaf.
void tsqr_leaf_apply(blas::Trans trans, ConstMatrixView a,
                     const TsqrLeaf& leaf, MatrixView c);

/// Apply a node's block reflector to the stacked slices of C (gather,
/// larfb, scatter).
void tsqr_node_apply(blas::Trans trans, const TsqrNode& node, MatrixView c);

/// Pack-once variants -------------------------------------------------
///
/// CAQR applies the same leaf/node reflectors to every trailing column
/// segment. These pack the gemm-shaped V2 of the block reflector once (a
/// scheduler pack task) and let all S tasks of the iteration share the
/// read-only pack.

/// One pack per chunk of a leaf: chunk 0's V2 (its rows below the top n)
/// and every later chunk's whole V_B.
using TsqrLeafPack = std::vector<lapack::LarfbPackedV>;

/// Pack a leaf's reflectors, chunk by chunk.
TsqrLeafPack tsqr_leaf_pack(ConstMatrixView a, const TsqrLeaf& leaf);

/// Leaf apply consuming the shared packs (from tsqr_leaf_pack).
void tsqr_leaf_apply(blas::Trans trans, ConstMatrixView a,
                     const TsqrLeaf& leaf, const TsqrLeafPack& packs,
                     MatrixView c);

/// Pack a dense node's V2. Structured (tpqrt) nodes have no larfb-shaped
/// V2 — the result is empty and the packed apply falls back to tpmqrt.
lapack::LarfbPackedV tsqr_node_pack(const TsqrNode& node);

/// Node apply consuming the shared pack (vp from tsqr_node_pack).
void tsqr_node_apply(blas::Trans trans, const TsqrNode& node,
                     const lapack::LarfbPackedV& vp, MatrixView c);

/// Whole-Q application: C := Q^T C (Trans) or Q C (NoTrans). C has m rows.
/// `a` is the factored matrix (holds the leaf V tails).
void tsqr_apply_q(blas::Trans trans, ConstMatrixView a,
                  const TsqrFactors& factors, MatrixView c);

/// Explicit m x n Q (thin factor).
Matrix tsqr_explicit_q(ConstMatrixView a, const TsqrFactors& factors);

/// The n x n R factor (upper triangle of the factored matrix top).
Matrix tsqr_extract_r(ConstMatrixView a, const TsqrFactors& factors);

}  // namespace camult::core
