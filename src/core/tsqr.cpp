#include "core/tsqr.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/tournament.hpp"
#include "lapack/geqrf.hpp"
#include "lapack/orgqr.hpp"

namespace camult::core {

idx tsqr_chunk_rows(idx cols) {
  constexpr idx kChunkBytes = 3 * 1024 * 1024;
  const idx rows = kChunkBytes / (static_cast<idx>(sizeof(double)) *
                                  std::max<idx>(cols, 1));
  return std::max<idx>(8, std::max(2 * cols, rows) / 8 * 8);
}

namespace {

// Chunk layout of a leaf of `rows` x `cols`: chunk k holds its rows
// [top(k), top(k) + rows(k)). A factored leaf keeps one cols x cols T per
// chunk side by side in leaf.t.
struct LeafChunks {
  idx total, height, count;

  LeafChunks(idx rows, idx cols)
      : total(rows),
        height(std::min(rows, tsqr_chunk_rows(cols))),
        count(rows > height ? (rows + height - 1) / height : 1) {}
  idx top(idx k) const { return k * height; }
  idx rows(idx k) const { return std::min(height, total - top(k)); }
};

// Q^T (Trans, chunks forward) or Q (NoTrans, backward) of a leaf on the
// leaf's rows of c. Chunk 0 is a geqr3 block reflector over its own rows;
// chunk k > 0 is a tpqrt one over the leaf's top n rows and its own rows.
// packs (one per chunk, from tsqr_leaf_pack) may be null.
void leaf_apply(blas::Trans trans, ConstMatrixView a, const TsqrLeaf& leaf,
                const TsqrLeafPack* packs, MatrixView c) {
  const idx n = leaf.t.rows();
  const LeafChunks ch(leaf.rows, n);
  assert(leaf.t.cols() == n * ch.count);
  ConstMatrixView block = a.block(leaf.start, 0, leaf.rows, n);
  MatrixView crows = c.rows_range(leaf.start, leaf.rows);
  auto apply_chunk = [&](idx k) {
    ConstMatrixView v = block.rows_range(ch.top(k), ch.rows(k));
    MatrixView cb = crows.rows_range(ch.top(k), ch.rows(k));
    ConstMatrixView tk = leaf.t.view().block(0, k * n, n, n);
    const lapack::LarfbPackedV* vp =
        packs == nullptr ? nullptr : &(*packs)[static_cast<std::size_t>(k)];
    if (k == 0) {
      if (vp != nullptr) {
        lapack::larfb_left(trans, v, tk, *vp, cb);
      } else {
        lapack::larfb_left(trans, v, tk, cb);
      }
    } else if (vp != nullptr) {
      lapack::tpmqrt(trans, v, tk, *vp, crows.rows_range(0, n), cb);
    } else {
      lapack::tpmqrt(trans, v, tk, crows.rows_range(0, n), cb);
    }
  };
  if (trans == blas::Trans::Trans) {
    for (idx k = 0; k < ch.count; ++k) apply_chunk(k);
  } else {
    for (idx k = ch.count; k-- > 0;) apply_chunk(k);
  }
}

}  // namespace

TsqrLeaf tsqr_leaf_kernel(MatrixView block, idx start, PanelScreen* screen) {
  const idx n = block.cols();
  const LeafChunks ch(block.rows(), n);
  TsqrLeaf leaf;
  leaf.start = start;
  leaf.rows = block.rows();
  leaf.t = Matrix::zeros(n, n * ch.count);
  // Each chunk is screened just before it is factored, so the screen sees
  // the input and brings the chunk into cache for the kernel.
  auto screen_chunk = [screen](ConstMatrixView chunk) {
    if (screen != nullptr) screen->merge(screen_panel(chunk));
  };
  MatrixView first = block.rows_range(0, ch.rows(0));
  screen_chunk(first);
  lapack::geqr3(first, leaf.tau, leaf.t.view().block(0, 0, n, n));
  leaf.tau.resize(static_cast<std::size_t>(n * ch.count));
  MatrixView r = block.block(0, 0, n, n);
  for (idx k = 1; k < ch.count; ++k) {
    MatrixView chunk = block.rows_range(ch.top(k), ch.rows(k));
    screen_chunk(chunk);
    lapack::tpqrt(r, chunk, leaf.tau.data() + k * n,
                  leaf.t.view().block(0, k * n, n, n));
  }
  return leaf;
}

TsqrNode tsqr_node_kernel(MatrixView a, const std::vector<idx>& src_start,
                          idx n) {
  assert(src_start.size() >= 2);
  TsqrNode node;
  node.src_start = src_start;
  node.src_rows.assign(src_start.size(), n);

  const idx total = static_cast<idx>(src_start.size()) * n;
  node.vt = Matrix::zeros(total, n);
  // Gather the R factors: each is the upper triangle of the slice's top
  // n x n (below-diagonal entries there are leaf/older V tails — NOT part
  // of R, so gather only the triangle).
  for (std::size_t s = 0; s < src_start.size(); ++s) {
    const idx dst0 = static_cast<idx>(s) * n;
    for (idx j = 0; j < n; ++j) {
      for (idx i = 0; i <= j; ++i) {
        node.vt(dst0 + i, j) = a(src_start[s] + i, j);
      }
    }
  }
  node.t = Matrix::zeros(n, n);
  std::vector<double> tau;
  lapack::geqr3(node.vt.view(), tau, node.t.view());

  // Scatter the new R into the first slice's upper triangle.
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i <= j; ++i) {
      a(src_start[0] + i, j) = node.vt(i, j);
    }
  }
  return node;
}

TsqrNode tsqr_node_kernel_tri(MatrixView a, idx src0, idx src1, idx n) {
  TsqrNode node;
  node.src_start = {src0, src1};
  node.src_rows = {n, n};
  node.structured = true;
  node.tri = tpqrt_tri(a.block(src0, 0, n, n), a.block(src1, 0, n, n));
  return node;
}

void tsqr_leaf_apply(blas::Trans trans, ConstMatrixView a,
                     const TsqrLeaf& leaf, MatrixView c) {
  leaf_apply(trans, a, leaf, nullptr, c);
}

void tsqr_node_apply(blas::Trans trans, const TsqrNode& node, MatrixView c) {
  if (node.structured) {
    const idx nb = node.tri.v2.rows();
    tpmqrt_tri(trans, node.tri, c.block(node.src_start[0], 0, nb, c.cols()),
               c.block(node.src_start[1], 0, nb, c.cols()));
    return;
  }
  const idx n = node.t.rows();
  const idx slices = static_cast<idx>(node.src_start.size());
  Matrix stacked(slices * n, c.cols());
  for (idx s = 0; s < slices; ++s) {
    copy_into(c.block(node.src_start[static_cast<std::size_t>(s)], 0, n,
                      c.cols()),
              stacked.view().rows_range(s * n, n));
  }
  lapack::larfb_left(trans, node.vt.view(), node.t.view(), stacked.view());
  for (idx s = 0; s < slices; ++s) {
    copy_into(stacked.view().rows_range(s * n, n),
              c.block(node.src_start[static_cast<std::size_t>(s)], 0, n,
                      c.cols()));
  }
}

TsqrLeafPack tsqr_leaf_pack(ConstMatrixView a, const TsqrLeaf& leaf) {
  const LeafChunks ch(leaf.rows, leaf.t.rows());
  ConstMatrixView block = a.block(leaf.start, 0, leaf.rows, leaf.t.rows());
  TsqrLeafPack packs;
  packs.reserve(static_cast<std::size_t>(ch.count));
  for (idx k = 0; k < ch.count; ++k) {
    ConstMatrixView v = block.rows_range(ch.top(k), ch.rows(k));
    packs.push_back(k == 0 ? lapack::larfb_pack_v(v)
                           : lapack::tpmqrt_pack_v(v));
  }
  return packs;
}

void tsqr_leaf_apply(blas::Trans trans, ConstMatrixView a,
                     const TsqrLeaf& leaf, const TsqrLeafPack& packs,
                     MatrixView c) {
  leaf_apply(trans, a, leaf, &packs, c);
}

lapack::LarfbPackedV tsqr_node_pack(const TsqrNode& node) {
  if (node.structured) return {};
  return lapack::larfb_pack_v(node.vt.view());
}

void tsqr_node_apply(blas::Trans trans, const TsqrNode& node,
                     const lapack::LarfbPackedV& vp, MatrixView c) {
  if (node.structured) {
    tsqr_node_apply(trans, node, c);
    return;
  }
  const idx n = node.t.rows();
  const idx slices = static_cast<idx>(node.src_start.size());
  Matrix stacked(slices * n, c.cols());
  for (idx s = 0; s < slices; ++s) {
    copy_into(c.block(node.src_start[static_cast<std::size_t>(s)], 0, n,
                      c.cols()),
              stacked.view().rows_range(s * n, n));
  }
  lapack::larfb_left(trans, node.vt.view(), node.t.view(), vp,
                     stacked.view());
  for (idx s = 0; s < slices; ++s) {
    copy_into(stacked.view().rows_range(s * n, n),
              c.block(node.src_start[static_cast<std::size_t>(s)], 0, n,
                      c.cols()));
  }
}

TsqrFactors tsqr_factor(MatrixView a, const TsqrOptions& opts) {
  const idx m = a.rows();
  const idx n = a.cols();
  if (m < n) {
    throw std::invalid_argument("tsqr_factor: matrix must be tall (m >= n)");
  }
  TsqrFactors f;
  f.m = m;
  f.n = n;
  f.tree = opts.tree;
  f.part = partition_panel_rows(m, n, opts.tr, n);

  const idx leaves = f.part.count();
  for (idx i = 0; i < leaves; ++i) {
    const idx start = f.part.start[static_cast<std::size_t>(i)];
    const idx rows = f.part.rows[static_cast<std::size_t>(i)];
    f.leaves.push_back(tsqr_leaf_kernel(a.block(start, 0, rows, n), start));
  }
  for (const ReductionStep& step :
       reduction_schedule(static_cast<int>(leaves), opts.tree)) {
    std::vector<idx> src;
    src.reserve(step.sources.size());
    for (int s : step.sources) {
      src.push_back(f.part.start[static_cast<std::size_t>(s)]);
    }
    if (opts.structured_nodes && src.size() == 2) {
      f.nodes.push_back(tsqr_node_kernel_tri(a, src[0], src[1], n));
    } else {
      f.nodes.push_back(tsqr_node_kernel(a, src, n));
    }
  }
  return f;
}

void tsqr_apply_q(blas::Trans trans, ConstMatrixView a,
                  const TsqrFactors& factors, MatrixView c) {
  assert(c.rows() == factors.m);
  if (trans == blas::Trans::Trans) {
    // Q^T = (node_k^T ... node_1^T) (leaf^T ...): leaves first, then nodes
    // in reduction order — the factorization direction.
    for (const TsqrLeaf& leaf : factors.leaves) {
      tsqr_leaf_apply(blas::Trans::Trans, a, leaf, c);
    }
    for (const TsqrNode& node : factors.nodes) {
      tsqr_node_apply(blas::Trans::Trans, node, c);
    }
  } else {
    for (auto it = factors.nodes.rbegin(); it != factors.nodes.rend(); ++it) {
      tsqr_node_apply(blas::Trans::NoTrans, *it, c);
    }
    for (const TsqrLeaf& leaf : factors.leaves) {
      tsqr_leaf_apply(blas::Trans::NoTrans, a, leaf, c);
    }
  }
}

Matrix tsqr_explicit_q(ConstMatrixView a, const TsqrFactors& factors) {
  Matrix q = Matrix::identity(factors.m, factors.n);
  tsqr_apply_q(blas::Trans::NoTrans, a, factors, q.view());
  return q;
}

Matrix tsqr_extract_r(ConstMatrixView a, const TsqrFactors& factors) {
  Matrix r = Matrix::zeros(factors.n, factors.n);
  for (idx j = 0; j < factors.n; ++j) {
    for (idx i = 0; i <= j; ++i) r(i, j) = a(i, j);
  }
  return r;
}

}  // namespace camult::core
