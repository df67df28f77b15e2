#include "blas/gemm.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "blas/kernel.hpp"
#include "blas/pack.hpp"

namespace camult::blas {
namespace {

inline double op_elem(ConstMatrixView a, Trans trans, idx i, idx p) {
  return trans == Trans::NoTrans ? a(i, p) : a(p, i);
}

void scale_matrix(MatrixView c, double beta) {
  if (beta == 1.0) return;
  if (beta == 0.0) {
    for (idx j = 0; j < c.cols(); ++j) {
      std::memset(c.col_ptr(j), 0, static_cast<std::size_t>(c.rows()) * sizeof(double));
    }
    return;
  }
  for (idx j = 0; j < c.cols(); ++j) {
    double* col = c.col_ptr(j);
    for (idx i = 0; i < c.rows(); ++i) col[i] *= beta;
  }
}

// Direct triple loop for problems too small to amortize packing. No
// zero-skip on B elements: 0 * NaN must stay NaN so non-finite values in A
// propagate exactly like they do through the blocked/packed path (and like
// the health monitor's NaN screening assumes).
void gemm_small(Trans transa, Trans transb, double alpha, ConstMatrixView a,
                ConstMatrixView b, MatrixView c, idx k) {
  const idx m = c.rows();
  const idx n = c.cols();
  for (idx j = 0; j < n; ++j) {
    double* cc = c.col_ptr(j);
    for (idx p = 0; p < k; ++p) {
      const double bv = alpha * op_elem(b, transb, p, j);
      if (transa == Trans::NoTrans) {
        const double* ac = a.col_ptr(p);
        for (idx i = 0; i < m; ++i) cc[i] += ac[i] * bv;
      } else {
        // op(A)(i, p) = a(p, i): row p of a, stride ld.
        for (idx i = 0; i < m; ++i) cc[i] += a(p, i) * bv;
      }
    }
  }
}

// Macro-block driver shared by gemm's packed path and both gemm_packed
// overloads: walks the jc / pc / ic cache-block loops and feeds the
// dispatched microkernel. The getters supply a packed (mc x kc) A block
// (get_a(ic, pc, mc, kc)) and a packed (kc x nc) B block
// (get_b(pc, jc, kc, nc)) — either freshly packed into per-call scratch or
// served from a pre-packed PackedPanel. Since the loop structure, blocking
// and microkernel are shared, gemm and gemm_packed produce bit-identical
// results for every shape gemm sends down this path — the NN CALU update
// among them (test_blas_pack pins it). A (Trans, NoTrans) call that gemm
// routes to the inner-product path has no packed twin; a (NoTrans, *)
// call it routes to the short-product path gets the packed twin's bits
// from the kernel itself.
template <typename GetA, typename GetB>
void gemm_blocked(const GemmBlocking& blk, MicrokernelFn kern, idx m, idx n,
                  idx k, double alpha, GetA&& get_a, GetB&& get_b,
                  MatrixView c) {
  std::int64_t kernel_bytes = 0;
  std::int64_t c_bytes = 0;
  for (idx jc = 0; jc < n; jc += blk.nc) {
    const idx nc = std::min<idx>(blk.nc, n - jc);
    for (idx pc = 0; pc < k; pc += blk.kc) {
      const idx kc = std::min<idx>(blk.kc, k - pc);
      const double* bblk = get_b(pc, jc, kc, nc);
      for (idx ic = 0; ic < m; ic += blk.mc) {
        const idx mc = std::min<idx>(blk.mc, m - ic);
        const double* ablk = get_a(ic, pc, mc, kc);
        for (idx jr = 0; jr < nc; jr += blk.nr) {
          const idx nr_eff = std::min<idx>(blk.nr, nc - jr);
          const double* bp = bblk + (jr / blk.nr) * (blk.nr * kc);
          for (idx ir = 0; ir < mc; ir += blk.mr) {
            const idx mr_eff = std::min<idx>(blk.mr, mc - ir);
            const double* ap = ablk + (ir / blk.mr) * (blk.mr * kc);
            double* cblk = c.data() + (ic + ir) + (jc + jr) * c.ld();
            kern(kc, alpha, ap, bp, cblk, c.ld(), mr_eff, nr_eff);
            kernel_bytes += (blk.mr + blk.nr) * kc * 8;
            c_bytes += mr_eff * nr_eff * 16;
          }
        }
      }
    }
  }
  GemmTraffic& traffic = detail::gemm_traffic_tls();
  traffic.kernel_bytes += kernel_bytes;
  traffic.c_bytes += c_bytes;
}

}  // namespace

void gemm_inner(double alpha, ConstMatrixView a, ConstMatrixView b,
                MatrixView c) {
  const idx m = c.rows();
  const idx n = c.cols();
  const idx k = a.rows();
  assert(a.cols() == m && b.rows() == k && b.cols() == n);
  if (alpha == 0.0 || m == 0 || n == 0 || k == 0) return;
  // One contraction block's A and B columns stay in L2 while the kernel's
  // tiles re-read them, so each operand element comes from memory once.
  const InnerProductFn dot = active_kernel().dot;
  idx blocks = 0;
  for (idx pc = 0; pc < k; pc += kInnerKc, ++blocks) {
    dot(m, n, std::min(kInnerKc, k - pc), alpha, a.data() + pc, a.ld(),
        b.data() + pc, b.ld(), c.data(), c.ld());
  }
  GemmTraffic& traffic = detail::gemm_traffic_tls();
  traffic.kernel_bytes += (m + n) * k * 8;
  traffic.c_bytes += m * n * 16 * blocks;
}

void gemm(Trans transa, Trans transb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c) {
  const idx m = c.rows();
  const idx n = c.cols();
  const idx k = (transa == Trans::NoTrans) ? a.cols() : a.rows();
  assert(((transa == Trans::NoTrans) ? a.rows() : a.cols()) == m);
  assert(((transb == Trans::NoTrans) ? b.rows() : b.cols()) == k);
  assert(((transb == Trans::NoTrans) ? b.cols() : b.rows()) == n);

  scale_matrix(c, beta);
  if (alpha == 0.0 || m == 0 || n == 0 || k == 0) return;

  if (transa == Trans::Trans && transb == Trans::NoTrans &&
      inner_product_shape(m, n, k)) {
    gemm_inner(alpha, a, b, c);
    return;
  }
  if (m * n * k <= 16 * 16 * 16) {
    gemm_small(transa, transb, alpha, a, b, c, k);
    return;
  }
  if (transa == Trans::NoTrans && short_product_shape(m, n, k)) {
    // A and B are read once, C loaded and stored once; nothing is packed.
    // op(B)(p, j) is b(p, j) (NoTrans) or b(j, p) (Trans).
    const bool bt = transb == Trans::Trans;
    active_kernel().short_product(m, n, k, alpha, a.data(), a.ld(), b.data(),
                                  bt ? b.ld() : 1, bt ? 1 : b.ld(), c.data(),
                                  c.ld());
    GemmTraffic& traffic = detail::gemm_traffic_tls();
    traffic.kernel_bytes += (m + n) * k * 8;
    traffic.c_bytes += m * n * 16;
    return;
  }

  const KernelInfo& kern = active_kernel();
  const GemmBlocking& blk = kern.blocking;

  // Packing workspaces come from the per-thread scratch pool: after the
  // first call on a worker these are pointer swaps, not allocations.
  ScratchBuffer a_buf(static_cast<std::size_t>(blk.mc * blk.kc));
  ScratchBuffer b_buf(static_cast<std::size_t>(blk.nc * blk.kc));

  gemm_blocked(
      blk, kern.fn, m, n, k, alpha,
      [&](idx ic, idx pc, idx mc, idx kc) -> const double* {
        pack_a_block(a, transa, ic, pc, mc, kc, blk.mr, a_buf.data());
        return a_buf.data();
      },
      [&](idx pc, idx jc, idx kc, idx nc) -> const double* {
        pack_b_block(b, transb, pc, jc, kc, nc, blk.nr, b_buf.data());
        return b_buf.data();
      },
      c);
}

void gemm_packed(double alpha, const PackedPanel& a_packed, Trans transb,
                 ConstMatrixView b, double beta, MatrixView c) {
  assert(a_packed.operand() == PackOperand::A);
  assert(a_packed.valid());
  const idx m = c.rows();
  const idx n = c.cols();
  const idx k = a_packed.cols();
  assert(a_packed.rows() == m);
  assert(((transb == Trans::NoTrans) ? b.rows() : b.cols()) == k);
  assert(((transb == Trans::NoTrans) ? b.cols() : b.rows()) == n);

  scale_matrix(c, beta);
  if (alpha == 0.0 || m == 0 || n == 0 || k == 0) return;

  // The panel fixes both the kernel (its MR x NR layout is baked into the
  // packed data) and the cache blocking, so a panel packed before a kernel
  // switch still multiplies correctly.
  const GemmBlocking& blk = a_packed.blocking();
  const MicrokernelFn kern = a_packed.kernel()->fn;

  ScratchBuffer b_buf(static_cast<std::size_t>(blk.nc * blk.kc));
  gemm_blocked(
      blk, kern, m, n, k, alpha,
      [&](idx ic, idx pc, idx /*mc*/, idx /*kc*/) -> const double* {
        return a_packed.a_block(ic, pc);
      },
      [&](idx pc, idx jc, idx kc, idx nc) -> const double* {
        pack_b_block(b, transb, pc, jc, kc, nc, blk.nr, b_buf.data());
        return b_buf.data();
      },
      c);
}

void gemm_packed(Trans transa, double alpha, ConstMatrixView a,
                 const PackedPanel& b_packed, double beta, MatrixView c) {
  assert(b_packed.operand() == PackOperand::B);
  assert(b_packed.valid());
  const idx m = c.rows();
  const idx n = c.cols();
  const idx k = b_packed.rows();
  assert(b_packed.cols() == n);
  assert(((transa == Trans::NoTrans) ? a.rows() : a.cols()) == m);
  assert(((transa == Trans::NoTrans) ? a.cols() : a.rows()) == k);

  scale_matrix(c, beta);
  if (alpha == 0.0 || m == 0 || n == 0 || k == 0) return;

  const GemmBlocking& blk = b_packed.blocking();
  const MicrokernelFn kern = b_packed.kernel()->fn;

  ScratchBuffer a_buf(static_cast<std::size_t>(blk.mc * blk.kc));
  gemm_blocked(
      blk, kern, m, n, k, alpha,
      [&](idx ic, idx pc, idx mc, idx kc) -> const double* {
        pack_a_block(a, transa, ic, pc, mc, kc, blk.mr, a_buf.data());
        return a_buf.data();
      },
      [&](idx pc, idx jc, idx /*kc*/, idx /*nc*/) -> const double* {
        return b_packed.b_block(pc, jc);
      },
      c);
}

}  // namespace camult::blas
