// kernel.hpp — runtime-dispatched GEMM kernels.
//
// Each kernel variant carries four functions. The blocked gemm driver
// (gemm.cpp) computes the C tiles of packed multiplies through one
// register-blocked MR x NR microkernel; narrow A^T B products with a long
// contraction (QR's W = C^T V and T12 = V1^T V2, and gemv(Trans)) skip
// packing and run an inner-product kernel that reads the contiguous
// columns of A and B directly; narrow A op(B) products with a short
// contraction (rgetf2's Schur updates above its base blocks, QR's
// C2 -= V2 W^T) run a packing-free short-product kernel (gemm.hpp has both
// shape rules); and
// blas::iamax runs the variant's pivot search. CAMULT_KERNEL and
// set_active_kernel select all four functions of a variant together.
//
// Before this layer existed the kernel was chosen at COMPILE time
// (#ifdef __AVX2__), which meant a portable -march=x86-64 build silently
// ran the scalar loop on AVX-capable hardware, and a -march=native build
// crashed with SIGILL if the binary migrated to an older machine. Now
// every variant is compiled unconditionally in its own
// translation unit with per-file arch flags (see src/blas/CMakeLists.txt)
// and the best one the *host* can execute is picked once at startup via
// cpuid (__builtin_cpu_supports).
//
// Selection order: CAMULT_KERNEL=scalar|avx2|avx512 forces a variant (a
// typo, or forcing a variant the host cannot run, warns once on stderr and
// falls back to auto); otherwise the highest-throughput supported variant
// wins (avx512 > avx2 > scalar). Tests can switch at runtime with
// set_active_kernel().
//
// Every variant uses one fixed cache blocking, pack.hpp's kGemmMC/KC/NC;
// KC decides where gemm splits a long contraction, so it is part of the
// bits of every result. The register tile MR x NR is FIXED per kernel — it
// is baked into the kernel's register allocation and into the packed-panel
// layout, which is why PackedPanel records the kernel it was packed for.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "matrix/view.hpp"

namespace camult::blas {

/// Register/cache blocking for the blocked gemm driver. MR x NR is the
/// microkernel register tile; MC/KC target L2, NC targets L3. Invariants
/// (static_asserts in kernel_impl.hpp): mc % mr == 0 and nc % nr == 0 —
/// the packed-offset arithmetic in PackedPanel relies on them.
struct GemmBlocking {
  idx mc;  ///< rows of the packed A panel
  idx kc;  ///< depth of the packed panels
  idx nc;  ///< columns of the packed B panel
  idx mr;  ///< microkernel rows
  idx nr;  ///< microkernel cols
};

/// C(0:mr_eff, 0:nr_eff) += alpha * Ap * Bp on one register tile. Ap is a
/// packed MR x kc block (always MR rows; fringe rows are zero-padded by the
/// packers), Bp a packed kc x NR block (NR cols, zero-padded). mr_eff/nr_eff
/// in [1, MR] x [1, NR] select the part of C that actually exists.
using MicrokernelFn = void (*)(idx kc, double alpha, const double* ap,
                               const double* bp, double* c, idx ldc,
                               idx mr_eff, idx nr_eff);

/// C(0:m, 0:n) += alpha * A^T * B without packing: A is k x m (column i at
/// a + i * lda), B is k x n (column j at b + j * ldb), C is column-major
/// with ldc. Each C element is one dot product vectorised along the
/// contiguous contraction, accumulated and reduced in an order that
/// depends only on k, so an element's bits do not depend on m, n or its
/// position in C. No zero-skip: NaN and Inf in A or B propagate.
using InnerProductFn = void (*)(idx m, idx n, idx k, double alpha,
                                const double* a, idx lda, const double* b,
                                idx ldb, double* c, idx ldc);

/// C(0:m, 0:n) += alpha * A * B without packing: A is m x k (column p at
/// a + p * lda), B is k x n with B(p, j) = b[p * rsb + j * csb], C is
/// column-major with ldc. (rsb, csb) = (1, ldb) reads a column-major B;
/// (ldb, 1) reads the transpose of a column-major n x k matrix, so each
/// step's broadcasts come from one contiguous column. The kernel reads A's
/// columns in place and broadcasts B. Each C element runs the variant's
/// microkernel chain (a zero accumulator, one fused or unfused multiply-add
/// per p in order, then one alpha update), so the result is bit-identical
/// to the packed path whenever the packed path holds the whole contraction
/// in one kc block. No zero-skip. A row tail is masked, so no lane reads
/// or writes past a column.
using ShortProductFn = void (*)(idx m, idx n, idx k, double alpha,
                                const double* a, idx lda, const double* b,
                                idx rsb, idx csb, double* c, idx ldc);

/// The first index of the largest |x[i]| over a contiguous x of n >= 1
/// elements whose x[0] is not NaN; a NaN never wins. Exactly the index of
/// the scalar loop in blas::iamax, which routes its unit-stride calls here.
using IamaxFn = idx (*)(idx n, const double* x);

/// One registered kernel variant.
struct KernelInfo {
  const char* name;              ///< "scalar", "avx2", "avx512"
  MicrokernelFn fn;              ///< nullptr when !compiled
  InnerProductFn dot;            ///< nullptr when !compiled
  ShortProductFn short_product;  ///< nullptr when !compiled
  IamaxFn iamax;                 ///< nullptr when !compiled
  GemmBlocking blocking;         ///< the fixed blocking (incl. MR/NR)
  bool compiled;                 ///< TU was built with the required ISA flags
  bool supported;                ///< compiled && the host cpu can execute it
};

/// All variants, in preference order (fastest first). Stable storage: the
/// vector is built once and never reallocated, so KernelInfo pointers
/// (e.g. the one a PackedPanel captures) stay valid for the process.
const std::vector<KernelInfo>& kernel_registry();

/// The variant the drivers currently dispatch to. First call resolves
/// CAMULT_KERNEL + cpuid; always returns a supported kernel.
const KernelInfo& active_kernel();

/// Force a variant by name ("scalar"/"avx2"/"avx512"); "" or "auto"
/// restores the startup selection (CAMULT_KERNEL when set and runnable,
/// else cpuid auto). Returns false (and changes nothing) for an
/// unknown name or a variant this host cannot execute. Not meant to be
/// called concurrently with running factorizations: panels packed before a
/// switch keep working (they remember their kernel), but new work picks up
/// the new variant at an unspecified point.
bool set_active_kernel(std::string_view name);

/// Bytes moved through the GEMM kernels by the calling thread, counted at
/// the algorithmic level (what the communication-cost model charges, not
/// hardware counters): source reads + packed writes during packing,
/// packed-panel streaming by the microkernels, operand reads by the
/// inner-product kernel, and C tile read+write traffic. flops / (sum of
/// these) is the arithmetic intensity reported by bench/gemm_kernel.
struct GemmTraffic {
  std::int64_t pack_bytes = 0;    ///< pack_a/pack_b: source reads + packed writes
  /// Packed A/B bytes streamed by microkernels, plus the inner-product
  /// path's A and B reads (each element once per call).
  std::int64_t kernel_bytes = 0;
  std::int64_t c_bytes = 0;       ///< C tile loads + stores

  std::int64_t total() const { return pack_bytes + kernel_bytes + c_bytes; }
};

/// Snapshot / reset of the calling thread's traffic counters.
GemmTraffic gemm_traffic();
void gemm_traffic_reset();

namespace detail {
/// Mutable access to the calling thread's counters (pack.cpp / gemm.cpp).
GemmTraffic& gemm_traffic_tls();
}  // namespace detail

}  // namespace camult::blas
