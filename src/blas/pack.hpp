// pack.hpp — the packing half of the two-phase GEMM API, plus the aligned
// per-thread scratch-buffer pool behind it.
//
// The GotoBLAS-style gemm in gemm.cpp repacks its operands into
// cache-resident panels on every call. The trailing-matrix (S) tasks of
// CALU/CAQR multiply the SAME panel block of L (or V) against many trailing
// column segments, so that repacking is pure redundant memory traffic — the
// exact communication a communication-avoiding code should not pay twice.
//
// This header exposes:
//  * PackedPanel — an owning, 64-byte-aligned copy of op(A) (or op(B)) in
//    the microkernel's panel layout, blocked by the same MC/KC/NC cache
//    blocking the gemm driver uses. Pack once, then hand it (read-only) to
//    any number of gemm_packed() calls — including concurrently from
//    multiple workers, provided the usual happens-before between the pack
//    and the consumers (the task scheduler's dependency edges supply it).
//  * pack_a()/pack_b() — build a PackedPanel for the A- or B-operand slot.
//  * ScratchBuffer — a pool-backed aligned allocation used for the
//    per-call packing scratch inside gemm itself (and anywhere else a
//    kernel wants temporary aligned storage without touching operator new
//    on the hot path). Pools are thread-local: workers never contend, and
//    a buffer released on a different thread simply migrates pools. A
//    buffer that outlives its releasing thread's pool (TLS teardown order
//    is unspecified) is safely freed directly — the dead pool is never
//    touched. With a persistent rt::WorkerPool the pools survive across
//    factorization calls, so steady-state slabs are reused call-to-call.
//
// Sanitizer behaviour: buffers parked in the pool are poisoned under
// AddressSanitizer (CAMULT_SANITIZE=address) so stale reads through a
// dangling PackedPanel fault immediately; they are unpoisoned on reuse.
#pragma once

#include <cstddef>
#include <cstdint>

#include "blas/kernel.hpp"
#include "blas/types.hpp"
#include "matrix/view.hpp"

namespace camult::blas {

/// The cache blocking of every kernel variant; only the MR x NR register
/// tile differs between them (kernel_impl.hpp's fixed_blocking checks that
/// each tile divides MC and NC). KC is where the packed path splits a long
/// contraction, so changing it changes the bits of every gemm with k > KC.
inline constexpr idx kGemmMC = 192;
inline constexpr idx kGemmKC = 256;
inline constexpr idx kGemmNC = 768;

/// Counters for the calling thread's scratch pool (test/bench telemetry).
/// Aggregable across threads with += (see core::pool_buffer_stats for the
/// pool-wide collector).
struct BufferPoolStats {
  std::int64_t acquires = 0;   ///< ScratchBuffer constructions (n > 0)
  std::int64_t pool_hits = 0;  ///< acquires served from a cached slab
  std::int64_t allocs = 0;     ///< acquires that hit operator new
  std::int64_t releases = 0;   ///< buffers returned to this thread's pool
  std::int64_t frees = 0;      ///< slabs evicted (pool full) or trimmed

  BufferPoolStats& operator+=(const BufferPoolStats& o);
};

/// Snapshot of the calling thread's pool counters.
BufferPoolStats buffer_pool_stats();

/// Drop every slab cached by the calling thread's pool (tests use this to
/// reset the pool between scenarios; live ScratchBuffers are unaffected).
void buffer_pool_trim();

/// A 64-byte-aligned array of doubles leased from the calling thread's
/// pool. Move-only; the destructor parks the slab back in the pool of
/// whichever thread runs it (bounded: excess slabs are freed).
class ScratchBuffer {
 public:
  ScratchBuffer() = default;
  explicit ScratchBuffer(std::size_t n_doubles);
  ~ScratchBuffer();

  ScratchBuffer(ScratchBuffer&& other) noexcept;
  ScratchBuffer& operator=(ScratchBuffer&& other) noexcept;
  ScratchBuffer(const ScratchBuffer&) = delete;
  ScratchBuffer& operator=(const ScratchBuffer&) = delete;

  double* data() const { return ptr_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  void release();

  double* ptr_ = nullptr;
  std::size_t size_ = 0;      ///< doubles requested
  std::size_t capacity_ = 0;  ///< doubles the slab can hold
};

/// Which operand slot a PackedPanel fills.
enum class PackOperand : std::uint8_t { A, B };

/// An owning packed copy of one gemm operand, in microkernel panel layout:
///  * A-operand: op(A) (m x k) as MR-row panels, grouped into the same
///    (MC x KC) cache blocks the gemm driver walks.
///  * B-operand: op(B) (k x n) as NR-column panels, grouped into (KC x NC)
///    cache blocks.
/// Transposition is absorbed at pack time, so a PackedPanel has no Trans.
class PackedPanel {
 public:
  PackedPanel() = default;

  PackOperand operand() const { return op_; }
  /// Dimensions of the packed op(X): rows x cols.
  idx rows() const { return rows_; }
  idx cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  /// True once pack_a/pack_b filled the panel (or it is 0-sized).
  bool valid() const { return buf_.data() != nullptr || empty(); }

  /// The blocking this panel was packed with: its kernel's. gemm_packed
  /// drives its cache loops with THESE values, so a panel keeps working
  /// even if the kernel selection changed after it was packed.
  const GemmBlocking& blocking() const { return blk_; }
  /// The kernel variant active at pack time; gemm_packed dispatches to it
  /// because the panel layout is tied to its MR/NR register tile. Null only
  /// for a default-constructed (empty) panel.
  const KernelInfo* kernel() const { return kernel_; }

  /// Packed (mc x kc) block of an A-operand panel at row i0 / depth p0
  /// (both cache-block-aligned w.r.t. blocking()). Layout within: mr-row
  /// panels of depth min(kc, k - p0), exactly what the microkernel
  /// consumes.
  const double* a_block(idx i0, idx p0) const;
  /// Packed (kc x nc) block of a B-operand panel at depth p0 / column j0.
  const double* b_block(idx p0, idx j0) const;

 private:
  friend PackedPanel pack_a(ConstMatrixView a, Trans trans);
  friend PackedPanel pack_b(ConstMatrixView b, Trans trans);

  ScratchBuffer buf_;
  PackOperand op_ = PackOperand::A;
  idx rows_ = 0;
  idx cols_ = 0;
  /// mr- (A) or nr- (B) padded extent of the non-depth dimension; the
  /// stride between consecutive depth blocks is padded_ * kc.
  idx padded_ = 0;
  GemmBlocking blk_{};
  const KernelInfo* kernel_ = nullptr;
};

/// Pack op(A) (the full m x k operand) for the gemm A slot.
PackedPanel pack_a(ConstMatrixView a, Trans trans);
/// Pack op(B) (the full k x n operand) for the gemm B slot.
PackedPanel pack_b(ConstMatrixView b, Trans trans);

/// Low-level single-cache-block packers (the primitives gemm itself uses;
/// exposed for tests). `mr` (resp. `nr`) is the register-tile extent the
/// block is laid out for — the active kernel's, for buffers the driver will
/// feed to it. `buf` needs ceil(mc/mr)*mr*kc (resp. ceil(nc/nr)*nr*kc)
/// doubles; fringe rows/cols are zero-padded to the full tile.
void pack_a_block(ConstMatrixView a, Trans trans, idx i0, idx p0, idx mc,
                  idx kc, idx mr, double* buf);
void pack_b_block(ConstMatrixView b, Trans trans, idx p0, idx j0, idx kc,
                  idx nc, idx nr, double* buf);

}  // namespace camult::blas
