#include "blas/pack.hpp"

#include <algorithm>
#include <cassert>
#include <new>
#include <vector>

// AddressSanitizer poisoning for pooled slabs (see pack.hpp). Detect ASan
// under both GCC (__SANITIZE_ADDRESS__) and Clang (__has_feature).
#if defined(__SANITIZE_ADDRESS__)
#define CAMULT_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CAMULT_POOL_ASAN 1
#endif
#endif
#ifdef CAMULT_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace camult::blas {
namespace {

constexpr std::align_val_t kAlign{64};
// Slabs cached per thread. The library's own usage needs at most a handful
// live at once (gemm's A+B scratch, a packed panel being built); anything
// beyond this is freed eagerly so an idle worker does not sit on memory.
constexpr std::size_t kMaxCachedSlabs = 8;

struct Slab {
  double* ptr = nullptr;
  std::size_t capacity = 0;  // doubles
};

void poison_slab(const Slab& s) {
#ifdef CAMULT_POOL_ASAN
  __asan_poison_memory_region(s.ptr, s.capacity * sizeof(double));
#else
  (void)s;
#endif
}

void unpoison_slab(const Slab& s) {
#ifdef CAMULT_POOL_ASAN
  __asan_unpoison_memory_region(s.ptr, s.capacity * sizeof(double));
#else
  (void)s;
#endif
}

struct Pool {
  std::vector<Slab> free;
  BufferPoolStats stats;

  ~Pool() {
    for (const Slab& s : free) {
      unpoison_slab(s);
      ::operator delete[](s.ptr, kAlign);
    }
  }
};

// One pool per thread: acquire/release never synchronize, which is what
// keeps the pool off the TSAN radar and off the allocator lock. A buffer
// released on a different thread than it was acquired on just migrates to
// the releasing thread's pool — slabs are plain memory.
//
// Thread-exit hazard: a ScratchBuffer can legally outlive the releasing
// thread's pool (e.g. a buffer stashed in another thread_local whose
// destructor runs AFTER the pool's, or — before WorkerPool existed — a
// buffer released while a TaskGraph worker was already unwinding its TLS).
// `thread_local Pool` alone makes that a use-after-destroy. The pool is
// therefore reached through two TRIVIALLY-destructible thread_locals (a
// raw pointer and a flag), which stay readable for the whole teardown:
// once PoolOwner's destructor has run, pool() returns nullptr and every
// caller falls back to plain aligned new/delete.
thread_local Pool* tl_pool = nullptr;
thread_local bool tl_pool_dead = false;

struct PoolOwner {
  Pool pool;
  PoolOwner() { tl_pool = &pool; }
  ~PoolOwner() {
    tl_pool = nullptr;
    tl_pool_dead = true;
  }
};

// The calling thread's pool, or nullptr once it has been destroyed.
Pool* pool() {
  if (tl_pool_dead) return nullptr;
  thread_local PoolOwner owner;  // first call constructs; sets tl_pool
  return tl_pool;
}

double* allocate_slab(std::size_t n_doubles) {
  return static_cast<double*>(
      ::operator new[](n_doubles * sizeof(double), kAlign));
}

void free_slab(const Slab& s) {
  unpoison_slab(s);
  ::operator delete[](s.ptr, kAlign);
}

}  // namespace

BufferPoolStats& BufferPoolStats::operator+=(const BufferPoolStats& o) {
  acquires += o.acquires;
  pool_hits += o.pool_hits;
  allocs += o.allocs;
  releases += o.releases;
  frees += o.frees;
  return *this;
}

BufferPoolStats buffer_pool_stats() {
  Pool* p = pool();
  return p != nullptr ? p->stats : BufferPoolStats{};
}

void buffer_pool_trim() {
  Pool* pp = pool();
  if (pp == nullptr) return;
  Pool& p = *pp;
  for (const Slab& s : p.free) {
    free_slab(s);
    ++p.stats.frees;
  }
  p.free.clear();
}

ScratchBuffer::ScratchBuffer(std::size_t n_doubles) : size_(n_doubles) {
  if (n_doubles == 0) return;
  Pool* pp = pool();
  if (pp == nullptr) {
    // Pool already destroyed (thread unwinding its TLS): plain allocation.
    capacity_ = (n_doubles + 511) & ~std::size_t{511};
    ptr_ = allocate_slab(capacity_);
    return;
  }
  Pool& p = *pp;
  ++p.stats.acquires;
  // Best fit: smallest cached slab that is large enough. The pool is tiny,
  // so a linear scan beats any cleverness.
  std::size_t best = p.free.size();
  for (std::size_t i = 0; i < p.free.size(); ++i) {
    if (p.free[i].capacity < n_doubles) continue;
    if (best == p.free.size() || p.free[i].capacity < p.free[best].capacity) {
      best = i;
    }
  }
  if (best != p.free.size()) {
    const Slab s = p.free[best];
    p.free.erase(p.free.begin() + static_cast<std::ptrdiff_t>(best));
    unpoison_slab(s);
    ptr_ = s.ptr;
    capacity_ = s.capacity;
    ++p.stats.pool_hits;
    return;
  }
  // Round the fresh slab up a little so many near-identical panel sizes
  // (ragged last iterations) can share one cached slab.
  capacity_ = (n_doubles + 511) & ~std::size_t{511};
  ptr_ = allocate_slab(capacity_);
  ++p.stats.allocs;
}

void ScratchBuffer::release() {
  if (ptr_ == nullptr) return;
  const Slab s{ptr_, capacity_};
  ptr_ = nullptr;
  size_ = 0;
  capacity_ = 0;
  Pool* pp = pool();
  if (pp == nullptr) {
    // Pool already destroyed: do not park the slab in dead storage.
    free_slab(s);
    return;
  }
  Pool& p = *pp;
  ++p.stats.releases;
  if (p.free.size() >= kMaxCachedSlabs) {
    // Keep the largest slabs: evict the smallest of (cached + incoming).
    std::size_t smallest = 0;
    for (std::size_t i = 1; i < p.free.size(); ++i) {
      if (p.free[i].capacity < p.free[smallest].capacity) smallest = i;
    }
    if (p.free[smallest].capacity < s.capacity) {
      free_slab(p.free[smallest]);
      p.free[smallest] = s;
      poison_slab(s);
    } else {
      free_slab(s);
    }
    ++p.stats.frees;
    return;
  }
  p.free.push_back(s);
  poison_slab(s);
}

ScratchBuffer::~ScratchBuffer() { release(); }

ScratchBuffer::ScratchBuffer(ScratchBuffer&& other) noexcept
    : ptr_(other.ptr_), size_(other.size_), capacity_(other.capacity_) {
  other.ptr_ = nullptr;
  other.size_ = 0;
  other.capacity_ = 0;
}

ScratchBuffer& ScratchBuffer::operator=(ScratchBuffer&& other) noexcept {
  if (this != &other) {
    release();
    ptr_ = other.ptr_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.ptr_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
  }
  return *this;
}

// ---- Packing kernels ----------------------------------------------------

void pack_a_block(ConstMatrixView a, Trans trans, idx i0, idx p0, idx mc,
                  idx kc, idx mr, double* buf) {
  const idx panels = (mc + mr - 1) / mr;
  for (idx ip = 0; ip < panels; ++ip) {
    const idx i_base = i0 + ip * mr;
    const idx rows = std::min<idx>(mr, i0 + mc - i_base);
    double* dst = buf + ip * (mr * kc);
    if (trans == Trans::NoTrans) {
      for (idx p = 0; p < kc; ++p) {
        const double* src = a.col_ptr(p0 + p) + i_base;
        for (idx r = 0; r < rows; ++r) dst[p * mr + r] = src[r];
        for (idx r = rows; r < mr; ++r) dst[p * mr + r] = 0.0;
      }
    } else {
      for (idx p = 0; p < kc; ++p) {
        for (idx r = 0; r < rows; ++r) {
          dst[p * mr + r] = a(p0 + p, i_base + r);
        }
        for (idx r = rows; r < mr; ++r) dst[p * mr + r] = 0.0;
      }
    }
  }
  // Communication accounting: source reads + padded packed writes.
  detail::gemm_traffic_tls().pack_bytes +=
      static_cast<std::int64_t>((mc + panels * mr) * kc) * 8;
}

void pack_b_block(ConstMatrixView b, Trans trans, idx p0, idx j0, idx kc,
                  idx nc, idx nr, double* buf) {
  const idx panels = (nc + nr - 1) / nr;
  for (idx jp = 0; jp < panels; ++jp) {
    const idx j_base = j0 + jp * nr;
    const idx cols = std::min<idx>(nr, j0 + nc - j_base);
    double* dst = buf + jp * (nr * kc);
    if (trans == Trans::NoTrans) {
      for (idx p = 0; p < kc; ++p) {
        for (idx c = 0; c < cols; ++c) {
          dst[p * nr + c] = b(p0 + p, j_base + c);
        }
        for (idx c = cols; c < nr; ++c) dst[p * nr + c] = 0.0;
      }
    } else {
      for (idx c = 0; c < cols; ++c) {
        const double* src = b.col_ptr(p0) + (j_base + c);
        // op(B)(p, j) = b(j, p): walk row j_base+c of b, stride ld.
        for (idx p = 0; p < kc; ++p) dst[p * nr + c] = src[p * b.ld()];
      }
      for (idx c = cols; c < nr; ++c) {
        for (idx p = 0; p < kc; ++p) dst[p * nr + c] = 0.0;
      }
    }
  }
  detail::gemm_traffic_tls().pack_bytes +=
      static_cast<std::int64_t>((nc + panels * nr) * kc) * 8;
}

// ---- PackedPanel --------------------------------------------------------

namespace {
idx round_up(idx v, idx unit) { return ((v + unit - 1) / unit) * unit; }

// Padded extent of the non-depth dimension: full cache blocks contribute
// their exact size (MC % MR == 0 / NC % NR == 0), the ragged last block is
// rounded up to the register tile.
idx padded_extent(idx extent, idx cache_block, idx reg_tile) {
  const idx full = (extent / cache_block) * cache_block;
  return full + round_up(extent - full, reg_tile);
}
}  // namespace

const double* PackedPanel::a_block(idx i0, idx p0) const {
  assert(op_ == PackOperand::A);
  assert(i0 >= 0 && i0 < rows_ && i0 % blk_.mc == 0);
  assert(p0 >= 0 && p0 < cols_ && p0 % blk_.kc == 0);
  const idx kc = std::min<idx>(blk_.kc, cols_ - p0);
  return buf_.data() + p0 * padded_ + i0 * kc;
}

const double* PackedPanel::b_block(idx p0, idx j0) const {
  assert(op_ == PackOperand::B);
  assert(p0 >= 0 && p0 < rows_ && p0 % blk_.kc == 0);
  assert(j0 >= 0 && j0 < cols_ && j0 % blk_.nc == 0);
  const idx kc = std::min<idx>(blk_.kc, rows_ - p0);
  return buf_.data() + p0 * padded_ + j0 * kc;
}

PackedPanel pack_a(ConstMatrixView a, Trans trans) {
  const idx m = (trans == Trans::NoTrans) ? a.rows() : a.cols();
  const idx k = (trans == Trans::NoTrans) ? a.cols() : a.rows();
  PackedPanel p;
  p.op_ = PackOperand::A;
  p.rows_ = m;
  p.cols_ = k;
  // The panel records its kernel and that kernel's blocking, so every
  // consumer walks the same layout whatever kernel is active later.
  p.kernel_ = &active_kernel();
  p.blk_ = p.kernel_->blocking;
  p.padded_ = padded_extent(m, p.blk_.mc, p.blk_.mr);
  if (p.empty()) return p;
  p.buf_ = ScratchBuffer(static_cast<std::size_t>(p.padded_ * k));
  for (idx pc = 0; pc < k; pc += p.blk_.kc) {
    const idx kc = std::min<idx>(p.blk_.kc, k - pc);
    for (idx ic = 0; ic < m; ic += p.blk_.mc) {
      const idx mc = std::min<idx>(p.blk_.mc, m - ic);
      pack_a_block(a, trans, ic, pc, mc, kc, p.blk_.mr,
                   p.buf_.data() + pc * p.padded_ + ic * kc);
    }
  }
  return p;
}

PackedPanel pack_b(ConstMatrixView b, Trans trans) {
  const idx k = (trans == Trans::NoTrans) ? b.rows() : b.cols();
  const idx n = (trans == Trans::NoTrans) ? b.cols() : b.rows();
  PackedPanel p;
  p.op_ = PackOperand::B;
  p.rows_ = k;
  p.cols_ = n;
  p.kernel_ = &active_kernel();
  p.blk_ = p.kernel_->blocking;
  p.padded_ = padded_extent(n, p.blk_.nc, p.blk_.nr);
  if (p.empty()) return p;
  p.buf_ = ScratchBuffer(static_cast<std::size_t>(p.padded_ * k));
  for (idx pc = 0; pc < k; pc += p.blk_.kc) {
    const idx kc = std::min<idx>(p.blk_.kc, k - pc);
    for (idx jc = 0; jc < n; jc += p.blk_.nc) {
      const idx nc = std::min<idx>(p.blk_.nc, n - jc);
      pack_b_block(b, trans, pc, jc, kc, nc, p.blk_.nr,
                   p.buf_.data() + pc * p.padded_ + jc * kc);
    }
  }
  return p;
}

}  // namespace camult::blas
