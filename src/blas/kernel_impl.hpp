// kernel_impl.hpp — internal contract between the per-arch kernel TUs and
// the dispatcher (kernel_dispatch.cpp). Each kernel_<arch>.cpp is compiled
// with exactly the ISA flags its kernel needs (see src/blas/CMakeLists.txt)
// and exports one factory; when the toolchain could not provide the ISA the
// factory returns a stub with fn == nullptr and compiled == false. The
// `supported` field is left false here — the dispatcher fills it in from
// cpuid, which is the only place allowed to decide what the HOST can run.
#pragma once

#include "blas/kernel.hpp"
#include "blas/pack.hpp"

namespace camult::blas::detail {

/// The one cache blocking (pack.hpp's kGemmMC/KC/NC) on an MR x NR register
/// tile. PackedPanel's packed offsets need whole tiles per cache block.
template <idx MR, idx NR>
constexpr GemmBlocking fixed_blocking() {
  static_assert(kGemmMC % MR == 0, "packed A offsets assume MC % MR == 0");
  static_assert(kGemmNC % NR == 0, "packed B offsets assume NC % NR == 0");
  return {kGemmMC, kGemmKC, kGemmNC, MR, NR};
}

KernelInfo make_scalar_kernel();
KernelInfo make_avx2_kernel();
KernelInfo make_avx512_kernel();

}  // namespace camult::blas::detail
