// kernel_dispatch.cpp — cpuid detection, the kernel registry and
// CAMULT_KERNEL handling. This is the only TU that decides what the host
// can run; the per-arch kernel TUs only say what the toolchain could
// compile.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "blas/kernel.hpp"
#include "blas/kernel_impl.hpp"

namespace camult::blas {
namespace {

bool cpu_has_avx2() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

std::vector<KernelInfo> build_registry() {
  std::vector<KernelInfo> v;
  // Preference order: fastest first. The scalar kernel is always last and
  // always supported, so auto-selection can never come up empty.
  v.push_back(detail::make_avx512_kernel());
  v.push_back(detail::make_avx2_kernel());
  v.push_back(detail::make_scalar_kernel());
  v[0].supported = v[0].compiled && cpu_has_avx512();
  v[1].supported = v[1].compiled && cpu_has_avx2();
  v[2].supported = v[2].compiled;  // scalar runs anywhere
  return v;
}

const KernelInfo* find_kernel(std::string_view name) {
  for (const KernelInfo& k : kernel_registry()) {
    if (name == k.name) return &k;
  }
  return nullptr;
}

const KernelInfo* auto_select() {
  for (const KernelInfo& k : kernel_registry()) {
    if (k.supported) return &k;
  }
  // Unreachable: scalar is always supported.
  return &kernel_registry().back();
}

// Resolve CAMULT_KERNEL once. Typo-safe: anything that does not name a
// runnable variant warns on stderr and degrades to auto-selection — a bad
// env var must never change results or crash a run.
const KernelInfo* select_from_env() {
  const char* env = std::getenv("CAMULT_KERNEL");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0) {
    return auto_select();
  }
  const KernelInfo* k = find_kernel(env);
  if (k == nullptr) {
    std::fprintf(stderr,
                 "camult: CAMULT_KERNEL=%s is not a known kernel "
                 "(scalar|avx2|avx512); using auto selection\n",
                 env);
    return auto_select();
  }
  if (!k->supported) {
    std::fprintf(stderr,
                 "camult: CAMULT_KERNEL=%s is not runnable on this host "
                 "(%s); using auto selection\n",
                 env, k->compiled ? "cpu lacks the ISA" : "not compiled in");
    return auto_select();
  }
  return k;
}

std::atomic<const KernelInfo*>& active_slot() {
  static std::atomic<const KernelInfo*> slot{select_from_env()};
  return slot;
}

thread_local GemmTraffic tl_traffic;

}  // namespace

const std::vector<KernelInfo>& kernel_registry() {
  static const std::vector<KernelInfo> registry = build_registry();
  return registry;
}

const KernelInfo& active_kernel() {
  return *active_slot().load(std::memory_order_acquire);
}

bool set_active_kernel(std::string_view name) {
  const KernelInfo* k;
  if (name.empty() || name == "auto") {
    // Restore the STARTUP selection, CAMULT_KERNEL included — a forced env
    // kernel (e.g. the no-AVX2 CI leg's CAMULT_KERNEL=scalar) must survive
    // tests/tools that temporarily switch variants and then restore.
    k = select_from_env();
  } else {
    k = find_kernel(name);
    if (k == nullptr || !k->supported) return false;
  }
  active_slot().store(k, std::memory_order_release);
  return true;
}

GemmTraffic gemm_traffic() { return tl_traffic; }

void gemm_traffic_reset() { tl_traffic = GemmTraffic{}; }

namespace detail {
GemmTraffic& gemm_traffic_tls() { return tl_traffic; }
}  // namespace detail

}  // namespace camult::blas
