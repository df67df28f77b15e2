#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstring>
#include <vector>

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t digest_words(const double* p, idx n, std::uint64_t h) {
  std::uint64_t w[4] = {h ^ 0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL,
                        0xA4093822299F31D0ULL, 0x082EFA98EC4E6C89ULL};
  auto step = [](std::uint64_t s, const double* x) {
    std::uint64_t v;
    std::memcpy(&v, x, sizeof v);
    s = (s ^ v) * 0x9E3779B97F4A7C15ULL;  // both steps are bijections, so any
    return s ^ (s >> 29);                 // one changed word changes the lane
  };
  idx i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int k = 0; k < 4; ++k) w[k] = step(w[k], p + i + k);
  }
  for (; i < n; ++i) w[0] = step(w[0], p + i);
  return splitmix64(w[0] ^ splitmix64(w[1] ^ splitmix64(w[2] ^ w[3])));
}

std::uint64_t digest_matrix(const camult::Matrix& m, std::uint64_t h) {
  return digest(m.view(), h);
}

std::uint64_t digest_vector(const std::vector<double>& v, std::uint64_t h) {
  return digest_words(v.data(), static_cast<idx>(v.size()), h);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return splitmix64(splitmix64(seed) ^ (stream * 0xD1B54A32D192ED03ULL));
}

std::uint64_t digest(ConstMatrixView a, std::uint64_t h) {
  h = splitmix64(h ^ static_cast<std::uint64_t>(a.rows()) ^
                 (static_cast<std::uint64_t>(a.cols()) << 32));
  for (idx j = 0; j < a.cols(); ++j) h = digest_words(a.col_ptr(j), a.rows(), h);
  return h;
}

std::uint64_t digest_lu(ConstMatrixView a, const camult::core::CaluResult& r) {
  std::uint64_t h = digest(a);
  for (const idx p : r.ipiv) h = splitmix64(h ^ static_cast<std::uint64_t>(p));
  return h;
}

std::uint64_t digest_qr(ConstMatrixView a, const camult::core::CaqrResult& r) {
  std::uint64_t h = digest(a);
  for (const auto& it : r.iterations) {
    for (const auto& leaf : it.leaves) {
      h = digest_vector(leaf.tau, digest_matrix(leaf.t, h));
    }
    for (const auto& node : it.nodes) {
      h = digest_matrix(node.t, digest_matrix(node.vt, h));
    }
  }
  return h;
}

void corrupt_one_bit(MatrixView a) {
  std::uint64_t v;
  std::memcpy(&v, &a(0, 0), sizeof v);
  v ^= 1;
  std::memcpy(&a(0, 0), &v, sizeof v);
}

int online_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::int64_t llc_bytes() {
  const long s = sysconf(_SC_LEVEL3_CACHE_SIZE);  // glibc asks cpuid
  return s > 0 ? s : 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
