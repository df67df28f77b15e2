// gemm_kernel — microbench for the two-phase (pack once / multiply many)
// GEMM API against plain gemm, on the trailing-update shape the CALU/CAQR
// S tasks execute: one m x k panel block multiplied into many narrow
// column segments. Plain gemm repacks the panel on every call; pack_a +
// gemm_packed pays the packing once per panel. The "speedup" column is the
// acceptance metric for the pack-once scheduler wiring.
//
// Since the microkernel layer became runtime-dispatched (blas/kernel.hpp)
// this bench also reports, per scenario, the kernel that actually ran, the
// blocking it used, and the measured arithmetic intensity (flops per byte
// of pack + packed-operand + C traffic, from blas::gemm_traffic()), plus a
// per-kernel parity table: every registered kernel forced in turn via
// set_active_kernel(), so "dispatched >= best fixed kernel" is checkable
// from BENCH_gemm_kernel.json.
//
// Also reports the per-thread scratch-pool counters so pool regressions
// (e.g. a path that falls back to operator new per call) show up here.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "blas/blas.hpp"

namespace {

using namespace camult;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Scenario {
  idx m;     ///< panel rows (trailing-matrix height)
  idx k;     ///< panel width b (gemm depth)
  idx segw;  ///< trailing column-segment width (one S task's columns)
  idx segs;  ///< segments updated per panel (>= 8 for the acceptance row)
};

struct Timing {
  double unpacked_s = 0.0;  ///< best-of-reps: segs gemm calls
  double packed_s = 0.0;    ///< best-of-reps: one pack_a + segs gemm_packed
  double max_diff = 0.0;    ///< |C_packed - C_unpacked| (bitwise 0 expected)
  double flops_per_byte = 0.0;  ///< flops / measured packed-path traffic
};

Timing run_scenario(const Scenario& sc, int reps) {
  const Matrix a = random_matrix(sc.m, sc.k, 93 + sc.m + sc.k);
  const Matrix b = random_matrix(sc.k, sc.segw * sc.segs, 51 + sc.segw);
  Matrix c0 = random_matrix(sc.m, sc.segw * sc.segs, 77);
  Matrix cu(sc.m, sc.segw * sc.segs);
  Matrix cp(sc.m, sc.segw * sc.segs);

  Timing t;
  t.unpacked_s = 1e300;
  t.packed_s = 1e300;
  for (int r = 0; r < reps; ++r) {
    copy_into(c0.view(), cu.view());
    double t0 = now_s();
    for (idx s = 0; s < sc.segs; ++s) {
      blas::gemm(blas::Trans::NoTrans, blas::Trans::NoTrans, -1.0, a.view(),
                 b.view().block(0, s * sc.segw, sc.k, sc.segw), 1.0,
                 cu.view().block(0, s * sc.segw, sc.m, sc.segw));
    }
    t.unpacked_s = std::min(t.unpacked_s, now_s() - t0);

    copy_into(c0.view(), cp.view());
    t0 = now_s();
    const blas::PackedPanel pa = blas::pack_a(a.view(), blas::Trans::NoTrans);
    for (idx s = 0; s < sc.segs; ++s) {
      blas::gemm_packed(-1.0, pa, blas::Trans::NoTrans,
                        b.view().block(0, s * sc.segw, sc.k, sc.segw), 1.0,
                        cp.view().block(0, s * sc.segw, sc.m, sc.segw));
    }
    t.packed_s = std::min(t.packed_s, now_s() - t0);
  }
  for (idx j = 0; j < cu.cols(); ++j) {
    for (idx i = 0; i < cu.rows(); ++i) {
      t.max_diff = std::max(t.max_diff, std::abs(cu(i, j) - cp(i, j)));
    }
  }

  // One traced packed pass: arithmetic intensity = flops over the bytes the
  // packed path actually moved (pack reads+writes, per-microtile packed
  // operand streams, C read-modify-write).
  blas::gemm_traffic_reset();
  copy_into(c0.view(), cp.view());
  const blas::PackedPanel pa = blas::pack_a(a.view(), blas::Trans::NoTrans);
  for (idx s = 0; s < sc.segs; ++s) {
    blas::gemm_packed(-1.0, pa, blas::Trans::NoTrans,
                      b.view().block(0, s * sc.segw, sc.k, sc.segw), 1.0,
                      cp.view().block(0, s * sc.segw, sc.m, sc.segw));
  }
  const blas::GemmTraffic traffic = blas::gemm_traffic();
  const double flops = 2.0 * static_cast<double>(sc.m) *
                       static_cast<double>(sc.k) *
                       static_cast<double>(sc.segw * sc.segs);
  if (traffic.total() > 0) {
    t.flops_per_byte = flops / static_cast<double>(traffic.total());
  }
  return t;
}

}  // namespace

int main() {
  using namespace camult;
  using bench::Table;

  // Trailing-update shapes: tall panels, narrow segments — where repacking
  // the panel per call is the dominant redundant traffic. The first row is
  // the acceptance configuration (>= 8 segments).
  const idx segs = bench::env_idx("CAMULT_BENCH_GEMM_SEGS", 16);
  const int reps =
      static_cast<int>(bench::env_idx("CAMULT_BENCH_GEMM_REPS", 7));
  const std::vector<Scenario> scenarios = {
      {2048, 64, 32, std::max<idx>(segs, 8)},
      {1024, 32, 32, std::max<idx>(2 * segs, 8)},
      {1536, 48, 32, std::max<idx>(segs, 8)},
      {2048, 32, 48, std::max<idx>(segs, 8)},
      {512, 100, 100, std::max<idx>(segs / 2, 8)},
  };

  std::printf("gemm_kernel — pack-once vs repack-per-call trailing updates "
              "(best of %d reps)\n", reps);
  std::printf("dispatched kernel: %s\n", blas::active_kernel().name);

  Table t({"m", "k", "segw", "segs", "kernel", "unpacked_gflops",
           "packed_gflops", "speedup", "flops_per_byte", "max_diff"});
  bool all_exact = true;
  for (const Scenario& sc : scenarios) {
    const Timing tm = run_scenario(sc, reps);
    const double flops = 2.0 * static_cast<double>(sc.m) *
                         static_cast<double>(sc.k) *
                         static_cast<double>(sc.segw * sc.segs);
    t.row()
        .cell(static_cast<long long>(sc.m))
        .cell(static_cast<long long>(sc.k))
        .cell(static_cast<long long>(sc.segw))
        .cell(static_cast<long long>(sc.segs))
        .cell(blas::active_kernel().name)
        .cell(flops / tm.unpacked_s * 1e-9)
        .cell(flops / tm.packed_s * 1e-9)
        .cell(tm.unpacked_s / tm.packed_s, 3)
        .cell(tm.flops_per_byte, 3)
        .cell(tm.max_diff, 3);
    all_exact = all_exact && tm.max_diff == 0.0;
  }
  t.print("gemm_packed vs gemm on shared-panel updates",
          bench::csv_path("gemm_kernel"));

  // Per-kernel parity: force each registered kernel this host can run (plus
  // the auto-dispatched choice, listed first) on the acceptance scenario.
  // The dispatched row must be >= parity with every fixed-kernel row.
  const Scenario par = scenarios[0];
  const int par_reps = std::max(2, reps / 2);
  Table kt({"kernel", "packed_gflops", "flops_per_byte", "mc", "kc", "nc",
            "mr", "nr"});
  std::vector<std::string> forced = {"auto"};
  for (const blas::KernelInfo& ki : blas::kernel_registry()) {
    if (ki.compiled && ki.supported) forced.push_back(ki.name);
  }
  for (const std::string& name : forced) {
    if (!blas::set_active_kernel(name == "auto" ? "" : name)) continue;
    const Timing tm = run_scenario(par, par_reps);
    const double flops = 2.0 * static_cast<double>(par.m) *
                         static_cast<double>(par.k) *
                         static_cast<double>(par.segw * par.segs);
    const blas::GemmBlocking& blk = blas::active_kernel().blocking;
    kt.row()
        .cell(name == "auto"
                  ? std::string("auto(") + blas::active_kernel().name + ")"
                  : name)
        .cell(flops / tm.packed_s * 1e-9)
        .cell(tm.flops_per_byte, 3)
        .cell(static_cast<long long>(blk.mc))
        .cell(static_cast<long long>(blk.kc))
        .cell(static_cast<long long>(blk.nc))
        .cell(static_cast<long long>(blk.mr))
        .cell(static_cast<long long>(blk.nr));
    all_exact = all_exact && tm.max_diff == 0.0;
  }
  blas::set_active_kernel("");  // restore cpuid dispatch
  kt.print("per-kernel packed GEMM (forced via set_active_kernel)");

  const blas::BufferPoolStats ps = blas::buffer_pool_stats();
  Table pool({"acquires", "pool_hits", "allocs", "releases", "frees"});
  pool.row()
      .cell(static_cast<long long>(ps.acquires))
      .cell(static_cast<long long>(ps.pool_hits))
      .cell(static_cast<long long>(ps.allocs))
      .cell(static_cast<long long>(ps.releases))
      .cell(static_cast<long long>(ps.frees));
  pool.print("scratch pool counters (this thread)");
  if (ps.acquires > 0) {
    std::printf("pool hit rate: %.1f%%\n",
                100.0 * static_cast<double>(ps.pool_hits) /
                    static_cast<double>(ps.acquires));
  }

  bench::JsonReport rep("gemm_kernel", 1, "real");
  rep.add_table(t);
  rep.add_table(kt);
  bench::JsonValue& prow = rep.new_row();
  prow.set("competitor", bench::JsonValue::make_string("pool_stats"));
  prow.set("pool_acquires",
           bench::JsonValue::make_number(static_cast<double>(ps.acquires)));
  prow.set("pool_hits",
           bench::JsonValue::make_number(static_cast<double>(ps.pool_hits)));
  prow.set("pool_allocs",
           bench::JsonValue::make_number(static_cast<double>(ps.allocs)));
  rep.write();

  if (!all_exact) {
    std::fprintf(stderr,
                 "gemm_kernel: packed and unpacked results diverge!\n");
    return 1;
  }
  return 0;
}
