#include "metrics.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "bench_support/flops.hpp"
#include "blas/gemm.hpp"
#include "core/tslu.hpp"
#include "core/tsqr.hpp"
#include "lapack/geqrf.hpp"
#include "lapack/getrf.hpp"
#include "matrix/random.hpp"
#include "runtime/task_graph.hpp"
#include "sim/sim_scheduler.hpp"
#include "stats.hpp"

namespace perfbench {

namespace core = camult::core;
namespace rt = camult::rt;
using camult::bench::lu_flops;
using camult::bench::qr_flops;

void stamp_problem(Report& report, int pool_size, const Shape& lu,
                   const Shape& qr, double input_bytes) {
  auto shape = [](const Shape& s) {
    return std::to_string(s.m) + "x" + std::to_string(s.n) +
           " b=" + std::to_string(s.b) + " tr=" + std::to_string(s.tr);
  };
  report.stamp("pool_size", pool_size);
  report.stamp("lu_shape", shape(lu));
  report.stamp("qr_shape", shape(qr));
  report.stamp("input_bytes", input_bytes);
  const std::int64_t llc = llc_bytes();
  report.stamp("input_llc_ratio",
               llc > 0 ? input_bytes / static_cast<double>(llc) : 0.0);
}

void report_end_to_end(Report& report, const std::vector<double>& setup_s,
                       const std::vector<double>& lu_s,
                       const std::vector<double>& qr_s,
                       const std::vector<double>& op_s, double span_s) {
  report.metric("setup_s", "s", median(setup_s), setup_s.size());
  report.metric("lu_s", "s", median(lu_s), lu_s.size());
  report.metric("qr_s", "s", median(qr_s), qr_s.size());
  report.metric("ops_per_s", "1/s", static_cast<double>(op_s.size()) / span_s,
                op_s.size());
  report.metric("op_p50_ms", "ms", 1e3 * median(op_s), op_s.size());
  const double p99 = percentile(op_s, 0.99);
  report.metric("op_p99_ms", "ms", 1e3 * p99, op_s.size());
  report.stamp("op_p99_samples_beyond",
               static_cast<double>(count_above(op_s, p99)));
  if (lu_s.size() <= 64) report.stamp_raw("lu_s_values", json_array(lu_s));
  if (qr_s.size() <= 64) report.stamp_raw("qr_s_values", json_array(qr_s));
  if (lu_s.size() >= 2) report.stamp("lu_s_rel_iqr", quartiles(lu_s).relative_iqr());
  if (qr_s.size() >= 2) report.stamp("qr_s_rel_iqr", quartiles(qr_s).relative_iqr());
  report.metric("peak_rss_mb", "MiB", peak_rss_mb(), 1);
}

namespace {

/// Median seconds of `op` over at least `min_reps` calls and `min_s`
/// seconds; `prep` runs untimed before every call.
template <class Prep, class Op>
std::pair<double, std::size_t> time_median(Prep&& prep, Op&& op, int min_reps,
                                           double min_s) {
  std::vector<double> t;
  const std::int64_t start = now_ns();
  while (static_cast<int>(t.size()) < min_reps ||
         seconds_between(start, now_ns()) < min_s) {
    prep();
    const std::int64_t t0 = now_ns();
    op();
    t.push_back(seconds_between(t0, now_ns()));
  }
  return {median(t), t.size()};
}

/// Busy seconds per task kind (index = rt::TaskKind) of one traced run.
std::array<double, 5> busy_by_kind(const std::vector<rt::TaskRecord>& trace) {
  std::array<double, 5> busy{};
  for (const rt::TaskRecord& r : trace) {
    busy[static_cast<std::size_t>(r.kind)] +=
        static_cast<double>(r.duration_ns()) * 1e-9;
  }
  return busy;
}

std::int64_t trace_busy_ns(const std::vector<rt::TaskRecord>& trace) {
  std::int64_t ns = 0;
  for (const rt::TaskRecord& r : trace) ns += r.duration_ns();
  return ns;
}

/// First task start to last task end of one traced run.
double trace_wall_s(const std::vector<rt::TaskRecord>& trace) {
  if (trace.empty()) return 0.0;
  std::int64_t lo = trace.front().start_ns;
  std::int64_t hi = trace.front().end_ns;
  for (const rt::TaskRecord& r : trace) {
    lo = std::min(lo, r.start_ns);
    hi = std::max(hi, r.end_ns);
  }
  return static_cast<double>(hi - lo) * 1e-9;
}

void report_blas(const LayerInputs& in, Report& report, Tracer& tracer) {
  Scope s(tracer, "blas");
  FactorBench& fb = *in.fb;
  namespace blas = camult::blas;
  const auto nt = blas::Trans::NoTrans;

  // Compute roof: one thread, operands resident in L2.
  const idx p = 256;
  camult::Matrix a = camult::random_matrix(p, p, 1);
  camult::Matrix b = camult::random_matrix(p, p, 2);
  camult::Matrix c = camult::random_matrix(p, p, 3);
  double peak_t = 0.0;
  std::size_t peak_n = 0;
  {
    Scope g(tracer, "blas.gemm_peak");
    std::tie(peak_t, peak_n) = time_median(
        [] {}, [&] { blas::gemm(nt, nt, -1.0, a, b, 1.0, c.view()); }, 5, 0.3);
  }
  const double peak = 2.0 * p * p * p / peak_t * 1e-9;

  // The workload's first trailing-update shape; a single-panel problem has
  // none, so it takes one leaf's rows times one panel instead.
  const Shape lu = fb.lu_shape();
  const MatrixView w = fb.lu_work();
  camult::copy_into(fb.lu_input(), w);
  idx m = lu.m - lu.b;
  idx n = lu.n - lu.b;
  const idx k = lu.b;
  MatrixView ua = w.block(lu.b, 0, m, k);
  MatrixView ub = w.block(0, lu.b, k, n);
  MatrixView uc = w.block(lu.b, lu.b, m, n);
  if (n == 0) {
    m = lu.m / lu.tr;
    n = lu.b;
    ua = w.block(0, 0, m, k);
    ub = w.block(0, 0, k, n);
    uc = w.block(m, 0, m, n);
  }
  double upd_t = 0.0;
  std::size_t upd_n = 0;
  {
    Scope g(tracer, "blas.gemm_update");
    std::tie(upd_t, upd_n) = time_median(
        [] {}, [&] { blas::gemm(nt, nt, -1.0, ua, ub, 1.0, uc); }, 3, 0.3);
  }
  blas::gemm_traffic_reset();
  blas::gemm(nt, nt, -1.0, ua, ub, 1.0, uc);
  const double upd_flops = 2.0 * static_cast<double>(m) * n * k;
  const double upd_bytes = static_cast<double>(blas::gemm_traffic().total());
  const double update = upd_flops / upd_t * 1e-9;
  const double fpb = upd_flops / upd_bytes;
  const double copy_gbps = median(in.copy_gbps);

  report.metric("matrix.copy_gbps", "GB/s", copy_gbps, in.copy_gbps.size());
  report.metric("blas.peak_gflops", "GFLOP/s", peak, peak_n);
  report.metric("blas.update_gflops", "GFLOP/s", update, upd_n);
  report.metric("blas.bytes", "bytes",
                static_cast<double>(in.counted->gemm_bytes), 1);
  report.metric("blas.flops_per_byte", "flop/B", fpb, 1);
  report.metric("blas.roofline_frac", "ratio",
                update / std::min(peak, copy_gbps * fpb), upd_n);
  report.stamp("blas_update_shape", std::to_string(m) + "x" +
                                        std::to_string(n) + "x" +
                                        std::to_string(k));
}

void report_panel_kernels(FactorBench& fb, Report& report, Tracer& tracer) {
  Scope s(tracer, "lapack+core");
  const Shape lu = fb.lu_shape();
  const Shape qr = fb.qr_shape();
  const idx lm = lu.m / lu.tr;
  const idx qm = qr.m / qr.tr;
  camult::PivotVector ipiv;
  std::vector<double> tau;
  camult::Matrix t(qr.b, qr.b);

  MatrixView lleaf = fb.lu_work().block(0, 0, lm, lu.b);
  MatrixView qleaf = fb.qr_work().block(0, 0, qm, qr.b);
  MatrixView lpanel = fb.lu_work().cols_range(0, lu.b);
  MatrixView qpanel = fb.qr_work().cols_range(0, qr.b);
  const ConstMatrixView lsrc = fb.lu_input();
  const ConstMatrixView qsrc = fb.qr_input();

  std::pair<double, std::size_t> r;
  {
    Scope g(tracer, "lapack.rgetf2");
    r = time_median([&] { camult::copy_into(lsrc.block(0, 0, lm, lu.b), lleaf); },
                    [&] { camult::lapack::rgetf2(lleaf, ipiv); }, 3, 0.3);
  }
  report.metric("lapack.rgetf2_gflops", "GFLOP/s",
                lu_flops(lm, lu.b) / r.first * 1e-9, r.second);
  {
    Scope g(tracer, "lapack.geqr3");
    r = time_median([&] { camult::copy_into(qsrc.block(0, 0, qm, qr.b), qleaf); },
                    [&] { camult::lapack::geqr3(qleaf, tau, t.view()); }, 3, 0.3);
  }
  report.metric("lapack.geqr3_gflops", "GFLOP/s",
                qr_flops(qm, qr.b) / r.first * 1e-9, r.second);

  core::TsluOptions tslu;
  tslu.tr = lu.tr;
  {
    Scope g(tracer, "core.tslu_factor");
    r = time_median([&] { camult::copy_into(lsrc.cols_range(0, lu.b), lpanel); },
                    [&] { core::tslu_factor(lpanel, ipiv, tslu); }, 1, 0.3);
  }
  report.metric("core.tslu_s", "s", r.first, r.second);
  core::TsqrOptions tsqr;
  tsqr.tr = qr.tr;
  tsqr.tree = core::ReductionTree::Flat;  // the CAQR panel's default tree
  {
    Scope g(tracer, "core.tsqr_factor");
    r = time_median([&] { camult::copy_into(qsrc.cols_range(0, qr.b), qpanel); },
                    [&] { core::tsqr_factor(qpanel, tsqr); }, 1, 0.3);
  }
  report.metric("core.tsqr_s", "s", r.first, r.second);
}

void report_runtime(const LayerInputs& in, Report& report, Tracer& tracer) {
  Scope s(tracer, "runtime");
  const core::CaluResult& lu = in.counted->lu;
  const core::CaqrResult& qr = in.counted->qr;
  const int pool = in.fb->pool().size();

  // Busy time by task kind; the per-kind sums must add up to the
  // scheduler's own busy counters.
  const auto lb = busy_by_kind(lu.trace);
  const auto qb = busy_by_kind(qr.trace);
  const char* lu_kinds[] = {"P", "L", "U", "S", "G"};
  for (std::size_t i = 0; i < 5; ++i) {
    report.metric(std::string("core.lu.busy_") + lu_kinds[i] + "_s", "s", lb[i], 1);
  }
  using K = rt::TaskKind;
  for (const K k : {K::Panel, K::Update, K::Generic}) {
    report.metric(std::string("core.qr.busy_") + rt::task_kind_letter(k) + "_s",
                  "s", qb[static_cast<std::size_t>(k)], 1);
  }
  const rt::WorkerStats lt = lu.sched.totals();
  const rt::WorkerStats qt = qr.sched.totals();
  report.check(trace_busy_ns(lu.trace) == lt.busy_ns &&
                   trace_busy_ns(qr.trace) == qt.busy_ns,
               "per-kind busy sums differ from the scheduler's busy time");
  double busy_sum = 0.0;
  for (std::size_t i = 0; i < 5; ++i) busy_sum += lb[i] + qb[i];
  const double wall = trace_wall_s(lu.trace) + trace_wall_s(qr.trace);

  report.metric("runtime.tasks", "count",
                static_cast<double>(lt.tasks_executed + qt.tasks_executed), 1);
  report.metric("runtime.idle_frac", "ratio", 1.0 - busy_sum / (pool * wall), 1);
  // Pool workers park in the pool, not in a graph, so the graphs' own
  // idle/wakeup counters stay zero on a pool; the pool counts them.
  report.metric("runtime.parks", "count",
                static_cast<double>(in.counted->pool_parks), 1);
  report.metric("runtime.wakeups", "count",
                static_cast<double>(in.counted->pool_wakeups), 1);
  report.metric("runtime.peak_task_store_bytes", "bytes",
                static_cast<double>(std::max(lu.mem.peak_task_store_bytes,
                                             qr.mem.peak_task_store_bytes)),
                1);

  // Dispatch cost: a wide DAG of empty tasks on the workload's pool.
  const idx n_tasks = 20000;
  std::pair<double, std::size_t> r;
  {
    Scope g(tracer, "runtime.empty_tasks");
    r = time_median(
        [] {},
        [&] {
          rt::TaskGraph::Config cfg;
          cfg.pool = &in.fb->pool();
          rt::TaskGraph g2(cfg);
          for (idx i = 0; i < n_tasks; ++i) g2.submit({}, {}, [] {});
          g2.wait();
        },
        3, 0.2);
  }
  report.metric("runtime.empty_task_ns", "ns", r.first * 1e9 / n_tasks, r.second);
  report.metric("runtime.trace_overhead", "ratio", in.trace_overhead, 1);
}

void report_sim(const LayerInputs& in, Report& report, Tracer& tracer) {
  Scope s(tracer, "sim");
  FactorBench& fb = *in.fb;
  const int pool = fb.pool().size();
  // Inline record runs (num_threads = 0): per-task durations on one thread
  // and the DAG the simulator replays. They must reproduce the pool runs'
  // factors bit for bit.
  core::CaluOptions lo = fb.lu_options();
  lo.pool = nullptr;
  lo.num_threads = 0;
  core::CaqrOptions qo = fb.qr_options();
  qo.pool = nullptr;
  qo.num_threads = 0;
  camult::copy_into(fb.lu_input(), fb.lu_work());
  std::int64_t t0 = now_ns();
  core::CaluResult lu;
  {
    Scope g(tracer, "core.calu_factor(inline)");
    lu = core::calu_factor(fb.lu_work(), lo);
  }
  const double lu_inline = seconds_between(t0, now_ns());
  report.op(lu.info == 0 && digest_lu(fb.lu_work(), lu) == fb.lu_reference(),
            "inline calu_factor: factors differ from the pool run");
  camult::copy_into(fb.qr_input(), fb.qr_work());
  t0 = now_ns();
  core::CaqrResult qr;
  {
    Scope g(tracer, "core.caqr_factor(inline)");
    qr = core::caqr_factor(fb.qr_work(), qo);
  }
  const double qr_inline = seconds_between(t0, now_ns());
  report.op(digest_qr(fb.qr_work(), qr) == fb.qr_reference(),
            "inline caqr_factor: factors differ from the pool run");

  camult::sim::SimResult sl;
  camult::sim::SimResult sq;
  {
    Scope g(tracer, "sim.simulate");
    sl = camult::sim::simulate(lu.trace, lu.edges, pool);
    sq = camult::sim::simulate(qr.trace, qr.edges, pool);
  }
  const double real = in.real_lu_s + in.real_qr_s;
  const double makespan = static_cast<double>(sl.makespan_ns + sq.makespan_ns) * 1e-9;
  report.metric("runtime.par_eff", "ratio", (lu_inline + qr_inline) / (pool * real), 1);
  report.metric("sim.makespan_s", "s", makespan, 1);
  report.metric("sim.critical_path_s", "s",
                static_cast<double>(sl.critical_path_ns + sq.critical_path_ns) * 1e-9, 1);
  report.metric("sim.total_work_s", "s",
                static_cast<double>(sl.total_work_ns + sq.total_work_ns) * 1e-9, 1);
  report.metric("sim.gap", "ratio", makespan / real - 1.0, 1);
  report.stamp("real_lu_plus_qr_s", real);
}

}  // namespace

void report_layers(const LayerInputs& in, Report& report, Tracer& tracer) {
  report_blas(in, report, tracer);
  report_panel_kernels(*in.fb, report, tracer);
  report_runtime(in, report, tracer);
  report_sim(in, report, tracer);
}

}  // namespace perfbench
