#include "factor_bench.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>
#include <thread>

#include "blas/kernel.hpp"
#include "core/caqr.hpp"
#include "lapack/verify.hpp"
#include "matrix/random.hpp"
#include "metrics.hpp"
#include "stats.hpp"
#include "svc_workload.hpp"


namespace perfbench {

namespace core = camult::core;

FactorBench::FactorBench(Shape lu, Shape qr, std::uint64_t seed,
                         int pool_size)
    : lu_(lu), qr_(qr), shared_(lu.m == qr.m && lu.n == qr.n) {
  a_lu_ = camult::random_matrix(lu_.m, lu_.n, derive_seed(seed, 1));
  if (!shared_) a_qr_ = camult::random_matrix(qr_.m, qr_.n, derive_seed(seed, 2));
  work_lu_ = camult::Matrix(lu_.m, lu_.n);
  if (!shared_) work_qr_ = camult::Matrix(qr_.m, qr_.n);
  camult::rt::WorkerPoolConfig cfg;
  cfg.num_threads = pool_size;
  pool_ = std::make_unique<camult::rt::WorkerPool>(cfg);
}

core::CaluOptions FactorBench::lu_options() {
  core::CaluOptions o;
  o.b = lu_.b;
  o.tr = lu_.tr;
  o.pool = pool_.get();
  return o;
}

core::CaqrOptions FactorBench::qr_options() {
  core::CaqrOptions o;
  o.b = qr_.b;
  o.tr = qr_.tr;
  o.pool = pool_.get();
  return o;
}

double FactorBench::copy(ConstMatrixView src, MatrixView dst, Tracer& tracer) {
  Scope s(tracer, "matrix.copy_into");
  const std::int64_t t0 = now_ns();
  camult::copy_into(src, dst);
  return seconds_between(t0, now_ns());
}

void FactorBench::check_lu(Report& report, Tracer& tracer,
                           const core::CaluResult& r) {
  Scope s(tracer, "check");
  if (corrupt_next_) {
    corrupt_one_bit(lu_work());
    corrupt_next_ = false;
  }
  const std::uint64_t d = digest_lu(lu_work(), r);
  if (!have_ref_lu_) {
    ref_lu_ = d;
    have_ref_lu_ = true;
  }
  report.op(r.info == 0 && !r.cancelled && d == ref_lu_,
            "calu_factor: info=" + std::to_string(r.info) +
                (d == ref_lu_ ? "" : ", factors differ from the first rep"));
}

void FactorBench::check_qr(Report& report, Tracer& tracer,
                           const core::CaqrResult& r) {
  Scope s(tracer, "check");
  const std::uint64_t d = digest_qr(qr_work(), r);
  if (!have_ref_qr_) {
    ref_qr_ = d;
    have_ref_qr_ = true;
  }
  report.op(!r.cancelled && d == ref_qr_,
            "caqr_factor: factors differ from the first rep");
}

bool FactorBench::run_lu(Report& report, Tracer& tracer, RepResult& out) {
  out.copy_s += copy(lu_input(), lu_work(), tracer);
  Scope s(tracer, "core.calu_factor");
  const std::int64_t t0 = now_ns();
  try {
    out.lu = core::calu_factor(lu_work(), lu_options());
  } catch (const std::exception& e) {
    out.lu_s = seconds_between(t0, now_ns());
    report.op(false, std::string("calu_factor threw: ") + e.what());
    return false;
  }
  out.lu_s = seconds_between(t0, now_ns());
  check_lu(report, tracer, out.lu);
  return true;
}

bool FactorBench::run_qr(Report& report, Tracer& tracer, RepResult& out) {
  out.copy_s += copy(qr_input(), qr_work(), tracer);
  Scope s(tracer, "core.caqr_factor");
  const std::int64_t t0 = now_ns();
  try {
    out.qr = core::caqr_factor(qr_work(), qr_options());
  } catch (const std::exception& e) {
    out.qr_s = seconds_between(t0, now_ns());
    report.op(false, std::string("caqr_factor threw: ") + e.what());
    return false;
  }
  out.qr_s = seconds_between(t0, now_ns());
  check_qr(report, tracer, out.qr);
  return true;
}

RepResult FactorBench::rep(Report& report, Tracer& tracer, bool count) {
  Scope s(tracer, "rep");
  RepResult out;
  camult::rt::WorkerPoolStats before;
  if (count) {
    pool_->run_on_all_workers([] { camult::blas::gemm_traffic_reset(); });
    before = pool_->stats();
  }
  run_lu(report, tracer, out);
  run_qr(report, tracer, out);
  if (count) {
    const camult::rt::WorkerPoolStats after = pool_->stats();
    out.pool_parks = after.parks - before.parks;
    out.pool_wakeups = after.wakeups_issued - before.wakeups_issued;
    std::atomic<std::int64_t> bytes{0};
    pool_->run_on_all_workers(
        [&bytes] { bytes += camult::blas::gemm_traffic().total(); });
    out.gemm_bytes = bytes.load();
  }
  out.copy_gbps = 2.0 * (lu_.bytes() + qr_.bytes()) / out.copy_s * 1e-9;
  return out;
}

void FactorBench::residual_check(Report& report, Tracer& tracer) {
  Scope s(tracer, "residual_check");
  RepResult r;
  double lu_res = -1.0;
  double qr_res = -1.0;
  auto lu_check = [&] {
    lu_res = camult::lapack::lu_residual(lu_input(), lu_work(), r.lu.ipiv);
  };
  auto qr_check = [&] { qr_res = core::caqr_residual(qr_input(), qr_work(), r.qr); };
  const std::int64_t t0 = now_ns();
  if (shared_) {
    // One scratch buffer: check each factorization before the next call
    // overwrites it.
    if (run_lu(report, tracer, r)) lu_check();
    if (run_qr(report, tracer, r)) qr_check();
  } else {
    // Both factorizations stay resident, so the two sequential checks run
    // side by side.
    const bool lu_ok = run_lu(report, tracer, r);
    const bool qr_ok = run_qr(report, tracer, r);
    std::thread lu_thread([&] {
      if (lu_ok) lu_check();
    });
    if (qr_ok) qr_check();
    lu_thread.join();
  }
  report.stamp("residual_check_s", seconds_between(t0, now_ns()));
  report.stamp("lu_residual", lu_res);
  report.stamp("qr_residual", qr_res);
  report.stamp("residual_bound", kResidualBound);
  report.check(lu_res >= 0.0 && lu_res <= kResidualBound,
               "lu_residual " + std::to_string(lu_res) + " outside [0, bound]");
  report.check(qr_res >= 0.0 && qr_res <= kResidualBound,
               "caqr_residual " + std::to_string(qr_res) + " outside [0, bound]");
}

LoopResult rep_loop(FactorBench& fb, Report& report, Tracer& tracer,
                    double seconds, int min_reps, bool count) {
  LoopResult loop;
  const std::int64_t t0 = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t last_ns = 0;
  // Stop before a repetition that would end past the budget, so a run
  // measures for about `seconds` whatever one repetition costs.
  while (static_cast<int>(loop.rep_s.size()) < min_reps ||
         now_ns() - t0 + last_ns <= budget) {
    const std::int64_t r0 = now_ns();
    RepResult r = fb.rep(report, tracer, count);
    last_ns = now_ns() - r0;
    loop.lu_s.push_back(r.lu_s);
    loop.qr_s.push_back(r.qr_s);
    loop.rep_s.push_back(r.lu_s + r.qr_s);
    loop.copy_gbps.push_back(r.copy_gbps);
    loop.last = std::move(r);
  }
  loop.span_s = seconds_between(t0, now_ns());
  return loop;
}

namespace {

struct FactorSpec {
  Shape lu;
  Shape qr;
};

FactorSpec factor_spec(const Options& opt) {
  if (opt.workload == "tall") {
    // One pristine 1e6 x 100 input, several times the LLC: a single panel,
    // so TSLU/TSQR and their leaf kernels do all the work from DRAM.
    const Shape s = opt.tiny ? Shape{8000, 40, 40, 4} : Shape{1000000, 100, 100, 4};
    return {s, s};
  }
  // square: the trailing update does > 90 % of the flops.
  if (opt.tiny) return {{300, 300, 50, 4}, {200, 200, 50, 4}};
  return {{6000, 6000, 100, 4}, {4000, 4000, 100, 4}};
}

}  // namespace

void run_factor_workload(const Options& opt, Report& report, Tracer& tracer) {
  const FactorSpec spec = factor_spec(opt);
  const int pool_size = std::min(online_cpus(), 4);
  Scope root(tracer, opt.workload);

  // Set-up is input generation, pool start and one warm-up repetition (it
  // also records the reference digests). It is repeated and its median
  // reported; every set-up must reproduce the first one's factors.
  const int setups = opt.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<FactorBench> fb;
  std::uint64_t ref_lu = 0;
  std::uint64_t ref_qr = 0;
  for (int i = 0; i < setups; ++i) {
    fb.reset();  // release the previous set-up before building the next
    Scope s(tracer, "setup");
    const std::int64_t t0 = now_ns();
    fb = std::make_unique<FactorBench>(spec.lu, spec.qr, opt.seed, pool_size);
    fb->rep(report, tracer, false);
    setup_s.push_back(seconds_between(t0, now_ns()));
    if (i == 0) {
      ref_lu = fb->lu_reference();
      ref_qr = fb->qr_reference();
    }
    report.check(fb->lu_reference() == ref_lu && fb->qr_reference() == ref_qr,
                 "a repeated set-up produced different factors");
  }
  stamp_problem(report, pool_size, spec.lu, spec.qr, fb->input_bytes());
  if (opt.corrupt) fb->corrupt_next();

  if (!opt.trace) {
    const LoopResult loop = rep_loop(*fb, report, tracer, opt.seconds, 3, false);
    std::vector<double> op_s = loop.lu_s;
    op_s.insert(op_s.end(), loop.qr_s.begin(), loop.qr_s.end());
    report_end_to_end(report, setup_s, loop.lu_s, loop.qr_s, op_s, loop.span_s);
  } else {
    // Untraced then traced repetitions in one process: their ratio is the
    // tracing overhead, and the untraced medians are what the simulator
    // and the parallel efficiency are compared with.
    tracer.set_paused(true);
    const LoopResult plain = rep_loop(*fb, report, tracer, opt.seconds / 2, 2, false);
    tracer.set_paused(false);
    const LoopResult traced = rep_loop(*fb, report, tracer, opt.seconds / 2, 2, true);
    LayerInputs in{fb.get(),
                   median(plain.lu_s),
                   median(plain.qr_s),
                   median(traced.rep_s) / median(plain.rep_s) - 1.0,
                   traced.copy_gbps,
                   &traced.last};
    report_layers(in, report, tracer);
    svc_probe(*fb, report, tracer);
  }
  fb->residual_check(report, tracer);
}

}  // namespace perfbench
