#include "svc_workload.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "matrix/random.hpp"
#include "metrics.hpp"
#include "stats.hpp"
#include "svc/service.hpp"

namespace perfbench {

namespace core = camult::core;
namespace svc = camult::svc;

namespace {

// Closed loop: K jobs outstanding from one generator thread, which waits on
// the oldest handle and then submits its replacement. An open loop at a
// fixed rate was rejected: on a 4-CPU host the generator itself ran late
// by tens of milliseconds and the tail latency swung with it.
constexpr int kOutstanding = 8;
// Distinct inputs per job kind; each job copies one, drawn from the seeded
// mix, so every output has a reference computed by a direct call.
constexpr int kInputs = 4;

struct JobSample {
  bool lu = true;
  double submit_us = 0.0;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  double total_ms = 0.0;
  std::int64_t tasks = 0;
};

struct Job {
  bool lu = true;
  MatrixView a;  ///< factored in place by the service
  std::uint64_t reference = 0;
  svc::JobHandle handle;
  bool accepted = false;
  std::int64_t submit_ns = 0;
  double submit_us = 0.0;
};

void submit_job(svc::Service& service, const Shape& shape, Job& job,
                Report& report) {
  svc::JobRequest req;
  req.kind = job.lu ? svc::JobKind::CaluFactor : svc::JobKind::CaqrFactor;
  req.a = job.a;
  req.b = shape.b;
  req.tr = shape.tr;
  job.submit_ns = now_ns();
  const svc::Service::Admission adm = service.submit(req);
  job.submit_us = static_cast<double>(now_ns() - job.submit_ns) * 1e-3;
  job.handle = adm.handle;
  job.accepted = adm.accepted;
  if (!adm.accepted) report.op(false, "svc job not admitted");
}

/// Wait for `job`, check its output bit for bit against its reference and
/// record its spans. Returns whether it completed correctly.
bool finish_job(Job& job, Report& report, Tracer& tracer, bool corrupt,
                JobSample* sample) {
  if (!job.accepted) return false;
  const svc::JobOutcome& out = job.handle.wait();
  bool ok = out.status == svc::JobStatus::Completed && out.info == 0;
  if (ok && corrupt) corrupt_one_bit(job.a);
  if (ok && job.lu) {
    ok = out.lu != nullptr && digest_lu(job.a, *out.lu) == job.reference;
  } else if (ok) {
    ok = out.qr != nullptr && digest_qr(job.a, *out.qr) == job.reference;
  }
  if (ok) {
    report.op(true, {});
  } else {
    report.op(false, std::string("svc ") + (job.lu ? "CALU" : "CAQR") + " job " +
                         svc::job_status_name(out.status) + " info=" +
                         std::to_string(out.info) +
                         ": output differs from a direct call");
  }
  if (tracer.enabled()) {
    const auto ms = [](double v) { return static_cast<std::int64_t>(v * 1e6); };
    const std::int64_t t0 = job.submit_ns;
    const int id = tracer.add("job", tracer.current(), t0, t0 + ms(out.total_ms));
    tracer.add("svc.submit", id, t0, t0 + static_cast<std::int64_t>(job.submit_us * 1e3));
    tracer.add("svc.queue", id, t0, t0 + ms(out.queue_ms));
    tracer.add("svc.run", id, t0 + ms(out.queue_ms),
               t0 + ms(out.queue_ms) + ms(out.run_ms));
  }
  if (sample != nullptr) {
    sample->lu = job.lu;
    sample->submit_us = job.submit_us;
    sample->queue_ms = out.queue_ms;
    sample->run_ms = out.run_ms;
    sample->total_ms = out.total_ms;
    sample->tasks = out.sched.totals().tasks_executed;
  }
  return ok;
}

void report_svc_layer(const std::vector<JobSample>& jobs, Report& report) {
  std::vector<double> submit;
  std::vector<double> queue;
  std::vector<double> run;
  double tasks = 0.0;
  for (const JobSample& j : jobs) {
    submit.push_back(j.submit_us);
    queue.push_back(j.queue_ms);
    run.push_back(j.run_ms);
    tasks += static_cast<double>(j.tasks);
  }
  const std::size_t n = jobs.size();
  report.metric("svc.submit_us", "us", median(submit), n);
  report.metric("svc.queue_ms_p50", "ms", median(queue), n);
  report.metric("svc.queue_ms_p99", "ms", percentile(queue, 0.99), n);
  report.metric("svc.run_ms_p50", "ms", median(run), n);
  report.metric("svc.run_ms_p99", "ms", percentile(run, 0.99), n);
  report.metric("svc.tasks_per_job", "count", tasks / static_cast<double>(n), n);
}

/// One set-up of the svc workload: the 2-worker pool with the direct-call
/// problems (input 0 of each kind), the other inputs with their reference
/// digests, and the service.
struct SvcSetup {
  std::unique_ptr<FactorBench> fb;
  std::vector<camult::Matrix> inputs[2];  ///< [0] CALU, [1] CAQR
  std::vector<std::uint64_t> refs[2];
  std::unique_ptr<svc::Service> service;  ///< last, so destroyed before the pool
};

const Shape kLu{128, 128, 32, 2};
const Shape kQr{384, 48, 16, 4};

std::unique_ptr<SvcSetup> make_setup(std::uint64_t seed, int pool_size,
                                     Report& report, Tracer& tracer) {
  auto s = std::make_unique<SvcSetup>();
  s->fb = std::make_unique<FactorBench>(kLu, kQr, seed, pool_size);
  s->fb->rep(report, tracer, false);  // warm-up; records input 0's digests
  for (int kind = 0; kind < 2; ++kind) {
    const Shape& sh = kind == 0 ? kLu : kQr;
    for (int i = 0; i < kInputs; ++i) {
      // Streams 1 and 2 are FactorBench's inputs, i.e. input 0 of each kind.
      s->inputs[kind].push_back(camult::random_matrix(
          sh.m, sh.n, derive_seed(seed, static_cast<std::uint64_t>(1 + kind + 2 * i))));
      camult::Matrix w = s->inputs[kind].back();
      if (kind == 0) {
        const core::CaluResult r = core::calu_factor(w.view(), s->fb->lu_options());
        s->refs[0].push_back(digest_lu(w.view(), r));
      } else {
        const core::CaqrResult r = core::caqr_factor(w.view(), s->fb->qr_options());
        s->refs[1].push_back(digest_qr(w.view(), r));
      }
    }
  }
  report.check(s->refs[0][0] == s->fb->lu_reference() &&
                   s->refs[1][0] == s->fb->qr_reference(),
               "direct calls on one input produced different factors");
  svc::ServiceConfig cfg;
  cfg.pool = &s->fb->pool();
  cfg.max_inflight = 2;
  s->service = std::make_unique<svc::Service>(cfg);
  return s;
}

struct LoopStats {
  std::vector<JobSample> jobs;  ///< completed within the measured span
  double span_s = 0.0;
};

/// Run the closed loop for `seconds` (or `max_jobs` completions), then
/// drain the outstanding jobs (checked, not counted).
LoopStats closed_loop(SvcSetup& s, std::mt19937_64& rng, double seconds,
                      std::size_t max_jobs, bool corrupt_one, Report& report,
                      Tracer& tracer) {
  Scope scope(tracer, "closed_loop");
  // Each slot owns one buffer per job kind; a job copies its input there.
  std::vector<Job> jobs(kOutstanding);
  std::vector<camult::Matrix> bufs[2];
  for (int i = 0; i < kOutstanding; ++i) {
    bufs[0].emplace_back(kLu.m, kLu.n);
    bufs[1].emplace_back(kQr.m, kQr.n);
  }
  std::deque<Job*> ring;
  auto launch = [&](Job& j) {
    j.lu = (rng() & 1) == 0;
    const int k = j.lu ? 0 : 1;
    const auto i = static_cast<std::size_t>(rng() % kInputs);
    camult::Matrix& buf = bufs[k][static_cast<std::size_t>(&j - jobs.data())];
    camult::copy_into(s.inputs[k][i].view(), buf.view());
    j.a = buf.view();
    j.reference = s.refs[k][i];
    submit_job(*s.service, j.lu ? kLu : kQr, j, report);
    ring.push_back(&j);
  };
  LoopStats st;
  const std::int64_t t0 = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  for (Job& j : jobs) launch(j);
  while (now_ns() - t0 < budget && st.jobs.size() < max_jobs) {
    Job& j = *ring.front();
    ring.pop_front();
    JobSample sample;
    if (finish_job(j, report, tracer, corrupt_one, &sample)) st.jobs.push_back(sample);
    corrupt_one = false;
    launch(j);
  }
  st.span_s = seconds_between(t0, now_ns());
  while (!ring.empty()) {
    finish_job(*ring.front(), report, tracer, false, nullptr);
    ring.pop_front();
  }
  return st;
}

}  // namespace

void run_svc_workload(const Options& opt, Report& report, Tracer& tracer) {
  const int pool_size = std::min(online_cpus(), 2);
  Scope root(tracer, "svc");
  std::mt19937_64 rng(derive_seed(opt.seed, 99));

  const int setups = opt.trace ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<SvcSetup> s;
  for (int i = 0; i < setups; ++i) {
    s.reset();
    Scope sc(tracer, "setup");
    const std::int64_t t0 = now_ns();
    s = make_setup(opt.seed, pool_size, report, tracer);
    closed_loop(*s, rng, 1e9, 4 * kOutstanding, false, report, tracer);  // warm-up
    setup_s.push_back(seconds_between(t0, now_ns()));
  }
  const double input_bytes = kInputs * (kLu.bytes() + kQr.bytes());
  stamp_problem(report, pool_size, kLu, kQr, input_bytes);
  report.stamp("outstanding_jobs", kOutstanding);

  auto split = [](const std::vector<JobSample>& jobs, std::vector<double>& lu,
                  std::vector<double>& qr, std::vector<double>& total) {
    for (const JobSample& j : jobs) {
      (j.lu ? lu : qr).push_back(j.run_ms * 1e-3);
      total.push_back(j.total_ms * 1e-3);
    }
  };

  if (!opt.trace) {
    const LoopStats st = closed_loop(*s, rng, opt.seconds, SIZE_MAX, opt.corrupt,
                                     report, tracer);
    std::vector<double> lu, qr, total;
    split(st.jobs, lu, qr, total);
    report_end_to_end(report, setup_s, lu, qr, total, st.span_s);
    s->fb->residual_check(report, tracer);
    return;
  }

  tracer.set_paused(true);
  const LoopStats plain = closed_loop(*s, rng, opt.seconds / 2, SIZE_MAX,
                                      opt.corrupt, report, tracer);
  tracer.set_paused(false);
  const LoopStats traced = closed_loop(*s, rng, opt.seconds / 2, SIZE_MAX,
                                       false, report, tracer);
  std::vector<double> unused, plain_total, traced_total;
  split(plain.jobs, unused, unused, plain_total);
  split(traced.jobs, unused, unused, traced_total);

  // Direct calls of the two job shapes on the service's pool give the
  // layer metrics below the service.
  const LoopResult direct = rep_loop(*s->fb, report, tracer, 1.0, 3, true);
  LayerInputs in{s->fb.get(),
                 median(direct.lu_s),
                 median(direct.qr_s),
                 median(traced_total) / median(plain_total) - 1.0,
                 direct.copy_gbps,
                 &direct.last};
  report_layers(in, report, tracer);
  report_svc_layer(traced.jobs, report);
  s->fb->residual_check(report, tracer);
}

void svc_probe(FactorBench& fb, Report& report, Tracer& tracer) {
  Scope scope(tracer, "svc.probe");
  svc::ServiceConfig cfg;
  cfg.pool = &fb.pool();
  cfg.max_inflight = 2;
  svc::Service service(cfg);
  std::vector<JobSample> samples;
  for (const bool lu : {true, false}) {
    Job j;
    j.lu = lu;
    j.a = lu ? fb.lu_work() : fb.qr_work();
    camult::copy_into(lu ? fb.lu_input() : fb.qr_input(), j.a);
    j.reference = lu ? fb.lu_reference() : fb.qr_reference();
    submit_job(service, lu ? fb.lu_shape() : fb.qr_shape(), j, report);
    JobSample sample;
    if (finish_job(j, report, tracer, false, &sample)) samples.push_back(sample);
  }
  if (!samples.empty()) report_svc_layer(samples, report);
}

}  // namespace perfbench
