// test_svc.cpp — the multi-tenant factorization job service (svc::Service):
// submit/wait correctness against the direct drivers, QoS-ordered dispatch,
// admission control with shed-lowest-class-first eviction, deadline
// enforcement through CancelToken, per-tenant accounting, failure isolation,
// and the drain/shutdown contract (the queue always empties; the pool is
// never wedged). The self-healing layer rides the same binary: stall
// watchdog recovery from cancel-oblivious hangs, retry with pristine-input
// restore and deterministic backoff, and per-tenant circuit breakers
// (Open -> ShedBreaker + retry_after -> half-open probe -> Closed).
//
// Determinism strategy: the service runs on an EXTERNAL pool the test also
// attaches a "stall" graph to — pool.size() tasks that block on a
// condition variable. While stalled, no job can make progress, so queue
// composition at each submit() is exact, not timing-dependent. Every test
// releases the stall before asserting terminal states.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/test_utils.hpp"
#include "core/calu.hpp"
#include "core/caqr.hpp"
#include "core/lookahead.hpp"
#include "matrix/matrix.hpp"
#include "matrix/random.hpp"
#include "runtime/fault_inject.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/worker_pool.hpp"
#include "svc/service.hpp"

namespace camult {
namespace {

using namespace std::chrono_literals;

// Occupies every worker of `pool` until release() — the clock-stopper the
// header comment describes. Must be released before destruction (the
// destructor releases defensively, then drains).
class PoolStall {
 public:
  explicit PoolStall(rt::WorkerPool& pool) {
    rt::TaskGraph::Config cfg;
    cfg.num_threads = pool.size();
    cfg.record_trace = false;
    cfg.pool = &pool;
    graph_ = std::make_unique<rt::TaskGraph>(cfg);
    for (int i = 0; i < pool.size(); ++i) {
      graph_->submit({}, {}, [this] {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return released_; });
      });
    }
  }

  void release() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

  ~PoolStall() {
    release();
    graph_->wait();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  std::unique_ptr<rt::TaskGraph> graph_;
};

svc::JobRequest lu_request(MatrixView a, svc::QosClass qos,
                           const std::string& tenant = "t0") {
  svc::JobRequest req;
  req.kind = svc::JobKind::CaluFactor;
  req.a = a;
  req.qos = qos;
  req.tenant = tenant;
  req.b = 16;
  req.tr = 2;
  return req;
}

// ---- Correctness: service results match the direct drivers ---------------

TEST(SvcService, LuJobMatchesDirectFactorization) {
  Matrix direct = random_matrix(96, 96, 100);
  Matrix via_svc = direct;

  core::CaluOptions opts;
  opts.b = 16;
  opts.tr = 2;
  opts.num_threads = 4;
  opts.record_trace = false;
  const core::CaluResult ref = core::calu_factor(direct.view(), opts);

  svc::ServiceConfig cfg;
  cfg.num_threads = 4;
  svc::Service service(cfg);
  const auto adm =
      service.submit(lu_request(via_svc.view(), svc::QosClass::Normal));
  ASSERT_TRUE(adm.accepted);
  const svc::JobOutcome& out = adm.handle.wait();
  ASSERT_EQ(out.status, svc::JobStatus::Completed);
  ASSERT_NE(out.lu, nullptr);
  // CALU is deterministic across schedules (pinned elsewhere by the
  // bit-exactness-under-injection test), so the service result must be
  // bit-identical to the direct call.
  EXPECT_EQ(out.lu->ipiv, ref.ipiv);
  EXPECT_EQ(out.info, ref.info);
  EXPECT_EQ(test::max_diff(direct.view(), via_svc.view()), 0.0);
  EXPECT_GT(out.sched.totals().tasks_executed, 0);
  EXPECT_GT(out.total_ms, 0.0);
}

TEST(SvcService, QrJobMatchesDirectFactorization) {
  Matrix direct = random_matrix(128, 48, 101);
  Matrix via_svc = direct;

  core::CaqrOptions opts;
  opts.b = 16;
  opts.tr = 2;
  opts.num_threads = 4;
  opts.record_trace = false;
  const core::CaqrResult ref = core::caqr_factor(direct.view(), opts);

  svc::ServiceConfig cfg;
  cfg.num_threads = 4;
  svc::Service service(cfg);
  svc::JobRequest req;
  req.kind = svc::JobKind::CaqrFactor;
  req.a = via_svc.view();
  req.b = 16;
  req.tr = 2;
  const auto adm = service.submit(req);
  ASSERT_TRUE(adm.accepted);
  const svc::JobOutcome& out = adm.handle.wait();
  ASSERT_EQ(out.status, svc::JobStatus::Completed);
  ASSERT_NE(out.qr, nullptr);
  EXPECT_EQ(out.qr->iterations.size(), ref.iterations.size());
  EXPECT_EQ(test::max_diff(direct.view(), via_svc.view()), 0.0);
  EXPECT_FALSE(out.health.nan_detected);
}

TEST(SvcService, NegativeWindowJobFails) {
  svc::ServiceConfig cfg;
  cfg.num_threads = 2;
  svc::Service service(cfg);
  for (svc::JobKind kind :
       {svc::JobKind::CaluFactor, svc::JobKind::CaqrFactor}) {
    // b and tr below 1 fail the same way, before any task runs.
    for (const std::string field : {"window", "b", "tr"}) {
      const Matrix orig = random_matrix(64, 64, 150);
      Matrix m = orig;
      svc::JobRequest req = lu_request(m.view(), svc::QosClass::Normal);
      req.kind = kind;
      req.window = field == "window" ? -1 : 0;
      if (field == "b") req.b = 0;
      if (field == "tr") req.tr = 0;
      const auto adm = service.submit(req);
      ASSERT_TRUE(adm.accepted);
      const svc::JobOutcome& out = adm.handle.wait();
      EXPECT_EQ(out.status, svc::JobStatus::Failed) << field;
      EXPECT_EQ(out.error.rfind(field + " must be", 0), 0u) << out.error;
      EXPECT_EQ(out.sched.totals().tasks_executed, 0);
      // Rejected before any task touched the input.
      EXPECT_EQ(test::max_diff(orig.view(), m.view()), 0.0);
    }
  }
  // The service is unharmed: a well-formed job still completes.
  Matrix ok = random_matrix(64, 64, 151);
  const auto adm =
      service.submit(lu_request(ok.view(), svc::QosClass::Normal));
  EXPECT_EQ(adm.handle.wait().status, svc::JobStatus::Completed);
  service.drain();
}

// ---- Accounting ----------------------------------------------------------

TEST(SvcService, DrainsAndAccountsPerClassAndTenant) {
  svc::ServiceConfig cfg;
  cfg.num_threads = 4;
  cfg.max_inflight = 2;
  svc::Service service(cfg);

  const int n_jobs = 12;
  std::vector<Matrix> ms;
  ms.reserve(n_jobs);
  std::vector<svc::JobHandle> handles;
  for (int i = 0; i < n_jobs; ++i) {
    ms.push_back(random_matrix(64, 64, 200 + i));
    const auto qos = static_cast<svc::QosClass>(i % svc::kQosClasses);
    const std::string tenant = i % 2 == 0 ? "alice" : "bob";
    const auto adm = service.submit(lu_request(ms.back().view(), qos, tenant));
    ASSERT_TRUE(adm.accepted);
    EXPECT_GE(adm.queue_depth, 1u);
    handles.push_back(adm.handle);
  }
  service.drain();

  for (const auto& h : handles) {
    EXPECT_EQ(h.wait().status, svc::JobStatus::Completed);
  }
  const svc::ServiceStats st = service.stats();
  EXPECT_EQ(st.queued, 0u);
  EXPECT_EQ(st.inflight, 0);
  EXPECT_GE(st.peak_queue_depth, 1u);
  long long completed = 0;
  for (const svc::QosStats& c : st.per_class) {
    EXPECT_EQ(c.completed, c.submitted);
    completed += c.completed;
  }
  EXPECT_EQ(completed, n_jobs);
  ASSERT_EQ(st.per_tenant.size(), 2u);
  EXPECT_EQ(st.per_tenant.at("alice").completed, n_jobs / 2);
  EXPECT_EQ(st.per_tenant.at("bob").completed, n_jobs / 2);
  EXPECT_GT(st.per_tenant.at("alice").tasks_executed, 0);
  EXPECT_GT(st.per_tenant.at("alice").run_ms_sum, 0.0);
}

// ---- Admission control / backpressure / shedding -------------------------

TEST(SvcService, RejectsWhenFullAndNothingLowerToShed) {
  rt::WorkerPool pool({2});
  PoolStall stall(pool);
  svc::ServiceConfig cfg;
  cfg.pool = &pool;
  cfg.max_inflight = 1;
  cfg.max_queue = 2;
  svc::Service service(cfg);

  std::vector<Matrix> ms;
  std::vector<svc::JobHandle> accepted;
  // 1 dispatched (stuck Running on the stalled pool) + 2 queued = full.
  for (int i = 0; i < 3; ++i) {
    ms.push_back(random_matrix(48, 48, 300 + i));
    const auto adm =
        service.submit(lu_request(ms.back().view(), svc::QosClass::Normal));
    ASSERT_TRUE(adm.accepted) << "job " << i;
    accepted.push_back(adm.handle);
    if (i == 0) {
      // Let the dispatcher pick up job 0 (stuck Running on the stalled
      // pool) so the next two submits fill the queue exactly.
      while (service.queue_depth() > 0) std::this_thread::sleep_for(1ms);
    }
  }

  // Same class: nothing strictly below Normal is queued -> backpressure.
  Matrix extra = random_matrix(48, 48, 310);
  const auto rejected =
      service.submit(lu_request(extra.view(), svc::QosClass::Normal));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.handle.status(), svc::JobStatus::Rejected);
  EXPECT_EQ(rejected.handle.wait().status, svc::JobStatus::Rejected);

  // Lower class: also rejected (it would be the first victim itself).
  Matrix batch = random_matrix(48, 48, 311);
  const auto rejected2 =
      service.submit(lu_request(batch.view(), svc::QosClass::Batch));
  EXPECT_FALSE(rejected2.accepted);

  stall.release();
  service.drain();
  for (const auto& h : accepted) {
    EXPECT_EQ(h.wait().status, svc::JobStatus::Completed);
  }
  const svc::ServiceStats st = service.stats();
  EXPECT_EQ(st.per_class[1].rejected, 1);
  EXPECT_EQ(st.per_class[0].rejected, 1);
  EXPECT_EQ(st.per_class[1].completed, 3);
}

TEST(SvcService, ShedsLowestClassFirstOnOverload) {
  rt::WorkerPool pool({2});
  PoolStall stall(pool);
  svc::ServiceConfig cfg;
  cfg.pool = &pool;
  cfg.max_inflight = 1;
  cfg.max_queue = 3;
  svc::Service service(cfg);

  std::vector<Matrix> ms;
  auto submit = [&](svc::QosClass qos) {
    ms.push_back(random_matrix(48, 48, 400 + static_cast<int>(ms.size())));
    return service.submit(lu_request(ms.back().view(), qos));
  };

  // Occupy the single dispatcher, then queue [batch, batch, normal] = full.
  const auto running = submit(svc::QosClass::Normal);
  while (service.queue_depth() > 0) std::this_thread::sleep_for(1ms);
  const auto batch0 = submit(svc::QosClass::Batch);
  const auto batch1 = submit(svc::QosClass::Batch);
  const auto normal0 = submit(svc::QosClass::Normal);
  ASSERT_EQ(service.queue_depth(), 3u);

  // Interactive arrivals evict oldest-lowest first: batch0, then batch1,
  // then (no batch left) normal0.
  const auto inter0 = submit(svc::QosClass::Interactive);
  EXPECT_TRUE(inter0.accepted);
  EXPECT_EQ(batch0.handle.wait().status, svc::JobStatus::ShedQueueFull);
  EXPECT_EQ(batch1.handle.status(), svc::JobStatus::Queued);

  const auto inter1 = submit(svc::QosClass::Interactive);
  EXPECT_TRUE(inter1.accepted);
  EXPECT_EQ(batch1.handle.wait().status, svc::JobStatus::ShedQueueFull);
  EXPECT_EQ(normal0.handle.status(), svc::JobStatus::Queued);

  const auto inter2 = submit(svc::QosClass::Interactive);
  EXPECT_TRUE(inter2.accepted);
  EXPECT_EQ(normal0.handle.wait().status, svc::JobStatus::ShedQueueFull);

  // A shed job never ran: its latency is pure queue time.
  EXPECT_EQ(batch0.handle.wait().run_ms, 0.0);
  EXPECT_GT(batch0.handle.wait().queue_ms, 0.0);

  stall.release();
  service.drain();
  EXPECT_EQ(running.handle.wait().status, svc::JobStatus::Completed);
  EXPECT_EQ(inter0.handle.wait().status, svc::JobStatus::Completed);
  EXPECT_EQ(inter1.handle.wait().status, svc::JobStatus::Completed);
  EXPECT_EQ(inter2.handle.wait().status, svc::JobStatus::Completed);
  const svc::ServiceStats st = service.stats();
  EXPECT_EQ(st.per_class[0].shed_queue_full, 2);
  EXPECT_EQ(st.per_class[1].shed_queue_full, 1);
  EXPECT_EQ(st.per_class[2].shed_queue_full, 0);
  EXPECT_EQ(st.per_class[2].completed, 3);
  EXPECT_EQ(st.queued, 0u);
}

TEST(SvcService, DispatchServesHigherClassesFirst) {
  rt::WorkerPool pool({2});
  svc::ServiceConfig cfg;
  cfg.pool = &pool;
  cfg.max_inflight = 1;
  svc::Service service(cfg);

  std::vector<Matrix> ms;
  std::vector<std::pair<svc::JobHandle, svc::QosClass>> jobs;
  {
    PoolStall stall(pool);
    // Head job occupies the dispatcher; the rest queue up in mixed order.
    ms.push_back(random_matrix(48, 48, 500));
    const auto head =
        service.submit(lu_request(ms.back().view(), svc::QosClass::Normal));
    while (service.queue_depth() > 0) std::this_thread::sleep_for(1ms);
    const svc::QosClass order[] = {
        svc::QosClass::Batch, svc::QosClass::Interactive,
        svc::QosClass::Normal, svc::QosClass::Batch,
        svc::QosClass::Interactive};
    for (const svc::QosClass qos : order) {
      ms.push_back(random_matrix(48, 48, 501 + static_cast<int>(ms.size())));
      jobs.emplace_back(service.submit(lu_request(ms.back().view(), qos))
                            .handle,
                        qos);
    }
    stall.release();
    (void)head.handle.wait();
  }
  service.drain();
  // Dispatch order is priority order; with one dispatcher, completion
  // times are strictly ordered, so every Interactive job must finish
  // before every Batch job (dispatch happened class-by-class).
  double last_interactive_done = 0.0;
  double first_batch_done = 1e300;
  for (const auto& [handle, qos] : jobs) {
    const svc::JobOutcome& out = handle.wait();
    ASSERT_EQ(out.status, svc::JobStatus::Completed);
    // queue_ms is submit->dispatch; all five were submitted within the
    // stall window, so dispatch order shows up in queue_ms order.
    if (qos == svc::QosClass::Interactive) {
      last_interactive_done = std::max(last_interactive_done, out.queue_ms);
    }
    if (qos == svc::QosClass::Batch) {
      first_batch_done = std::min(first_batch_done, out.queue_ms);
    }
  }
  EXPECT_LT(last_interactive_done, first_batch_done);
}

// ---- Deadlines -----------------------------------------------------------

TEST(SvcService, ExpiredDeadlineShedsQueuedJobWithoutRunning) {
  rt::WorkerPool pool({2});
  PoolStall stall(pool);
  svc::ServiceConfig cfg;
  cfg.pool = &pool;
  cfg.max_inflight = 1;
  svc::Service service(cfg);

  Matrix head_m = random_matrix(48, 48, 600);
  const auto head =
      service.submit(lu_request(head_m.view(), svc::QosClass::Normal));
  while (service.queue_depth() > 0) std::this_thread::sleep_for(1ms);

  Matrix dl_m = random_matrix(48, 48, 601);
  svc::JobRequest req = lu_request(dl_m.view(), svc::QosClass::Normal);
  req.deadline = 20ms;
  const auto dl = service.submit(req);
  ASSERT_TRUE(dl.accepted);

  // Let the deadline expire while the job is still queued (the head job
  // holds the only dispatcher on a stalled pool).
  std::this_thread::sleep_for(60ms);
  EXPECT_EQ(dl.handle.status(), svc::JobStatus::Queued);
  stall.release();
  const svc::JobOutcome& out = dl.handle.wait();
  EXPECT_EQ(out.status, svc::JobStatus::ShedDeadline);
  EXPECT_TRUE(out.deadline_hit);
  EXPECT_EQ(out.run_ms, 0.0);
  EXPECT_EQ(out.sched.totals().tasks_executed, 0);
  EXPECT_EQ(head.handle.wait().status, svc::JobStatus::Completed);
  service.drain();
  EXPECT_EQ(service.stats().per_class[1].shed_deadline, 1);
}

TEST(SvcService, DeadlineCancelsRunningJobThroughItsToken) {
  rt::WorkerPool pool({2});
  PoolStall stall(pool);
  svc::ServiceConfig cfg;
  cfg.pool = &pool;
  cfg.max_inflight = 1;
  svc::Service service(cfg);

  Matrix m = random_matrix(96, 96, 602);
  svc::JobRequest req = lu_request(m.view(), svc::QosClass::Interactive);
  req.deadline = 30ms;
  const auto adm = service.submit(req);
  ASSERT_TRUE(adm.accepted);
  // The job dispatches immediately (empty queue) onto the stalled pool, so
  // it is Running when its deadline fires.
  while (service.queue_depth() > 0) std::this_thread::sleep_for(1ms);
  std::this_thread::sleep_for(80ms);
  stall.release();

  const svc::JobOutcome& out = adm.handle.wait();
  EXPECT_EQ(out.status, svc::JobStatus::Cancelled);
  EXPECT_TRUE(out.deadline_hit);
  EXPECT_GT(out.sched.totals().tasks_skipped, 0);
  service.drain();
  EXPECT_EQ(service.stats().queued, 0u);
  EXPECT_EQ(service.stats().per_class[2].cancelled, 1);
}

TEST(SvcService, ClientCancelAbortsQueuedJob) {
  rt::WorkerPool pool({2});
  PoolStall stall(pool);
  svc::ServiceConfig cfg;
  cfg.pool = &pool;
  cfg.max_inflight = 1;
  svc::Service service(cfg);

  Matrix head_m = random_matrix(48, 48, 610);
  const auto head =
      service.submit(lu_request(head_m.view(), svc::QosClass::Normal));
  while (service.queue_depth() > 0) std::this_thread::sleep_for(1ms);
  Matrix m = random_matrix(48, 48, 611);
  const auto adm = service.submit(lu_request(m.view(), svc::QosClass::Normal));
  adm.handle.cancel();
  stall.release();
  const svc::JobOutcome& out = adm.handle.wait();
  EXPECT_EQ(out.status, svc::JobStatus::Cancelled);
  EXPECT_FALSE(out.deadline_hit);
  EXPECT_EQ(out.sched.totals().tasks_executed, 0);
  EXPECT_EQ(head.handle.wait().status, svc::JobStatus::Completed);
  service.drain();
}

// ---- Failure isolation ---------------------------------------------------

TEST(SvcService, InjectedTaskFailureFailsTheJobNotTheService) {
  rt::FaultConfig fc;
  fc.throw_on_task = 0;  // first task of every job's graph
  rt::FaultInjector inj(fc);
  svc::ServiceConfig cfg;
  cfg.num_threads = 4;
  cfg.fault = &inj;
  svc::Service service(cfg);

  Matrix bad = random_matrix(64, 64, 700);
  const auto failed =
      service.submit(lu_request(bad.view(), svc::QosClass::Normal, "chaos"));
  const svc::JobOutcome& out = failed.handle.wait();
  EXPECT_EQ(out.status, svc::JobStatus::Failed);
  EXPECT_NE(out.error.find("fault"), std::string::npos) << out.error;
  EXPECT_GT(out.sched.totals().tasks_skipped, 0);
  service.drain();
  const svc::ServiceStats st = service.stats();
  EXPECT_EQ(st.per_tenant.at("chaos").failed, 1);
  EXPECT_EQ(st.queued, 0u);
  EXPECT_EQ(st.inflight, 0);
}

// ---- Shutdown / drain contract -------------------------------------------

TEST(SvcService, ShutdownWithoutRunningQueuedJobsCancelsThem) {
  rt::WorkerPool pool({2});
  PoolStall stall(pool);
  svc::ServiceConfig cfg;
  cfg.pool = &pool;
  cfg.max_inflight = 1;
  svc::Service service(cfg);

  std::vector<Matrix> ms;
  std::vector<svc::JobHandle> handles;
  for (int i = 0; i < 3; ++i) {
    ms.push_back(random_matrix(48, 48, 800 + i));
    handles.push_back(
        service.submit(lu_request(ms.back().view(), svc::QosClass::Normal))
            .handle);
  }
  while (service.queue_depth() > 2) std::this_thread::sleep_for(1ms);

  // shutdown(false) drops the two queued jobs immediately, then blocks on
  // the running one — which needs the stall released to finish.
  std::thread stopper([&] { service.shutdown(false); });
  EXPECT_EQ(handles[1].wait().status, svc::JobStatus::Cancelled);
  EXPECT_EQ(handles[2].wait().status, svc::JobStatus::Cancelled);
  stall.release();
  stopper.join();
  EXPECT_EQ(handles[0].wait().status, svc::JobStatus::Completed);

  // Stopped service refuses new work as Rejected (clean backpressure).
  Matrix late = random_matrix(48, 48, 810);
  const auto adm =
      service.submit(lu_request(late.view(), svc::QosClass::Interactive));
  EXPECT_FALSE(adm.accepted);
  EXPECT_EQ(adm.handle.status(), svc::JobStatus::Rejected);
  EXPECT_EQ(service.stats().queued, 0u);
}

TEST(SvcService, DestructorRunsQueuedJobsAndPoolSurvives) {
  rt::WorkerPool pool({4});
  std::vector<Matrix> ms;
  std::vector<svc::JobHandle> handles;
  {
    svc::ServiceConfig cfg;
    cfg.pool = &pool;
    cfg.max_inflight = 2;
    svc::Service service(cfg);
    for (int i = 0; i < 6; ++i) {
      ms.push_back(random_matrix(64, 64, 900 + i));
      handles.push_back(
          service
              .submit(lu_request(ms.back().view(), svc::QosClass::Batch))
              .handle);
    }
    // Destructor: stop accepting, run everything queued, join threads.
  }
  for (const auto& h : handles) {
    EXPECT_EQ(h.wait().status, svc::JobStatus::Completed);
  }
  // The external pool is untouched by service teardown.
  core::CaluOptions opts;
  opts.b = 16;
  opts.tr = 2;
  opts.pool = &pool;
  opts.num_threads = pool.size();
  opts.record_trace = false;
  Matrix again = random_matrix(64, 64, 950);
  EXPECT_EQ(core::calu_factor(again.view(), opts).info, 0);
}

// ---- Timer queue bound ---------------------------------------------------

TEST(SvcService, WatchdogHeapStaysBoundedUnderChurn) {
  // Hammer the submit/complete cycle with jobs whose deadline and stall
  // timers never fire (1 hour out). Leaving a finished job's timers behind
  // would grow the timer queue by two entries per job — unbounded for a
  // long-running service. A job's timers must go with the job: once the
  // service is drained, none is left.
  svc::ServiceConfig cfg;
  cfg.num_threads = 2;
  svc::Service service(cfg);
  const int n_jobs = 300;
  Matrix a = random_matrix(32, 32, 960);
  for (int i = 0; i < n_jobs; ++i) {
    Matrix work = a;
    svc::JobRequest req = lu_request(work.view(), svc::QosClass::Normal);
    req.deadline = 1h;
    req.stall_timeout = 1h;
    const auto adm = service.submit(req);
    ASSERT_TRUE(adm.accepted) << "job " << i;
    const svc::JobOutcome& out = adm.handle.wait();
    ASSERT_EQ(out.status, svc::JobStatus::Completed) << "job " << i;
    EXPECT_FALSE(out.deadline_hit);
  }
  service.drain();
  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.per_class[1].completed, n_jobs);
  EXPECT_LT(stats.watchdog_entries, 128u)
      << "stale deadline entries are accumulating; compaction regressed";
  EXPECT_EQ(stats.watchdog_entries, 0u)
      << "a finished job left timers behind";
}

// ---- QoS priority bands --------------------------------------------------

TEST(SvcService, QosBiasSaturatesInsteadOfWrapping) {
  EXPECT_EQ(svc::qos_priority_bias(svc::QosClass::Batch), 0);
  EXPECT_EQ(svc::qos_priority_bias(svc::QosClass::Normal),
            svc::kQosBandWidth);
  EXPECT_EQ(svc::qos_priority_bias(svc::QosClass::Interactive),
            2 * svc::kQosBandWidth);
  constexpr int kMax = std::numeric_limits<int>::max();
  EXPECT_EQ(core::biased_priority(kMax - 1, 10), kMax);
  EXPECT_EQ(core::biased_priority(5, svc::kQosBandWidth),
            5 + svc::kQosBandWidth);
  EXPECT_EQ(core::biased_priority(std::numeric_limits<int>::min(), -10),
            std::numeric_limits<int>::min());
}

// ---- JobHandle::wait_for -------------------------------------------------

TEST(SvcWaitFor, TimesOutWhileRunningAndReturnsImmediatelyOnceTerminal) {
  rt::WorkerPool pool({2});
  PoolStall stall(pool);
  svc::ServiceConfig cfg;
  cfg.pool = &pool;
  cfg.max_inflight = 1;
  svc::Service service(cfg);

  Matrix a = random_matrix(64, 64, 7100);
  const auto adm =
      service.submit(lu_request(a.view(), svc::QosClass::Normal));
  ASSERT_TRUE(adm.accepted);
  // The pool is fully stalled, so the job cannot reach a terminal state:
  // a bounded wait must report false instead of blocking forever.
  EXPECT_FALSE(adm.handle.wait_for(50ms));
  EXPECT_NE(adm.handle.status(), svc::JobStatus::Completed);

  stall.release();
  EXPECT_TRUE(adm.handle.wait_for(30s));
  EXPECT_EQ(adm.handle.status(), svc::JobStatus::Completed);
  // Already terminal: even a zero timeout succeeds immediately.
  EXPECT_TRUE(adm.handle.wait_for(0ns));

  EXPECT_THROW(svc::JobHandle().wait_for(1ms), std::logic_error);
}

// ---- Self-healing: stall watchdog + retry --------------------------------

// End-to-end hang recovery. A sniper hang (hang_on_task = 0, and snipers
// ignore the retry salt) wedges one pool worker cancel-obliviously on every
// attempt. The stall watchdog must notice the stuck heartbeat, fire the
// attempt's token (reclaiming the runner slot long before the hang ends),
// and the retry machinery must re-run the job until attempts are exhausted.
// Throughout, a healthy tenant's jobs keep completing and the service ends
// the test alive and drained — one wedged tenant never takes the pool down.
TEST(SvcSelfHealing, HangIsStallCancelledRetriedAndIsolated) {
  svc::ServiceConfig cfg;
  cfg.num_threads = 2;
  cfg.max_inflight = 2;
  cfg.retry.max_attempts = 2;
  cfg.retry.base = 1ms;
  cfg.retry.cap = 4ms;
  cfg.retry.jitter_seed = 7;
  svc::Service service(cfg);

  rt::FaultConfig fc;
  fc.hang_on_task = 0;
  fc.hang_ms = 60;
  rt::FaultInjector inj(fc);

  Matrix noisy = random_matrix(48, 48, 7200);
  svc::JobRequest req = lu_request(noisy.view(), svc::QosClass::Batch,
                                   "chaos");
  req.fault = &inj;
  req.stall_timeout = 5ms;
  const auto adm = service.submit(req);
  ASSERT_TRUE(adm.accepted);

  // While the noisy job hangs, the healthy tenant still gets service.
  Matrix healthy = random_matrix(64, 64, 7201);
  const auto good = service.submit(
      lu_request(healthy.view(), svc::QosClass::Interactive, "calm"));
  ASSERT_TRUE(good.accepted);
  EXPECT_EQ(good.handle.wait().status, svc::JobStatus::Completed);

  const svc::JobOutcome& out = adm.handle.wait();
  EXPECT_EQ(out.status, svc::JobStatus::Cancelled);
  EXPECT_EQ(out.attempts, 2);
  ASSERT_EQ(out.attempt_run_ms.size(), 2u);
  EXPECT_GT(out.backoff_ms, 0.0);
  ASSERT_TRUE(out.stall.detected);
  EXPECT_EQ(out.stall.task, 0);
  EXPECT_GE(out.stall.worker, 0);
  EXPECT_LT(out.stall.worker, 2);
  EXPECT_GE(out.stall.stuck_ms, 4.0);
  EXPECT_EQ(out.stall.attempt, 2);
  EXPECT_EQ(inj.injected_hangs(), 2);

  service.drain();
  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.per_tenant.at("chaos").cancelled, 1);
  EXPECT_EQ(stats.per_tenant.at("chaos").retries, 1);
  EXPECT_EQ(stats.per_tenant.at("chaos").stalls_detected, 2);
  EXPECT_EQ(stats.per_tenant.at("calm").completed, 1);
  EXPECT_EQ(stats.retry_pending, 0u);

  // The runner slot was reclaimed: fresh work still completes.
  Matrix again = random_matrix(64, 64, 7202);
  const auto fresh = service.submit(
      lu_request(again.view(), svc::QosClass::Normal, "calm"));
  ASSERT_TRUE(fresh.accepted);
  EXPECT_EQ(fresh.handle.wait().status, svc::JobStatus::Completed);
}

// A retried attempt must factor the CALLER'S matrix, not the wreckage the
// aborted attempt left behind: the service snapshots the input before
// attempt 1 and restores it before each retry. Find a fault seed whose
// salt-0 stream (attempt 1) throws somewhere in the DAG while the salt-1
// stream (attempt 2) is completely clean — decide() is a pure hash, so the
// search is exact — then demand the retried job's factorization be
// bit-identical to a direct clean run on the same input.
TEST(SvcSelfHealing, RetryRestoresPristineInputAndMatchesDirectRun) {
  Matrix ref = random_matrix(96, 96, 7300);
  Matrix via_svc = ref;

  core::CaluOptions opts;
  opts.b = 16;
  opts.tr = 2;
  opts.num_threads = 2;
  opts.record_trace = false;
  rt::SchedulerStats sched;
  opts.sched_out = &sched;
  const core::CaluResult direct = core::calu_factor(ref.view(), opts);
  const rt::TaskId n_tasks =
      static_cast<rt::TaskId>(sched.totals().tasks_executed);
  ASSERT_GT(n_tasks, 0);

  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 20000 && seed == 0; ++s) {
    rt::FaultConfig fc;
    fc.seed = s;
    fc.throw_rate = 0.02;
    rt::FaultInjector probe(fc);
    bool first_throws = false, second_clean = true;
    for (rt::TaskId id = 0; id < n_tasks && second_clean; ++id) {
      first_throws |=
          probe.decide(id, 0) == rt::FaultInjector::Action::Throw;
      second_clean = probe.decide(id, 1) == rt::FaultInjector::Action::None;
    }
    if (first_throws && second_clean) seed = s;
  }
  ASSERT_NE(seed, 0u) << "no suitable fault seed below 20000";

  rt::FaultConfig fc;
  fc.seed = seed;
  fc.throw_rate = 0.02;
  rt::FaultInjector inj(fc);

  svc::ServiceConfig cfg;
  cfg.num_threads = 2;
  cfg.retry.max_attempts = 3;
  cfg.retry.base = 1ms;
  cfg.retry.cap = 4ms;
  svc::Service service(cfg);
  svc::JobRequest req = lu_request(via_svc.view(), svc::QosClass::Normal);
  req.b = 16;
  req.fault = &inj;
  const auto adm = service.submit(req);
  ASSERT_TRUE(adm.accepted);
  const svc::JobOutcome& out = adm.handle.wait();
  ASSERT_EQ(out.status, svc::JobStatus::Completed);
  EXPECT_EQ(out.attempts, 2);  // attempt 1 faulted, attempt 2 clean
  EXPECT_EQ(inj.injected_throws(), 1);
  ASSERT_NE(out.lu, nullptr);
  EXPECT_EQ(out.lu->ipiv, direct.ipiv);
  EXPECT_EQ(out.info, direct.info);
  EXPECT_EQ(test::max_diff(ref.view(), via_svc.view()), 0.0)
      << "retry factored the half-mutated matrix instead of the snapshot";
}

// Permanent single-point failures exhaust the retry budget deterministically:
// a sniper throw ignores the retry salt, so every attempt dies the same way
// and the job lands Failed with exactly max_attempts attempts on the books.
TEST(SvcSelfHealing, RetryBudgetExhaustsDeterministically) {
  rt::FaultConfig fc;
  fc.throw_on_task = 0;
  rt::FaultInjector inj(fc);

  svc::ServiceConfig cfg;
  cfg.num_threads = 2;
  cfg.retry.max_attempts = 3;
  cfg.retry.base = 1ms;
  cfg.retry.cap = 4ms;
  cfg.retry.jitter_seed = 11;
  svc::Service service(cfg);
  Matrix a = random_matrix(64, 64, 7400);
  svc::JobRequest req = lu_request(a.view(), svc::QosClass::Normal);
  req.fault = &inj;
  const auto adm = service.submit(req);
  ASSERT_TRUE(adm.accepted);
  const svc::JobOutcome& out = adm.handle.wait();
  EXPECT_EQ(out.status, svc::JobStatus::Failed);
  EXPECT_EQ(out.attempts, 3);
  ASSERT_EQ(out.attempt_run_ms.size(), 3u);
  EXPECT_GT(out.backoff_ms, 0.0);
  EXPECT_FALSE(out.stall.detected);
  EXPECT_EQ(inj.injected_throws(), 3);
  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.per_tenant.at("t0").retries, 2);
  EXPECT_EQ(stats.per_tenant.at("t0").failed, 1);
}

// A deadline that runs out while the job waits in retry backoff finishes it
// as Cancelled at the dispatch gate — and the outcome must still report the
// attempt that ran and the backoff it drew, not a never-ran job's zeros.
TEST(SvcSelfHealing, DeadlineDuringBackoffKeepsAttemptHistory) {
  rt::FaultConfig fc;
  fc.throw_on_task = 0;
  rt::FaultInjector inj(fc);

  svc::ServiceConfig cfg;
  cfg.num_threads = 2;
  cfg.retry.max_attempts = 3;
  cfg.retry.base = 600ms;
  cfg.retry.cap = 600ms;
  svc::Service service(cfg);
  Matrix a = random_matrix(48, 48, 7450);
  svc::JobRequest req = lu_request(a.view(), svc::QosClass::Normal);
  req.fault = &inj;
  req.deadline = 100ms;
  const auto adm = service.submit(req);
  ASSERT_TRUE(adm.accepted);
  const svc::JobOutcome& out = adm.handle.wait();
  EXPECT_EQ(out.status, svc::JobStatus::Cancelled);
  EXPECT_TRUE(out.deadline_hit);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.attempt_run_ms.size(), 1u);
  EXPECT_GT(out.backoff_ms, 0.0);
  EXPECT_EQ(inj.injected_throws(), 1);
  service.drain();
  EXPECT_EQ(service.stats().per_class[1].cancelled, 1);
}

// shutdown() must not wait out a job's retry backoff (30 s here). Dropping
// the backlog finishes the parked job with its last attempt's outcome;
// running the backlog requeues it at once for its next attempt. Either way
// backoff_ms reports the delay that was drawn, in full.
TEST(SvcSelfHealing, ShutdownDuringBackoffDoesNotWaitItOut) {
  double backoff_ms[2] = {-1.0, -2.0};
  for (const bool run_queued : {false, true}) {
    rt::FaultConfig fc;
    fc.throw_on_task = 0;
    rt::FaultInjector inj(fc);
    svc::ServiceConfig cfg;
    cfg.num_threads = 2;
    cfg.retry.max_attempts = 3;
    cfg.retry.base = 30s;
    cfg.retry.cap = 30s;
    svc::Service service(cfg);
    Matrix a = random_matrix(48, 48, 7460);
    svc::JobRequest req = lu_request(a.view(), svc::QosClass::Normal);
    req.fault = &inj;
    const auto adm = service.submit(req);
    ASSERT_TRUE(adm.accepted);
    const auto parked_by = std::chrono::steady_clock::now() + 10s;
    while (service.stats().retry_pending != 1u) {
      ASSERT_LT(std::chrono::steady_clock::now(), parked_by)
          << "the job never entered retry backoff";
      std::this_thread::sleep_for(1ms);
    }
    const auto t0 = std::chrono::steady_clock::now();
    service.shutdown(run_queued);
    EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s)
        << "run_queued=" << run_queued;

    const svc::JobOutcome& out = adm.handle.wait();
    EXPECT_EQ(out.status, svc::JobStatus::Failed) << "run_queued=" << run_queued;
    EXPECT_EQ(out.attempts, run_queued ? 2 : 1);
    EXPECT_EQ(out.attempt_run_ms.size(), run_queued ? 2u : 1u);
    EXPECT_EQ(service.stats().retry_pending, 0u);
    backoff_ms[run_queued ? 1 : 0] = out.backoff_ms;
  }
  EXPECT_GT(backoff_ms[0], 0.0);
  EXPECT_EQ(backoff_ms[0], backoff_ms[1]);
}

// Backoff is a pure function of (jitter_seed, admission seq, attempt): two
// identical services fed the same job must retry on the same schedule and
// report bit-equal backoff totals. This is the reproducibility contract the
// chaos drills rely on.
TEST(SvcSelfHealing, RetryBackoffIsBitReproducibleAcrossServices) {
  auto run_once = [](double* backoff_ms, int* attempts) {
    rt::FaultConfig fc;
    fc.throw_on_task = 0;
    rt::FaultInjector inj(fc);
    svc::ServiceConfig cfg;
    cfg.num_threads = 2;
    cfg.retry.max_attempts = 4;
    cfg.retry.base = 1ms;
    cfg.retry.cap = 3ms;
    cfg.retry.jitter_seed = 12345;
    svc::Service service(cfg);
    Matrix a = random_matrix(48, 48, 7500);
    svc::JobRequest req;
    req.kind = svc::JobKind::CaluFactor;
    req.a = a.view();
    req.b = 16;
    req.tr = 2;
    req.fault = &inj;
    const auto adm = service.submit(req);
    ASSERT_TRUE(adm.accepted);
    const svc::JobOutcome& out = adm.handle.wait();
    EXPECT_EQ(out.status, svc::JobStatus::Failed);
    *backoff_ms = out.backoff_ms;
    *attempts = out.attempts;
  };
  double backoff_a = -1.0, backoff_b = -2.0;
  int attempts_a = 0, attempts_b = 0;
  run_once(&backoff_a, &attempts_a);
  run_once(&backoff_b, &attempts_b);
  EXPECT_EQ(attempts_a, 4);
  EXPECT_EQ(attempts_a, attempts_b);
  EXPECT_GT(backoff_a, 0.0);
  EXPECT_EQ(backoff_a, backoff_b);  // bit-equal, not approximately
}

// With retry and the breaker left at their defaults (off) a fault-free job
// must behave exactly like PR 7: one attempt, no snapshot, no backoff, and
// a factorization bit-identical to the direct driver.
TEST(SvcSelfHealing, ZeroRetryZeroBreakerConfigMatchesPr7Bitwise) {
  Matrix ref = random_matrix(96, 96, 7600);
  Matrix via_svc = ref;
  core::CaluOptions opts;
  opts.b = 16;
  opts.tr = 2;
  opts.num_threads = 2;
  opts.record_trace = false;
  const core::CaluResult direct = core::calu_factor(ref.view(), opts);

  svc::ServiceConfig cfg;
  cfg.num_threads = 2;
  svc::Service service(cfg);
  const auto adm =
      service.submit(lu_request(via_svc.view(), svc::QosClass::Normal));
  ASSERT_TRUE(adm.accepted);
  const svc::JobOutcome& out = adm.handle.wait();
  ASSERT_EQ(out.status, svc::JobStatus::Completed);
  EXPECT_EQ(out.attempts, 1);
  ASSERT_EQ(out.attempt_run_ms.size(), 1u);
  EXPECT_EQ(out.backoff_ms, 0.0);
  EXPECT_FALSE(out.stall.detected);
  EXPECT_EQ(out.retry_after_ms, 0.0);
  EXPECT_EQ(out.lu->ipiv, direct.ipiv);
  EXPECT_EQ(test::max_diff(ref.view(), via_svc.view()), 0.0);
  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.per_class[1].retries, 0);
  EXPECT_TRUE(stats.breakers.empty());
}

// ---- Self-healing: per-tenant circuit breaker ----------------------------

// The full breaker life cycle on one service: two decisive failures trip
// the "noisy" tenant's breaker (window 4 / min_samples 2 / threshold 0.5);
// while open, that tenant's submissions come back ShedBreaker with a
// retry_after hint and never touch the queue; other tenants are untouched.
// After open_for, exactly one probe is admitted (half-open) — a second
// submission while the probe is pending is still shed — and the probe's
// success closes the breaker for everyone.
TEST(SvcBreaker, OpensShedsHalfOpensAndClosesPerTenant) {
  rt::WorkerPool pool({2});
  svc::ServiceConfig cfg;
  cfg.pool = &pool;
  cfg.max_inflight = 1;
  cfg.breaker.enabled = true;
  cfg.breaker.window = 4;
  cfg.breaker.min_samples = 2;
  cfg.breaker.failure_threshold = 0.5;
  cfg.breaker.open_for = 100ms;
  svc::Service service(cfg);

  rt::FaultConfig fc;
  fc.throw_on_task = 0;
  rt::FaultInjector inj(fc);

  // Two decisive failures -> Open.
  std::vector<Matrix> mats;
  for (int i = 0; i < 2; ++i) {
    mats.push_back(random_matrix(48, 48, 7700 + i));
    svc::JobRequest req =
        lu_request(mats.back().view(), svc::QosClass::Normal, "noisy");
    req.fault = &inj;
    const auto adm = service.submit(req);
    ASSERT_TRUE(adm.accepted) << "job " << i;
    EXPECT_EQ(adm.handle.wait().status, svc::JobStatus::Failed);
  }
  {
    const svc::ServiceStats stats = service.stats();
    ASSERT_EQ(stats.breakers.count("noisy"), 1u);
    EXPECT_EQ(stats.breakers.at("noisy").state, svc::BreakerState::Open);
    EXPECT_EQ(stats.breakers.at("noisy").opens, 1);
  }

  // Open: the tenant is shed instantly with a retry_after hint.
  Matrix shed_mat = random_matrix(48, 48, 7710);
  const auto shed = service.submit(
      lu_request(shed_mat.view(), svc::QosClass::Normal, "noisy"));
  EXPECT_FALSE(shed.accepted);
  EXPECT_GT(shed.retry_after_ms, 0.0);
  EXPECT_EQ(shed.handle.wait().status, svc::JobStatus::ShedBreaker);
  EXPECT_GT(shed.handle.wait().retry_after_ms, 0.0);

  // Another tenant sails through the whole time.
  Matrix calm_mat = random_matrix(64, 64, 7711);
  const auto calm = service.submit(
      lu_request(calm_mat.view(), svc::QosClass::Normal, "calm"));
  ASSERT_TRUE(calm.accepted);
  EXPECT_EQ(calm.handle.wait().status, svc::JobStatus::Completed);

  // Half-open: exactly one probe goes in; a second submission is shed
  // while the probe is still pending (the pool stall keeps it Running).
  std::this_thread::sleep_for(120ms);
  Matrix probe_mat = random_matrix(48, 48, 7712);
  Matrix rival_mat = random_matrix(48, 48, 7713);
  {
    PoolStall stall(pool);
    const auto probe = service.submit(
        lu_request(probe_mat.view(), svc::QosClass::Normal, "noisy"));
    ASSERT_TRUE(probe.accepted);
    const auto rival = service.submit(
        lu_request(rival_mat.view(), svc::QosClass::Normal, "noisy"));
    EXPECT_FALSE(rival.accepted);
    EXPECT_EQ(rival.handle.wait().status, svc::JobStatus::ShedBreaker);
    stall.release();
    EXPECT_EQ(probe.handle.wait().status, svc::JobStatus::Completed);
  }
  {
    const svc::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.breakers.at("noisy").state, svc::BreakerState::Closed);
    EXPECT_EQ(stats.breakers.at("noisy").probes, 1);
    EXPECT_GE(stats.per_tenant.at("noisy").shed_breaker, 2);
  }

  // Closed again: the tenant is back to normal admission.
  Matrix back_mat = random_matrix(48, 48, 7714);
  const auto back = service.submit(
      lu_request(back_mat.view(), svc::QosClass::Normal, "noisy"));
  ASSERT_TRUE(back.accepted);
  EXPECT_EQ(back.handle.wait().status, svc::JobStatus::Completed);
}

}  // namespace
}  // namespace camult
