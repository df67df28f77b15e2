// service.cpp — camult::svc implementation.
//
// Lock discipline: one service mutex (mu_) guards the queues, the timer
// queue, the stats, the breakers and every job's lifecycle fields. A job's
// record mutex (rec.mu) guards only what its JobHandles read — status,
// outcome and the current CancelToken — because a handle may outlive the
// service and so never takes mu_. Lock order is mu_, then rec.mu; the
// service writes those fields with both held, so it may read them under
// mu_ alone.
//
// Job lifecycle (docs/runtime.md § Factorization service has the table):
// Queued -> Running -> terminal, with Running -> Queued (+ a Retry timer)
// for a transient failure that still has attempts left. Every terminal
// transition goes through finish_locked, the only code that folds an
// outcome into QosStats and the breakers.
//
// One timer thread serves one ordered queue of (due, job, kind) timers:
// Deadline (fire the job's token), Retry (requeue after backoff) and Stall
// (check the pool heartbeats). A job's timers are erased as soon as they
// stop mattering, so the queue holds live entries only.

#include "svc/service.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "matrix/matrix.hpp"
#include "runtime/fault_inject.hpp"

namespace camult::svc {

const char* qos_name(QosClass c) {
  switch (c) {
    case QosClass::Batch: return "batch";
    case QosClass::Normal: return "normal";
    case QosClass::Interactive: return "interactive";
  }
  return "?";
}

int qos_priority_bias(QosClass c) {
  return static_cast<int>(c) * kQosBandWidth;
}

const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::Queued: return "queued";
    case JobStatus::Running: return "running";
    case JobStatus::Completed: return "completed";
    case JobStatus::Failed: return "failed";
    case JobStatus::Cancelled: return "cancelled";
    case JobStatus::ShedDeadline: return "shed_deadline";
    case JobStatus::ShedQueueFull: return "shed_queue_full";
    case JobStatus::ShedBreaker: return "shed_breaker";
    case JobStatus::Rejected: return "rejected";
  }
  return "?";
}

bool job_status_terminal(JobStatus s) {
  return s != JobStatus::Queued && s != JobStatus::Running;
}

const char* breaker_state_name(BreakerState s) {
  switch (s) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half_open";
  }
  return "?";
}

namespace detail {

using Clock = std::chrono::steady_clock;

struct JobRecord {
  // Immutable after submit().
  JobKind kind = JobKind::CaluFactor;
  QosClass qos = QosClass::Normal;
  std::string tenant;
  MatrixView a;
  idx b = 32;
  idx tr = 2;
  idx window = 0;
  bool has_deadline = false;
  Clock::time_point submit_tp;
  Clock::time_point deadline_tp;
  std::uint64_t seq = 0;  ///< admission order; the retry-jitter stream key
  std::chrono::nanoseconds stall_timeout{0};  ///< effective; 0 = off
  rt::FaultInjector* fault = nullptr;         ///< effective; may be null
  bool probe = false;  ///< admitted as a half-open breaker probe

  /// Set by JobHandle::cancel before it fires the token; a client cancel is
  /// never retried. The one field a handle writes, hence atomic.
  std::atomic<bool> client_cancel{false};

  // Lifecycle, guarded by the service mutex. A runner reads `attempts` and
  // `token` without it during the attempt it owns: only that runner writes
  // them, at the attempt's start.
  int attempts = 0;             ///< attempts started
  int stalls = 0;               ///< stall cancels across all attempts
  bool deadline_fired = false;  ///< the Deadline timer fired the token
  bool stall_fired = false;     ///< this attempt was stall-cancelled
  Clock::time_point dispatch_tp;  ///< first attempt's start
  std::vector<double> attempt_run_ms;
  double backoff_ms = 0.0;
  StallReport stall;  ///< last stall detected
  /// This job's entries in the timer queue, timers_.end() when not armed.
  /// The attempt slot holds the Stall check while an attempt runs and the
  /// Retry timer while the job is in backoff.
  TimerQueue::iterator deadline_timer;
  TimerQueue::iterator attempt_timer;

  /// Pristine copy of the input, captured before the first attempt when
  /// retries are on (max_attempts > 1). An aborted attempt leaves `a`
  /// partially factored in place, so every retry must first restore the
  /// original contents or it would "successfully" factor garbage. Owned by
  /// the runner running the job; dropped at the terminal transition.
  Matrix pristine;

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  /// The current attempt's token: replaced on every retry so last attempt's
  /// cancel cannot poison the next one. Its id() is the heartbeat tag that
  /// matches pool workers to this attempt.
  rt::CancelToken token;
  JobStatus status = JobStatus::Queued;
  /// The terminal outcome, read by handles once status is terminal. While
  /// the job is in retry backoff it holds the last attempt's outcome, which
  /// shutdown(false) reports if it drops the job.
  JobOutcome outcome;
};

}  // namespace detail

using detail::Clock;
using detail::JobRecord;
using detail::TimerKind;

namespace {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

JobOutcome outcome_of(JobStatus s) {
  JobOutcome out;
  out.status = s;
  return out;
}

/// The record's queue slot for a timer of `kind`.
detail::TimerQueue::iterator& timer_slot(JobRecord& rec, TimerKind kind) {
  return kind == TimerKind::Deadline ? rec.deadline_timer : rec.attempt_timer;
}

// Uniform in [0, 1) from the top 53 bits (exactly representable in double).
double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Deterministic capped-exponential backoff with half-jitter: attempt k
/// (1-based, the attempt that just failed) draws its delay from
/// [d/2, d) with d = min(cap, base * 2^(k-1)); the draw is a pure function
/// of (jitter_seed, job admission seq, k), so retry schedules are
/// bit-reproducible and a storm of simultaneous failures still spreads out.
std::chrono::nanoseconds backoff_delay(const RetryPolicy& rp,
                                       std::uint64_t seq, int attempt) {
  const double base = std::max(0.0, static_cast<double>(rp.base.count()));
  const double cap = std::max(base, static_cast<double>(rp.cap.count()));
  const int shift = std::min(std::max(attempt - 1, 0), 30);
  const double d = std::min(cap, base * static_cast<double>(1u << shift));
  const double u = to_unit(rt::splitmix64(
      rp.jitter_seed ^ (seq * 0x9E3779B97F4A7C15ull) ^
      (static_cast<std::uint64_t>(attempt) * 0xC2B2AE3D27D4EB4Full)));
  return std::chrono::nanoseconds(
      static_cast<std::int64_t>(d * 0.5 + u * d * 0.5));
}

/// Execution options for one attempt of `rec`. Jobs run untraced with the
/// drivers' default health monitor on.
core::DriverOptions attempt_options(const JobRecord& rec, rt::WorkerPool* pool,
                                    rt::SchedulerStats* sched) {
  core::DriverOptions o;
  o.b = rec.b;
  o.tr = rec.tr;
  o.window = rec.window;
  o.pool = pool;
  o.num_threads = pool->size();
  o.record_trace = false;
  o.cancel = rec.token;
  o.sched_out = sched;
  o.fault = rec.fault;
  // Attempt 1 runs salt 0 (the unsalted stream: fault-free configs are
  // bitwise PR 7); each retry draws an independent fault stream.
  o.fault_salt = static_cast<std::uint64_t>(rec.attempts - 1);
  o.priority_bias = qos_priority_bias(rec.qos);
  return o;
}

}  // namespace

// ---------------------------------------------------------------------------
// JobHandle

JobStatus JobHandle::status() const {
  if (rec_ == nullptr) {
    throw std::logic_error("JobHandle::status on an invalid handle");
  }
  std::lock_guard<std::mutex> lk(rec_->mu);
  return rec_->status;
}

QosClass JobHandle::qos() const {
  if (rec_ == nullptr) {
    throw std::logic_error("JobHandle::qos on an invalid handle");
  }
  return rec_->qos;
}

const JobOutcome& JobHandle::wait() const {
  if (rec_ == nullptr) {
    throw std::logic_error("JobHandle::wait on an invalid handle");
  }
  std::unique_lock<std::mutex> lk(rec_->mu);
  rec_->cv.wait(lk, [&] { return job_status_terminal(rec_->status); });
  return rec_->outcome;
}

bool JobHandle::wait_for(std::chrono::nanoseconds timeout) const {
  if (rec_ == nullptr) {
    throw std::logic_error("JobHandle::wait_for on an invalid handle");
  }
  std::unique_lock<std::mutex> lk(rec_->mu);
  return rec_->cv.wait_for(lk, timeout,
                           [&] { return job_status_terminal(rec_->status); });
}

void JobHandle::cancel() const {
  if (rec_ == nullptr) {
    throw std::logic_error("JobHandle::cancel on an invalid handle");
  }
  // Flag first: the retry machinery must see "client asked" before any
  // CancelledError surfaces, or it could schedule a retry for a job the
  // client just killed.
  rec_->client_cancel.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lk(rec_->mu);
  rec_->token.request_cancel();
}

// ---------------------------------------------------------------------------
// Service

Service::Service(const ServiceConfig& cfg) : cfg_(cfg) {
  if (cfg_.max_inflight < 1) {
    throw std::invalid_argument("ServiceConfig::max_inflight must be >= 1");
  }
  if (cfg_.max_queue < 1) {
    throw std::invalid_argument("ServiceConfig::max_queue must be >= 1");
  }
  if (cfg_.breaker.enabled &&
      (cfg_.breaker.window < 1 || cfg_.breaker.min_samples < 1 ||
       cfg_.breaker.failure_threshold <= 0.0)) {
    throw std::invalid_argument("ServiceConfig::breaker misconfigured");
  }
  if (cfg_.pool != nullptr) {
    pool_ = cfg_.pool;
  } else {
    rt::WorkerPoolConfig pc;
    pc.num_threads = cfg_.num_threads;
    owned_pool_ = std::make_unique<rt::WorkerPool>(pc);
    pool_ = owned_pool_.get();
  }
  timer_thread_ = std::thread([this] { timer_main(); });
  runners_.reserve(static_cast<std::size_t>(cfg_.max_inflight));
  for (int i = 0; i < cfg_.max_inflight; ++i) {
    runners_.emplace_back([this] { runner_main(); });
  }
}

Service::~Service() { shutdown(true); }

Service::Admission Service::submit(const JobRequest& req) {
  auto rec = std::make_shared<JobRecord>();
  rec->kind = req.kind;
  rec->qos = req.qos;
  rec->tenant = req.tenant;
  rec->a = req.a;
  rec->b = req.b;
  rec->tr = req.tr;
  rec->window = req.window;
  rec->submit_tp = Clock::now();
  if (req.deadline.count() > 0) {
    rec->has_deadline = true;
    rec->deadline_tp = rec->submit_tp + req.deadline;
  }
  // Per-job overrides fall back to the service defaults.
  rec->stall_timeout =
      req.stall_timeout.count() > 0 ? req.stall_timeout : cfg_.stall_timeout;
  rec->fault = req.fault != nullptr ? req.fault : cfg_.fault;

  Admission adm;
  adm.handle = JobHandle(rec);
  std::unique_lock<std::mutex> lk(mu_);
  rec->seq = next_seq_++;
  rec->deadline_timer = rec->attempt_timer = timers_.end();
  JobStatus refused = JobStatus::Queued;  // Queued = admitted
  if (stopping_) {
    refused = JobStatus::Rejected;
  } else if (cfg_.breaker.enabled &&
             !breaker_admit_locked(req.tenant, &rec->probe,
                                   &adm.retry_after_ms)) {
    refused = JobStatus::ShedBreaker;
  } else if (total_queued_ >= cfg_.max_queue) {
    // Full. Shed the oldest job of the lowest class strictly below the
    // arrival; if every queued job is at or above the arrival's class,
    // the arrival itself is the lowest-value work and is rejected.
    refused = JobStatus::Rejected;
    for (int c = 0; c < static_cast<int>(req.qos); ++c) {
      auto& q = queue_[static_cast<std::size_t>(c)];
      if (q.empty()) continue;
      const JobPtr victim = std::move(q.front());
      q.pop_front();
      --total_queued_;
      finish_locked(*victim, outcome_of(JobStatus::ShedQueueFull));
      refused = JobStatus::Queued;
      break;
    }
  }
  if (refused != JobStatus::Queued) {
    JobOutcome out = outcome_of(refused);
    out.retry_after_ms = adm.retry_after_ms;
    finish_locked(*rec, std::move(out));
    adm.queue_depth = total_queued_;
    return adm;
  }
  adm.accepted = true;
  ++stats_.per_class[static_cast<std::size_t>(req.qos)].submitted;
  ++stats_.per_tenant[req.tenant].submitted;
  enqueue_locked(rec);
  adm.queue_depth = total_queued_;
  if (rec->has_deadline) {
    arm_locked(rec, TimerKind::Deadline, rec->deadline_tp);
  }
  lk.unlock();
  queue_cv_.notify_one();
  return adm;
}

void Service::enqueue_locked(const JobPtr& rec) {
  queue_[static_cast<std::size_t>(rec->qos)].push_back(rec);
  ++total_queued_;
  stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, total_queued_);
}

Service::JobPtr Service::pop_next_locked() {
  for (int c = kQosClasses - 1; c >= 0; --c) {
    auto& q = queue_[static_cast<std::size_t>(c)];
    if (!q.empty()) {
      JobPtr rec = std::move(q.front());
      q.pop_front();
      --total_queued_;
      return rec;
    }
  }
  return nullptr;
}

bool Service::breaker_admit_locked(const std::string& tenant, bool* probe,
                                   double* retry_after_ms) {
  Breaker& br = breakers_[tenant];
  const Clock::time_point now = Clock::now();
  if (br.state == BreakerState::Open) {
    if (now < br.open_until) {
      *retry_after_ms = ms_between(now, br.open_until);
      return false;
    }
    br.state = BreakerState::HalfOpen;
    br.probe_inflight = false;
  }
  if (br.state == BreakerState::HalfOpen) {
    if (br.probe_inflight) {
      // The probe's verdict is pending; suggest one open period.
      *retry_after_ms =
          std::chrono::duration<double, std::milli>(cfg_.breaker.open_for)
              .count();
      return false;
    }
    br.probe_inflight = true;
    ++br.probes;
    *probe = true;
  }
  return true;
}

void Service::breaker_note_locked(const JobRecord& rec,
                                  const JobOutcome& out) {
  if (!cfg_.breaker.enabled) return;
  // Decisive outcomes only: Completed is a success; Failed or a
  // stall-cancel is a failure. Sheds, client cancels and deadline cancels
  // say nothing about the tenant's workload health, so they leave the
  // window untouched (a breaker must not trip because the *service* was
  // overloaded or the client changed its mind).
  const bool failure =
      out.status == JobStatus::Failed ||
      (out.status == JobStatus::Cancelled && out.stall.detected &&
       !out.deadline_hit &&
       !rec.client_cancel.load(std::memory_order_acquire));
  const bool success = out.status == JobStatus::Completed;
  if (!rec.probe && !success && !failure) return;
  Breaker& br = breakers_[rec.tenant];
  if (rec.probe) {
    br.probe_inflight = false;
    if (success) {
      br.state = BreakerState::Closed;
      br.window.clear();
      br.failures = 0;
    } else if (failure) {
      br.state = BreakerState::Open;
      br.open_until = Clock::now() + cfg_.breaker.open_for;
      ++br.opens;
    }
    // A neutral probe outcome (shed, rejected, cancelled) keeps the
    // breaker half-open; the next submission becomes the new probe.
    return;
  }
  if (br.state != BreakerState::Closed) return;  // pre-open stragglers
  br.window.push_back(failure);
  if (failure) ++br.failures;
  while (static_cast<int>(br.window.size()) > cfg_.breaker.window) {
    if (br.window.front()) --br.failures;
    br.window.pop_front();
  }
  if (static_cast<int>(br.window.size()) >= cfg_.breaker.min_samples &&
      static_cast<double>(br.failures) >=
          cfg_.breaker.failure_threshold *
              static_cast<double>(br.window.size())) {
    br.state = BreakerState::Open;
    br.open_until = Clock::now() + cfg_.breaker.open_for;
    ++br.opens;
    br.window.clear();
    br.failures = 0;
  }
}

void Service::runner_main() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    JobPtr rec = pop_next_locked();
    if (rec == nullptr) {
      // Backoff-parked jobs need no runner to wait for them: shutdown()
      // requeues or finishes them, and no job parks once stopping_ is set.
      if (stopping_) return;
      queue_cv_.wait(lk);
      continue;
    }
    if (start_attempt_locked(rec)) {
      ++inflight_;
      lk.unlock();
      bool transient = false;
      JobOutcome out = run_attempt(*rec, &transient);
      lk.lock();
      --inflight_;
      end_attempt_locked(rec, std::move(out), transient);
    }
    if (total_queued_ == 0 && inflight_ == 0 && retry_pending_ == 0) {
      drained_cv_.notify_all();
    }
  }
}

bool Service::start_attempt_locked(const JobPtr& rec) {
  // The gate is re-evaluated on every (re)dispatch. A deadline that expired
  // while queued sheds a never-ran job (ShedDeadline) but finishes a
  // retried one as Cancelled — it did run, the deadline just ran out
  // during backoff.
  JobRecord& r = *rec;
  const Clock::time_point now = Clock::now();
  if (r.has_deadline && now >= r.deadline_tp) {
    JobOutcome out = outcome_of(r.attempts == 0 ? JobStatus::ShedDeadline
                                                : JobStatus::Cancelled);
    out.deadline_hit = true;
    finish_locked(r, std::move(out));
    return false;
  }
  if (r.client_cancel.load(std::memory_order_acquire)) {
    finish_locked(r, outcome_of(JobStatus::Cancelled));
    return false;
  }
  if (++r.attempts == 1) r.dispatch_tp = now;
  r.stall_fired = false;
  {
    std::lock_guard<std::mutex> lk(r.mu);
    if (r.attempts > 1) {
      // A fresh token per retry: last attempt's was fired by the very
      // stall or fault being retried. A cancel() that fired the old token
      // after the gate read client_cancel must still reach this attempt.
      r.token = rt::CancelToken{};
      if (r.client_cancel.load(std::memory_order_acquire)) {
        r.token.request_cancel();
      }
    }
    r.status = JobStatus::Running;
  }
  if (r.stall_timeout.count() > 0) {
    arm_locked(rec, TimerKind::Stall, now + r.stall_timeout);
  }
  return true;
}

JobOutcome Service::run_attempt(JobRecord& rec, bool* transient) {
  // Retryable jobs snapshot the input before attempt 1 and restore it before
  // every retry: the aborted attempt factored part of `a` in place, and
  // attempt N+1 must see the caller's original matrix, not attempt N's
  // wreckage. Non-retryable jobs skip both copies entirely.
  if (cfg_.retry.max_attempts > 1) {
    if (rec.attempts == 1) {
      rec.pristine = Matrix::from(ConstMatrixView(rec.a));
    } else {
      const idx rows = rec.a.rows();
      for (idx j = 0; j < rec.a.cols(); ++j) {
        std::copy_n(rec.pristine.data() + j * rec.pristine.ld(), rows,
                    rec.a.data() + j * rec.a.ld());
      }
    }
  }
  const Clock::time_point start = Clock::now();
  // sched counters survive a throwing run via the options' sched_out hook.
  rt::SchedulerStats sched;
  JobOutcome out;
  try {
    if (rec.kind == JobKind::CaluFactor) {
      out.lu = std::make_shared<core::CaluResult>(
          core::calu_factor(rec.a, {attempt_options(rec, pool_, &sched)}));
      out.info = out.lu->info;
      out.health = out.lu->health;
    } else {
      out.qr = std::make_shared<core::CaqrResult>(
          core::caqr_factor(rec.a, {attempt_options(rec, pool_, &sched)}));
      out.health = out.qr->health;
    }
    out.status = JobStatus::Completed;
  } catch (const rt::InjectedFault& e) {
    out.status = JobStatus::Failed;
    out.error = e.what();
    *transient = true;  // injected/transient by definition
  } catch (const rt::CancelledError&) {
    out.status = JobStatus::Cancelled;
  } catch (const std::exception& e) {
    out.status = JobStatus::Failed;
    out.error = e.what();
  }
  out.sched = sched;
  rec.attempt_run_ms.push_back(ms_between(start, Clock::now()));
  return out;
}

void Service::end_attempt_locked(const JobPtr& rec, JobOutcome out,
                                 bool transient) {
  JobRecord& r = *rec;
  disarm_locked(r.attempt_timer);  // the stall check ends with the attempt
  if (out.status == JobStatus::Cancelled) {
    out.deadline_hit = r.deadline_fired;
    // A stall cancel is transient (the retry gets a fresh fault stream); a
    // client or deadline cancel is final.
    transient = r.stall_fired && !out.deadline_hit;
  }
  // Retry: transient failure, attempts left, nobody cancelled it, the
  // deadline (if any) still has road, and the service is not stopping.
  const Clock::time_point now = Clock::now();
  if (transient && r.attempts < cfg_.retry.max_attempts && !stopping_ &&
      !r.client_cancel.load(std::memory_order_acquire) &&
      !(r.has_deadline && now >= r.deadline_tp)) {
    const std::chrono::nanoseconds delay =
        backoff_delay(cfg_.retry, r.seq, r.attempts);
    r.backoff_ms += std::chrono::duration<double, std::milli>(delay).count();
    ++stats_.per_class[static_cast<std::size_t>(r.qos)].retries;
    ++stats_.per_tenant[r.tenant].retries;
    r.outcome = std::move(out);
    {
      std::lock_guard<std::mutex> lk(r.mu);
      r.status = JobStatus::Queued;
    }
    // The runner slot frees; the Retry timer requeues the job.
    arm_locked(rec, TimerKind::Retry, now + delay);
    return;
  }
  finish_locked(r, std::move(out));
}

void Service::finish_locked(JobRecord& rec, JobOutcome out) {
  // Latency: run_ms spans first dispatch -> terminal, so for a retried job
  // it includes backoff; attempt_run_ms has the per-attempt run times.
  const Clock::time_point now = Clock::now();
  out.total_ms = ms_between(rec.submit_tp, now);
  out.queue_ms = out.total_ms;
  if (rec.attempts > 0) {
    out.queue_ms = ms_between(rec.submit_tp, rec.dispatch_tp);
    out.run_ms = ms_between(rec.dispatch_tp, now);
  }
  out.attempts = rec.attempts;
  out.attempt_run_ms = std::move(rec.attempt_run_ms);
  out.backoff_ms = rec.backoff_ms;
  out.stall = rec.stall;

  for (QosStats* s : {&stats_.per_class[static_cast<std::size_t>(rec.qos)],
                      &stats_.per_tenant[rec.tenant]}) {
    switch (out.status) {
      case JobStatus::Completed: ++s->completed; break;
      case JobStatus::Failed: ++s->failed; break;
      case JobStatus::Cancelled: ++s->cancelled; break;
      case JobStatus::ShedDeadline: ++s->shed_deadline; break;
      case JobStatus::ShedQueueFull: ++s->shed_queue_full; break;
      case JobStatus::ShedBreaker: ++s->shed_breaker; break;
      case JobStatus::Rejected: ++s->rejected; break;
      case JobStatus::Queued:
      case JobStatus::Running: break;  // not terminal; never reaches here
    }
    const rt::WorkerStats t = out.sched.totals();
    s->tasks_executed += t.tasks_executed;
    s->tasks_skipped += t.tasks_skipped;
    s->fallback_panels += out.health.fallback_panels;
    s->stalls_detected += rec.stalls;
    s->queue_ms_sum += out.queue_ms;
    s->run_ms_sum += out.run_ms;
  }
  breaker_note_locked(rec, out);
  disarm_locked(rec.deadline_timer);
  disarm_locked(rec.attempt_timer);
  rec.pristine = Matrix();
  {
    std::lock_guard<std::mutex> lk(rec.mu);
    rec.outcome = std::move(out);
    rec.status = rec.outcome.status;
  }
  rec.cv.notify_all();
}

// ---------------------------------------------------------------------------
// Timers

void Service::arm_locked(const JobPtr& rec, TimerKind kind,
                         Clock::time_point due) {
  detail::TimerQueue::iterator& slot = timer_slot(*rec, kind);
  disarm_locked(slot);
  slot = timers_.emplace(due, detail::Timer{rec, kind});
  if (kind == TimerKind::Retry) ++retry_pending_;
  if (slot == timers_.begin()) timer_cv_.notify_one();
}

void Service::disarm_locked(detail::TimerQueue::iterator& slot) {
  if (slot == timers_.end()) return;
  if (slot->second.kind == TimerKind::Retry) --retry_pending_;
  timers_.erase(slot);
  slot = timers_.end();
}

void Service::timer_main() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!timers_stop_) {
    if (timers_.empty()) {
      timer_cv_.wait(lk);
      continue;
    }
    // A copy, not a reference: another thread may erase the front entry
    // while this one sleeps in wait_until.
    const Clock::time_point due = timers_.begin()->first;
    if (Clock::now() < due) {
      timer_cv_.wait_until(lk, due);
      continue;
    }
    const detail::Timer t = timers_.begin()->second;
    disarm_locked(timer_slot(*t.job, t.kind));
    switch (t.kind) {
      case TimerKind::Deadline:
        // Only cancel: a queued job stays Queued until a runner's gate
        // sheds it, a running one drains through its token.
        t.job->deadline_fired = true;
        t.job->token.request_cancel();
        break;
      case TimerKind::Retry:
        enqueue_locked(t.job);
        queue_cv_.notify_one();
        break;
      case TimerKind::Stall:
        check_stall_locked(t.job);
        break;
    }
  }
}

void Service::check_stall_locked(const JobPtr& rec) {
  const std::uint64_t tag = rec->token.id();
  const std::int64_t timeout = rec->stall_timeout.count();
  const std::int64_t now_ns = pool_->now_ns();
  // With no busy worker, no stall can be declared for a full timeout.
  std::int64_t next_ns = now_ns + timeout;
  for (int w = 0; w < pool_->size(); ++w) {
    rt::HeartbeatSnapshot hb;
    if (!pool_->read_heartbeat(w, &hb) || !hb.busy || hb.tag != tag) continue;
    const std::int64_t stuck_ns = now_ns - hb.since_ns;
    if (stuck_ns < timeout) {
      next_ns = std::min(next_ns, hb.since_ns + timeout);
      continue;
    }
    // Worker w has been inside one task of this attempt for the whole
    // timeout: declare a stall, record it, cancel the attempt. The hung
    // body keeps its core until it returns (cancellation is cooperative),
    // but every other task skips, the DAG drains, and the runner slot —
    // the scarce resource — comes back.
    rec->stall.detected = true;
    rec->stall.worker = w;
    rec->stall.task = static_cast<rt::TaskId>(hb.task);
    rec->stall.stuck_ms = static_cast<double>(stuck_ns) / 1e6;
    rec->stall.attempt = rec->attempts;
    ++rec->stalls;
    rec->stall_fired = true;
    rec->token.request_cancel();
    return;
  }
  arm_locked(rec, TimerKind::Stall,
             Clock::now() + std::chrono::nanoseconds(next_ns - now_ns));
}

// ---------------------------------------------------------------------------
// Drain, shutdown, stats

void Service::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  drained_cv_.wait(lk, [&] {
    return total_queued_ == 0 && inflight_ == 0 && retry_pending_ == 0;
  });
}

void Service::shutdown(bool run_queued) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_ && runners_.empty()) return;  // already shut down
    stopping_ = true;
    // No runner waits out a backoff: parked jobs requeue now, or finish
    // with their last attempt's outcome when the backlog is dropped.
    std::vector<JobPtr> parked;
    for (const auto& [due, timer] : timers_) {
      if (timer.kind == TimerKind::Retry) parked.push_back(timer.job);
    }
    for (const JobPtr& rec : parked) {
      disarm_locked(rec->attempt_timer);
      if (run_queued) {
        enqueue_locked(rec);
      } else {
        finish_locked(*rec, std::move(rec->outcome));
      }
    }
    if (!run_queued) {
      for (auto& q : queue_) {
        for (const JobPtr& rec : q) {
          finish_locked(*rec, outcome_of(JobStatus::Cancelled));
        }
        q.clear();
      }
      total_queued_ = 0;
    }
  }
  queue_cv_.notify_all();
  for (auto& t : runners_) {
    if (t.joinable()) t.join();
  }
  runners_.clear();
  {
    std::lock_guard<std::mutex> lk(mu_);
    timers_stop_ = true;
  }
  timer_cv_.notify_one();
  if (timer_thread_.joinable()) timer_thread_.join();
  // Late drain() callers must still wake even though no runner remains.
  drained_cv_.notify_all();
}

ServiceStats Service::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  ServiceStats s = stats_;
  s.queued = total_queued_;
  s.inflight = inflight_;
  s.watchdog_entries = timers_.size();
  s.retry_pending = retry_pending_;
  for (const auto& [tenant, br] : breakers_) {
    BreakerStat bs;
    bs.state = br.state;
    bs.opens = br.opens;
    bs.probes = br.probes;
    s.breakers[tenant] = bs;
  }
  return s;
}

std::size_t Service::queue_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return total_queued_;
}

}  // namespace camult::svc
