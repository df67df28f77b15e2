#include "runtime/worker_pool.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace camult::rt {

int default_num_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  if (hc == 0) return 4;
  return static_cast<int>(std::min(hc, 32u));
}

namespace {

// Best-effort pin of `t` to one CPU (the sched_setaffinity machinery).
// Returns whether the kernel accepted the mask.
bool pin_thread(std::thread& t, int cpu) {
#ifdef __linux__
  const unsigned hc = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu) % hc, &set);
  return pthread_setaffinity_np(t.native_handle(), sizeof(set), &set) == 0;
#else
  (void)t;
  (void)cpu;
  return false;
#endif
}

// The pool this thread works for, if any. Lets blocking entry points
// (run_on_all_workers) reject a pool worker calling into its own pool —
// such a call can never complete (the worker cannot ack its own epoch
// while blocked waiting for all acks) and would hang instead of failing.
thread_local const WorkerPool* t_pool_worker = nullptr;

}  // namespace

WorkerPool::WorkerPool(const WorkerPoolConfig& config) : config_(config) {
  if (config_.num_threads < 0) {
    throw std::invalid_argument("WorkerPool: negative thread count");
  }
  n_workers_ =
      config_.num_threads > 0 ? config_.num_threads : default_num_threads();
  lifetime_workers_.resize(static_cast<std::size_t>(n_workers_));
  heartbeats_ =
      std::make_unique<WorkerHeartbeat[]>(static_cast<std::size_t>(n_workers_));
  clock_zero_ = std::chrono::steady_clock::now();
  workers_.reserve(static_cast<std::size_t>(n_workers_));
  for (int t = 0; t < n_workers_; ++t) {
    workers_.emplace_back([this, t] { worker_main(t); });
    if (config_.pin_threads && pin_thread(workers_.back(), t)) ++pinned_ok_;
  }
}

WorkerPool::~WorkerPool() {
  // Every graph must have detached (their destructors do); assert-grade
  // invariant, but fail soft in release builds: workers simply never find
  // a stale client because detach removed it before its graph died.
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    shutdown_.store(true, std::memory_order_release);
  }
  idle_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

WorkerPool& WorkerPool::process_default() {
  static WorkerPool pool{WorkerPoolConfig{}};
  return pool;
}

void WorkerPool::attach(TaskGraph* g) {
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    clients_.push_back(g);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++graphs_attached_;
  }
}

void WorkerPool::detach(TaskGraph* g) {
  // 1. Drain: every submitted task runs (workers find the graph through
  //    the registry until step 2).
  g->drain_all();
  // 2. Unregister: no worker can begin a new service slice on g. The
  //    in-service refcount is bumped under this same lock, so after the
  //    erase the refcount can only go down.
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    clients_.erase(std::remove(clients_.begin(), clients_.end(), g),
                   clients_.end());
  }
  // 3. Quiesce: wait for workers still inside pool_service(g) to leave.
  //    release_graph notifies under detach_mu_, so once the predicate
  //    holds no worker touches g (or its mutex/cv) again.
  {
    std::unique_lock<std::mutex> lock(g->detach_mu_);
    g->detach_cv_.wait(lock, [g] {
      return g->pool_active_.load(std::memory_order_acquire) == 0;
    });
  }
  // 4. Fold the run's counters into the pool lifetime stats (per worker
  //    slot: graph worker w IS pool worker w).
  const SchedulerStats run = g->stats();
  std::lock_guard<std::mutex> lock(stats_mu_);
  for (std::size_t w = 0;
       w < run.workers.size() && w < lifetime_workers_.size(); ++w) {
    lifetime_workers_[w] += run.workers[w];
  }
  lifetime_submit_wakeups_ += run.submit_wakeups;
  ++graphs_detached_;
}

bool WorkerPool::try_wake_one() {
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return false;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    if (idle_wakes_ == 0 && sleepers_.load(std::memory_order_relaxed) > 0) {
      ++idle_wakes_;
      wake = true;
    }
  }
  if (wake) {
    wakeups_issued_.fetch_add(1, std::memory_order_relaxed);
    idle_cv_.notify_one();
  }
  return wake;
}

std::int64_t WorkerPool::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - clock_zero_)
      .count();
}

// Seqlock write protocol, single writer per slot (worker w's own thread):
// bump seq to odd, mutate, bump to even. Field stores are relaxed — the
// release on the closing seq store orders them for a reader that pairs it
// with an acquire load, and the atomics themselves keep TSAN quiet.
void WorkerPool::heartbeat_begin(int w, std::uint64_t tag, std::int64_t task) {
  WorkerHeartbeat& h = heartbeats_[static_cast<std::size_t>(w)];
  const std::uint64_t s = h.seq.load(std::memory_order_relaxed);
  h.seq.store(s + 1, std::memory_order_release);
  h.tag.store(tag, std::memory_order_relaxed);
  h.task.store(task, std::memory_order_relaxed);
  h.since_ns.store(now_ns(), std::memory_order_relaxed);
  h.epoch.store(h.epoch.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  h.seq.store(s + 2, std::memory_order_release);
}

void WorkerPool::heartbeat_end(int w) {
  WorkerHeartbeat& h = heartbeats_[static_cast<std::size_t>(w)];
  const std::uint64_t s = h.seq.load(std::memory_order_relaxed);
  h.seq.store(s + 1, std::memory_order_release);
  h.tag.store(0, std::memory_order_relaxed);
  h.task.store(kNoTask, std::memory_order_relaxed);
  h.epoch.store(h.epoch.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  h.seq.store(s + 2, std::memory_order_release);
}

void WorkerPool::heartbeat_park(int w) {
  WorkerHeartbeat& h = heartbeats_[static_cast<std::size_t>(w)];
  const std::uint64_t s = h.seq.load(std::memory_order_relaxed);
  h.seq.store(s + 1, std::memory_order_release);
  h.epoch.store(h.epoch.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  h.seq.store(s + 2, std::memory_order_release);
}

bool WorkerPool::read_heartbeat(int w, HeartbeatSnapshot* out) const {
  if (w < 0 || w >= n_workers_) return false;
  const WorkerHeartbeat& h = heartbeats_[static_cast<std::size_t>(w)];
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::uint64_t s1 = h.seq.load(std::memory_order_acquire);
    if (s1 & 1u) continue;  // writer in flight
    out->epoch = h.epoch.load(std::memory_order_relaxed);
    out->tag = h.tag.load(std::memory_order_relaxed);
    out->task = h.task.load(std::memory_order_relaxed);
    out->since_ns = h.since_ns.load(std::memory_order_relaxed);
    // Fence-then-reload: the acquire fence keeps the field loads above from
    // sinking past the seq re-check (an acquire *load* would not).
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t s2 = h.seq.load(std::memory_order_relaxed);
    if (s1 == s2) {
      out->busy = out->tag != 0;
      return true;
    }
  }
  return false;  // persistently torn; caller polls again next tick
}

TaskGraph* WorkerPool::acquire_next_graph(std::size_t* rr) {
  std::lock_guard<std::mutex> lock(clients_mu_);
  if (clients_.empty()) return nullptr;
  TaskGraph* g = clients_[*rr % clients_.size()];
  ++*rr;
  // Counted while the registry lock pins membership: detach unregisters
  // under the same lock, then waits for this count to hit zero.
  g->pool_active_.fetch_add(1, std::memory_order_acq_rel);
  return g;
}

void WorkerPool::release_graph(TaskGraph* g) {
  // Notify under the mutex: the detach waiter re-checks the predicate with
  // detach_mu_ held, so it cannot observe zero and destroy the graph while
  // this thread still holds (or is about to touch) the mutex/cv.
  std::lock_guard<std::mutex> lock(g->detach_mu_);
  if (g->pool_active_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    g->detach_cv_.notify_all();
  }
}

bool WorkerPool::any_ready() {
  std::lock_guard<std::mutex> lock(clients_mu_);
  for (TaskGraph* g : clients_) {
    if (g->has_ready_work()) return true;
  }
  return false;
}

std::uint64_t WorkerPool::run_pending_control(std::uint64_t seen) {
  const std::uint64_t e = ctl_epoch_.load(std::memory_order_acquire);
  if (e == seen) return seen;
  // The caller of run_on_all_workers holds ctl_mu_ for the whole
  // operation (released only inside its cv wait), so ctl_fn_ is stable
  // while any ack is still outstanding.
  const std::function<void()>* fn = nullptr;
  {
    std::lock_guard<std::mutex> lock(ctl_mu_);
    fn = ctl_fn_;
  }
  if (fn != nullptr) (*fn)();
  {
    std::lock_guard<std::mutex> lock(ctl_mu_);
    ++ctl_acks_;
  }
  ctl_cv_.notify_all();
  return e;
}

void WorkerPool::run_on_all_workers(const std::function<void()>& fn) {
  if (t_pool_worker == this) {
    throw std::logic_error(
        "WorkerPool::run_on_all_workers called from a worker of this pool; "
        "it would wait forever for its own ack");
  }
  std::unique_lock<std::mutex> ctl(ctl_mu_);  // serializes callers
  ctl_fn_ = &fn;
  ctl_acks_ = 0;
  // Publish the epoch under the sleep mutex, mirroring the shutdown path
  // in ~WorkerPool: a parking worker evaluates its wait predicate with
  // idle_mu_ held, so it either observes the new epoch and skips the wait,
  // or it is already blocked in wait() when the bump lands and the
  // broadcast below reaches it. Bumping outside the lock could slip into
  // the window between a worker's predicate check and its wait(), losing
  // the wake and hanging an otherwise-idle pool.
  {
    std::lock_guard<std::mutex> sleep(idle_mu_);
    ctl_epoch_.fetch_add(1, std::memory_order_release);
  }
  // Wake every parked worker; their park predicate watches ctl_epoch_.
  // Busy workers pick the epoch up between service slices.
  idle_cv_.notify_all();
  ctl_cv_.wait(ctl, [this] { return ctl_acks_ == n_workers_; });
  ctl_fn_ = nullptr;
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++control_runs_;
}

void WorkerPool::worker_main(int w) {
  t_pool_worker = this;  // lets run_on_all_workers reject re-entry
  std::uint64_t seen_ctl = 0;
  std::size_t rr = static_cast<std::size_t>(w);  // stagger the rotation
  int dry = 0;
  for (;;) {
    if (shutdown_.load(std::memory_order_acquire)) return;
    seen_ctl = run_pending_control(seen_ctl);
    TaskGraph* g = acquire_next_graph(&rr);
    bool did = false;
    if (g != nullptr) {
      did = g->pool_service(w);
      release_graph(g);
    }
    if (did) {
      dry = 0;
      continue;
    }
    // Give every attached graph a probe before parking: a single quiet
    // graph must not put the worker to sleep while a sibling has work.
    std::size_t n_clients;
    {
      std::lock_guard<std::mutex> lock(clients_mu_);
      n_clients = clients_.size();
    }
    if (static_cast<std::size_t>(++dry) <= n_clients) continue;
    dry = 0;
    // About to park: bump the progress epoch so a stall monitor never
    // mistakes a sleeping worker for one stuck inside a task body.
    heartbeat_park(w);
    // Park with a missed-wake-free handshake: count ourselves as a sleeper
    // (seq_cst), re-scan with the queue locks (any push this scan misses
    // sees sleepers_ > 0 and takes idle_mu_ to wake us), then wait.
    std::unique_lock<std::mutex> lock(idle_mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    bool got = any_ready();
    bool consumed = false;  // burned a task-push relay credit this park
    while (!got && !shutdown_.load(std::memory_order_acquire) &&
           ctl_epoch_.load(std::memory_order_acquire) == seen_ctl) {
      idle_cv_.wait(lock);
      if (idle_wakes_ > 0) {  // consume our notify
        --idle_wakes_;
        consumed = true;
      }
      got = any_ready();
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    // A control-epoch or shutdown broadcast can steal the relay credit a
    // try_wake_one issued for a task push: this worker consumed it but is
    // leaving to service the control run, not the push. Forward the wake
    // to a parked sibling so the push's ramp-up is not delayed until this
    // worker finishes the control fn and re-probes. Deliberately
    // credit-less: re-incrementing idle_wakes_ when no sibling is left in
    // wait() would leave a dangling credit that blocks every future
    // try_wake_one — a spurious extra wake is harmless, a stuck credit is
    // a lost wakeup.
    const bool forward = consumed && !got;
    lock.unlock();
    if (forward) idle_cv_.notify_one();
    parks_.fetch_add(1, std::memory_order_relaxed);
  }
}

WorkerPoolStats WorkerPool::stats() const {
  WorkerPoolStats s;
  s.size = n_workers_;
  s.pinned = pinned_ok_;
  s.parks = parks_.load(std::memory_order_relaxed);
  s.wakeups_issued = wakeups_issued_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(stats_mu_);
  s.graphs_attached = graphs_attached_;
  s.graphs_detached = graphs_detached_;
  s.control_runs = control_runs_;
  s.lifetime.workers = lifetime_workers_;
  s.lifetime.submit_wakeups = lifetime_submit_wakeups_;
  return s;
}

}  // namespace camult::rt
