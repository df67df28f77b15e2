// worker_pool.hpp — a persistent, reusable pool of worker threads.
//
// The paper's runtime model (and the PLASMA baseline it compares against)
// keeps ONE long-lived set of workers for the whole process. WorkerPool is
// the only place worker threads live: a threaded TaskGraph runs on the
// caller's pool, or on a private pool it builds for its own lifetime. A
// shared pool amortizes what a per-call pool pays on every call (thread
// create/teardown, cold futex sleep/wake, re-warmed thread_local slab
// pools):
//
//  * Spawn once. Workers are created in the pool constructor and park on a
//    condition variable whenever no attached graph has ready work; attaching
//    a TaskGraph costs a registry insert and (at most) one futex wake.
//  * Many graphs, one pool. Several TaskGraphs may be attached at once;
//    workers rotate between them in bounded slices, so a batch of small
//    independent DAGs (see core::calu_factor_batch) shares the workers
//    instead of serializing pool construction.
//  * Optional CPU pinning. With `pin_threads`, worker t is bound to CPU
//    t % hardware_concurrency via the sched_setaffinity machinery
//    (pthread_setaffinity_np); a best-effort operation — failures are
//    recorded in stats().pinned, never fatal.
//  * Thread-local caches persist. Because the threads survive across runs,
//    per-thread state such as the blas scratch-slab pool (blas/pack.hpp)
//    genuinely persists call-to-call; run_on_all_workers() is the generic
//    hook for pool-wide maintenance of such caches (trim, stats snapshot).
//
// Lifetime rules: a pool must outlive every TaskGraph attached to it, and
// every attached graph must be destroyed (which drains + detaches it)
// before the pool. run_on_all_workers must not be called from a worker of
// the same pool (enforced: such a call throws std::logic_error instead of
// deadlocking). WorkerPool is thread-safe for attach/detach/notify;
// construction and destruction belong to one owning thread.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/task_graph.hpp"

namespace camult::rt {

/// Worker count used when a caller does not specify one: the hardware
/// concurrency clamped to [1, 32] (4 when the runtime cannot tell). Keeps
/// the out-of-the-box configuration from undersubscribing a 16-core box or
/// oversubscribing a 2-core CI runner the way a hardcoded constant did.
int default_num_threads();

struct WorkerPoolConfig {
  int num_threads = 0;      ///< 0 = default_num_threads()
  bool pin_threads = false; ///< bind worker t to CPU t % ncpu (best effort)
};

/// One worker's liveness slot: a cache-line-padded seqlock written only by
/// its worker (on task start, task finish, and park) and read lock-free by
/// stall monitors (svc::Service's watchdog thread). `seq` is odd while the
/// worker is mid-update; `epoch` counts progress events, so a monitor that
/// sees the same (epoch, tag, task) across a whole stall_timeout knows the
/// worker has been inside one task body the entire time. All fields are
/// atomics — the seqlock ordering makes the snapshot *consistent*, the
/// atomics keep the mixed-thread access race-free under TSAN.
struct alignas(64) WorkerHeartbeat {
  std::atomic<std::uint64_t> seq{0};    ///< seqlock: odd = write in flight
  std::atomic<std::uint64_t> epoch{0};  ///< bumped on start/finish/park
  std::atomic<std::uint64_t> tag{0};    ///< owning run's tag, 0 = idle
  std::atomic<std::int64_t> task{kNoTask};   ///< task id being executed
  std::atomic<std::int64_t> since_ns{0};     ///< body start, pool clock
};

/// Consistent snapshot of one WorkerHeartbeat (see read_heartbeat).
struct HeartbeatSnapshot {
  std::uint64_t epoch = 0;
  std::uint64_t tag = 0;  ///< 0 when no task body is in flight
  std::int64_t task = kNoTask;
  std::int64_t since_ns = 0;
  bool busy = false;  ///< tag != 0: a task body is running right now
};

/// Pool-lifetime telemetry. `lifetime` folds the per-run SchedulerStats of
/// every detached graph per worker slot (graph worker w IS pool worker w),
/// so the existing observability layer (SchedulerStats::totals,
/// compute_stats) consumes it unchanged. Counters for graphs still attached
/// are not included until they detach.
struct WorkerPoolStats {
  int size = 0;                       ///< worker threads in the pool
  int pinned = 0;                     ///< workers successfully pinned
  std::int64_t graphs_attached = 0;   ///< attach() calls so far
  std::int64_t graphs_detached = 0;   ///< graphs fully drained + detached
  std::int64_t parks = 0;             ///< worker sleep episodes
  std::int64_t wakeups_issued = 0;    ///< futex wakes issued by the pool
  std::int64_t control_runs = 0;      ///< run_on_all_workers invocations
  SchedulerStats lifetime;            ///< folded per-run stats, per slot
};

class WorkerPool {
 public:
  explicit WorkerPool(const WorkerPoolConfig& config = {});
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int size() const { return n_workers_; }

  /// Run `fn` once on every worker thread and block until all have run it.
  /// Workers interleave the run between task batches, so this completes
  /// even while graphs are executing (bounded by the longest single task).
  /// The pool-wide analogue of thread-local maintenance like
  /// blas::buffer_pool_trim — see core::pool_buffer_trim. Calling it from
  /// a worker of this pool throws std::logic_error (the worker could never
  /// ack its own epoch, so the call would otherwise hang).
  void run_on_all_workers(const std::function<void()>& fn);

  /// Snapshot of the pool-lifetime counters (see WorkerPoolStats).
  WorkerPoolStats stats() const;

  /// Nanoseconds on the pool's monotonic clock (zero at pool construction).
  /// Heartbeat since_ns timestamps are on this clock, so a monitor computes
  /// "stuck for" as now_ns() - snapshot.since_ns with no epoch juggling.
  std::int64_t now_ns() const;

  /// Lock-free consistent read of worker w's heartbeat. Returns false when
  /// the worker was mid-update on every retry (vanishingly rare — the
  /// write section is a handful of stores); callers just poll again.
  bool read_heartbeat(int w, HeartbeatSnapshot* out) const;

  /// Lazily created process-wide pool (default_num_threads() workers, no
  /// pinning). Lives until process exit; never destroyed while a static
  /// user could still attach.
  static WorkerPool& process_default();

 private:
  friend class TaskGraph;

  // --- TaskGraph handshake.
  void attach(TaskGraph* g);
  /// Drain g (all submitted tasks run), unregister it, then wait until no
  /// worker is still inside its structures. After detach the graph can be
  /// destroyed.
  void detach(TaskGraph* g);
  /// Issue one relay wake if a worker is parked and none is in flight.
  /// Returns whether a wake was issued (counter attribution is the
  /// caller's).
  bool try_wake_one();

  // --- Heartbeat writers (worker w's thread only; see WorkerHeartbeat).
  void heartbeat_begin(int w, std::uint64_t tag, std::int64_t task);
  void heartbeat_end(int w);
  void heartbeat_park(int w);  ///< progress bump with no task (pre-park)

  // --- Worker internals.
  void worker_main(int w);
  TaskGraph* acquire_next_graph(std::size_t* rr);
  static void release_graph(TaskGraph* g);
  bool any_ready();
  std::uint64_t run_pending_control(std::uint64_t seen);

  WorkerPoolConfig config_;
  int n_workers_ = 0;
  std::atomic<bool> shutdown_{false};

  // Attached graphs. Workers hold this lock only to pick a graph (and to
  // bump its in-service refcount atomically with membership); the pick is
  // amortized over a whole service slice of task batches.
  mutable std::mutex clients_mu_;
  std::vector<TaskGraph*> clients_;

  // Sleep/wake handshake: relay wakeups (one in-flight notify, re-armed by
  // the woken worker when its graph still holds a backlog).
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<int> sleepers_{0};
  int idle_wakes_ = 0;  ///< in-flight notifies, guarded by idle_mu_

  // run_on_all_workers control slot. The caller holds ctl_mu_ (released
  // while waiting on ctl_cv_) for the whole operation, so epochs are fully
  // serialized and ctl_fn_ is stable whenever a worker observes a new
  // epoch.
  std::mutex ctl_mu_;
  std::condition_variable ctl_cv_;
  const std::function<void()>* ctl_fn_ = nullptr;  ///< guarded by ctl_mu_
  int ctl_acks_ = 0;                               ///< guarded by ctl_mu_
  std::atomic<std::uint64_t> ctl_epoch_{0};

  // Lifetime stats (see WorkerPoolStats).
  mutable std::mutex stats_mu_;
  std::vector<WorkerStats> lifetime_workers_;  ///< guarded by stats_mu_
  std::int64_t lifetime_submit_wakeups_ = 0;   ///< guarded by stats_mu_
  std::int64_t graphs_attached_ = 0;           ///< guarded by stats_mu_
  std::int64_t graphs_detached_ = 0;           ///< guarded by stats_mu_
  std::int64_t control_runs_ = 0;              ///< guarded by stats_mu_
  std::atomic<std::int64_t> parks_{0};
  std::atomic<std::int64_t> wakeups_issued_{0};
  int pinned_ok_ = 0;  ///< written before workers run, const after

  // Liveness slots, one padded cache line per worker (heap-allocated so
  // the alignas(64) actually holds regardless of the pool's own address).
  std::unique_ptr<WorkerHeartbeat[]> heartbeats_;
  std::chrono::steady_clock::time_point clock_zero_;

  std::vector<std::thread> workers_;
};

}  // namespace camult::rt
