// task_graph.hpp — dynamic task-DAG executor.
//
// This is the "dynamic scheduling" substrate of the paper (Section III):
// tasks are submitted on the fly with explicit dependencies, enter a ready
// queue once all predecessors finish, and a pool of worker threads executes
// them highest-priority-first. Priorities implement the look-ahead policy.
//
// Modes:
//  * num_threads >= 1 — threaded on a WorkerPool: the caller's
//    (Config::pool), or else a private pool of num_threads workers that
//    lives exactly as long as the graph. The pool's workers are the only
//    worker threads; they enter the graph through pool_service().
//  * num_threads == 0 — inline: each task runs immediately on the submitting
//    thread (submission order must be a topological order, which holds for
//    all algorithms in this library). This is the serial record mode used to
//    measure per-task durations for the simulated-multicore replayer.
//
// Concurrency structure (the hot path pop -> run -> resolve -> push touches
// no global lock):
//  * Task storage is an append-only two-level block directory written only
//    by the single submission thread; workers index finished slots without
//    any lock (publication happens-before via the ready queues).
//  * Each task carries an atomic `unresolved` predecessor count. Submission
//    holds a +1 sentinel while it registers dependencies so a racing
//    completion cannot fire the task early; the last decrement (sentinel
//    release or predecessor completion, whichever is later) makes it ready.
//  * A small per-task mutex guards only {finished, successors} — the
//    registration/completion handshake on one edge.
//  * The submission thread stages ready tasks in an inbox under its own
//    small lock; workers splice the inbox in bulk during batched refills,
//    so producer and consumers never contend on the same hot lock.
//  * One priority queue under its own mutex, touched only by workers:
//    strict highest-priority-first, which the look-ahead policy relies on.
//  * Wakeups are relayed, not broadcast: a push asks the pool to notify one
//    parked worker only when no notify is already in flight, and the woken
//    worker re-arms the next wake if its refill leaves a backlog — a burst
//    of pushes costs one futex wake, and the common all-busy case costs
//    none.
//
// After wait(), the executed trace and the dependency edges can be exported.
// trace()/edges() are valid after wait() returns; submit() must be called
// from a single submission thread.
//
// Windowed (sliding-window) submission: a caller that cannot afford the
// O(total tasks) footprint of a fully materialized DAG opts into iteration
// tracking (track_iterations). Tasks then carry nondecreasing iteration
// tags; once every task of the leading iterations has completed AND the
// submitter sealed them (seal_iterations), wait_retired_iterations advances
// a retirement watermark on the submission thread — running a per-iteration
// retire hook and recycling every task-store slab that lies wholly below
// the oldest live iteration. Recycled slabs are reused by later submits, so
// the resident task store is O(live window), not O(total). See
// docs/runtime.md ("Sliding-window submission") for the lifetime model.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/cancel.hpp"
#include "runtime/dep_tracker.hpp"
#include "runtime/task.hpp"

namespace camult::rt {

class FaultInjector;
class WorkerPool;

/// Per-worker scheduler counters, snapshotted by TaskGraph::stats().
/// busy_ns is only accumulated when Config::record_trace is set (it reuses
/// the trace timestamps; the counter-only path stays clock-free on the hot
/// path). Idle time and received wakeups are the pool's to count
/// (WorkerPoolStats::parks / wakeups_issued): workers park in the pool.
struct WorkerStats {
  std::int64_t tasks_executed = 0;
  std::int64_t tasks_skipped = 0;  ///< bodies not run (fast-abort / cancel)
  std::int64_t local_pops = 0;    ///< tasks popped from the priority buckets
  std::int64_t inbox_drains = 0;  ///< inbox swaps that yielded >= 1 task
  std::int64_t wakeups_sent = 0;  ///< relay notifies issued by this worker
  std::int64_t busy_ns = 0;       ///< inside task bodies (record_trace only)

  WorkerStats& operator+=(const WorkerStats& o);
};

/// Aggregated scheduler telemetry for one TaskGraph run. Valid after
/// wait(); counters keep accumulating if more tasks are submitted.
struct SchedulerStats {
  std::vector<WorkerStats> workers;  ///< one slot per worker (>= 1)
  std::int64_t submit_wakeups = 0;   ///< wakeups issued by the submitter
  WorkerStats totals() const;
};

class TaskGraph {
 public:
  struct Config {
    int num_threads = 1;  ///< 0 = inline serial mode
    bool record_trace = true;
    /// Execute on this persistent WorkerPool (execution width =
    /// pool->size(); num_threads is then only consulted for the 0 = inline
    /// case, which always stays inline). The pool must outlive the graph.
    /// nullptr = a private pool of num_threads workers, built by the
    /// constructor and destroyed with the graph. Either way the graph's
    /// destructor drains pending tasks and detaches.
    WorkerPool* pool = nullptr;
    /// Cooperative cancellation handle (see cancel.hpp). Copy the token
    /// before constructing the graph and call request_cancel() from any
    /// thread to make the run skip every task body that has not started.
    CancelToken cancel{};
    /// When a task throws, skip every not-yet-started task body instead of
    /// executing the rest of the DAG (their results would feed a
    /// computation that is already lost). The graph still drains — skipped
    /// tasks resolve successors and count as completed — so wait()/detach
    /// semantics are unchanged. Set false to restore run-everything.
    bool abort_on_error = true;
    /// Deterministic fault-injection hook (see fault_inject.hpp): fires
    /// before each task body. nullptr = use the process-wide injector
    /// armed by CAMULT_FAULT_SEED, if any.
    FaultInjector* fault = nullptr;
    /// Salt folded into every fault decision this run (see
    /// FaultInjector::decide). 0 reproduces the unsalted stream; the
    /// service sets it to the retry attempt index so a retried job draws a
    /// fresh fault stream instead of replaying the one that killed it.
    std::uint64_t fault_salt = 0;
  };

  struct Edge {
    TaskId from;
    TaskId to;
  };

  /// Task-store / trace memory telemetry, one snapshot per graph. Slab
  /// counters are monotone: recycled slabs are reused, never freed before
  /// destruction, so blocks_allocated is also the peak resident slab count
  /// — in windowed mode it plateaus at O(window) while a full-DAG run grows
  /// it linearly with the task count. peak_task_store_bytes covers the task
  /// slots themselves (labels / successor lists / captured closures are
  /// freed at recycle time but not metered).
  struct MemoryStats {
    std::int64_t task_slot_bytes = 0;   ///< sizeof one task slot
    std::int64_t tasks_per_block = 0;   ///< slots per slab
    std::int64_t blocks_allocated = 0;  ///< distinct slabs (== peak resident)
    std::int64_t blocks_recycled = 0;   ///< slabs retired + returned for reuse
    std::int64_t peak_task_store_bytes = 0;  ///< blocks_allocated * slab bytes
    /// Trace records copied out of recycled slabs (record_trace only; 0 when
    /// tracing is off — retired iterations then leave no per-task residue).
    std::int64_t trace_records_harvested = 0;
  };

  explicit TaskGraph(const Config& config);
  ~TaskGraph();

  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Submit a task depending on `deps` (finished deps are allowed and
  /// skipped). Returns the task id. Thread-compatible: call from one
  /// submission thread.
  TaskId submit(const std::vector<TaskId>& deps, TaskOptions opts,
                std::function<void()> fn);

  /// Submit a task performing the block `accesses`: the graph's dependency
  /// tracker derives its RAW/WAR/WAW edges from every earlier task submitted
  /// this way (superscalar-style renaming, see dep_tracker.hpp). This is how
  /// the factorization drivers build their DAGs on the fly.
  TaskId submit_accessing(const std::vector<BlockAccess>& accesses,
                          TaskOptions opts, std::function<void()> fn);

  /// Declare a key space of `stride` keys per iteration for per-iteration
  /// algorithm state (see KeySpace). The spaces are disjoint from the tile
  /// keys (block_key, below 2^59) and from each other: space s covers
  /// [(s + 1) * 2^59, (s + 2) * 2^59), so a graph has at most 15 of them.
  KeySpace key_space(idx stride);

  /// Block until every submitted task has completed (executed or, after an
  /// error/cancellation, skipped). If any task threw, the first exception
  /// (by task id) is rethrown here; a cancelled run with no task error
  /// throws CancelledError. The graph always drains completely first.
  void wait();

  /// Whether the run is aborting: a task failed (with Config::abort_on_error)
  /// or the cancel token fired. Remaining task bodies will be skipped.
  bool aborted() const {
    return abort_.load(std::memory_order_acquire) ||
           config_.cancel.cancelled();
  }

  int num_threads() const { return config_.num_threads; }

  /// Worker slots actually executing this graph: the pool size when
  /// threaded, 1 in inline mode (which accounts everything to slot 0).
  int execution_width() const { return exec_width_; }

  /// The pool executing this graph (the caller's or the private one);
  /// nullptr in inline mode.
  WorkerPool* pool() const { return pool_; }

  /// Executed tasks, sorted by id. Valid after wait(). Records are only
  /// filled in when Config::record_trace is set; otherwise they are
  /// default-constructed placeholders.
  std::vector<TaskRecord> trace() const;

  /// All dependency edges actually registered. Valid after wait().
  std::vector<Edge> edges() const;

  /// Snapshot of the per-worker scheduler counters. Valid after wait();
  /// inline mode (num_threads == 0) accounts everything to worker 0.
  SchedulerStats stats() const;

  /// Task-store / trace memory snapshot (see MemoryStats). Callable from
  /// the submission thread at any time; cheap.
  MemoryStats memory() const;

  // --- Iteration lifecycle (windowed submission). All four methods below
  // plus set_retire_hook must be called from the submission thread.

  /// Opt into iteration tracking for `n_iterations` iterations. Must be
  /// called before the first submit(). Every task submitted afterwards must
  /// carry TaskOptions::iteration in [0, n_iterations), nondecreasing
  /// across submits (the natural order of a panel factorization).
  void track_iterations(idx n_iterations);

  /// Declare that no further task with iteration <= `up_to_inclusive` will
  /// be submitted. An iteration retires once it is sealed and all its tasks
  /// completed; retirement is strictly in iteration order.
  void seal_iterations(idx up_to_inclusive);

  /// Leading iterations fully retired: iterations [0, retired) are sealed,
  /// all their tasks completed, their retire hooks have run and their
  /// task-store slabs are recycled.
  idx retired_iterations() const;

  /// Block until retired_iterations() >= r. The watermark only advances
  /// inside this call (and inside wait()), on the calling thread: retire
  /// hooks and slab recycling never race with submission. `r` is clamped to
  /// the tracked iteration count. Every iteration in [0, r) must already be
  /// sealed, or the call would never return (inline mode throws instead of
  /// hanging).
  void wait_retired_iterations(idx r);

  /// Hook invoked once per iteration, in order, as the watermark passes it
  /// (from wait_retired_iterations / wait, on the submission thread, after
  /// every task of the iteration completed). Typical use: free per-iteration
  /// algorithm state. The hook must not submit tasks or re-enter the graph.
  void set_retire_hook(std::function<void(idx)> hook);

 private:
  struct Task {
    std::function<void()> fn;
    TaskOptions opts;
    /// Unfinished-predecessor count, +1 submission sentinel while deps are
    /// being registered. The fetch_sub that reaches 0 owns the push-ready.
    std::atomic<int> unresolved{0};
    /// mu guards {finished, successors}: the only state shared between the
    /// submission thread (registering an edge) and a completing worker
    /// (claiming the successor list). `finished` is additionally readable
    /// lock-free (load-acquire) as a registration fast path: once true, the
    /// successor list is sealed and no edge needs registering.
    std::mutex mu;
    std::atomic<bool> finished{false};
    std::vector<TaskId> successors;
    TaskRecord record;
    std::exception_ptr error;
  };

  /// Append-only task arena: a fixed directory of lazily-allocated blocks.
  /// Slot addresses are stable while a task is live, so workers can
  /// dereference a TaskId published to them (via a ready queue) without any
  /// lock — unlike std::deque, whose push_back mutates internal structures
  /// that operator[] traverses.
  ///
  /// Windowed mode adds recycle_below(): once every task of a slab is
  /// retired (completed + its iteration sealed + watermark passed), the
  /// slab is reset and moved to a free list that append() draws from, so
  /// ids stay dense and monotone while resident memory stays O(window).
  /// Ids below first_live_id() must never be dereferenced again — the
  /// submission thread guarantees it by dropping such (finished by
  /// definition) dependencies before touching the store.
  class TaskStore {
   public:
    static constexpr std::size_t kBlockBits = 12;  // 4096 tasks per block
    static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockBits;
    static constexpr std::size_t kMaxBlocks = std::size_t{1} << 14;  // ~67M

    TaskStore();
    ~TaskStore();
    TaskStore(const TaskStore&) = delete;
    TaskStore& operator=(const TaskStore&) = delete;

    /// Single producer. The returned slot is default-constructed; the caller
    /// fills it and only then publishes the id to other threads.
    Task& append();

    Task& operator[](TaskId id) {
      const auto i = static_cast<std::size_t>(id);
      return blocks_[i >> kBlockBits].load(std::memory_order_acquire)
          [i & (kBlockSize - 1)];
    }
    const Task& operator[](TaskId id) const {
      const auto i = static_cast<std::size_t>(id);
      return blocks_[i >> kBlockBits].load(std::memory_order_acquire)
          [i & (kBlockSize - 1)];
    }

    std::size_t size() const { return size_.load(std::memory_order_acquire); }

    /// First id whose slab is still resident; every id below was recycled.
    /// Written only by the submission thread (recycle_below), read by it.
    TaskId first_live_id() const {
      return static_cast<TaskId>(first_live_block_ * kBlockSize);
    }

    /// Submission thread only. Release every slab that lies wholly below
    /// `limit` (all its tasks retired): `harvest` sees each slot before the
    /// reset, then the slab's heap residue (labels, successor lists,
    /// captured closures) is freed and the slab queued for reuse.
    void recycle_below(TaskId limit,
                       const std::function<void(Task&, TaskId)>& harvest);

    std::int64_t blocks_allocated() const { return blocks_allocated_; }
    std::int64_t blocks_recycled() const { return blocks_recycled_; }

   private:
    std::unique_ptr<std::atomic<Task*>[]> blocks_;
    std::atomic<std::size_t> size_{0};
    std::size_t first_live_block_ = 0;  ///< submission thread only
    std::vector<Task*> free_;           ///< recycled slabs, submission thread
    std::int64_t blocks_allocated_ = 0;
    std::int64_t blocks_recycled_ = 0;
  };

  /// One cache-line-padded counter slot per worker. Every field has exactly
  /// one writer (its worker; the submission thread owns submit_wakeups_), so
  /// updates are plain relaxed load/store pairs — no RMW, no contention —
  /// and stats() reads them with relaxed loads.
  struct alignas(64) Counters {
    std::atomic<std::int64_t> tasks_executed{0};
    std::atomic<std::int64_t> tasks_skipped{0};
    std::atomic<std::int64_t> local_pops{0};
    std::atomic<std::int64_t> inbox_drains{0};
    std::atomic<std::int64_t> wakeups_sent{0};
    std::atomic<std::int64_t> busy_ns{0};
  };
  static void bump(std::atomic<std::int64_t>& c, std::int64_t v = 1) {
    c.store(c.load(std::memory_order_relaxed) + v,
            std::memory_order_relaxed);
  }

  /// Iteration-lifecycle state (see track_iterations). The per-iteration
  /// arrays are written by the submission thread (totals, sealed flags) and
  /// by completing workers (done counts); the watermark is advanced by the
  /// submission thread only.
  struct IterTrack {
    idx n = 0;
    std::unique_ptr<std::atomic<idx>[]> submitted;  ///< tasks per iteration
    std::unique_ptr<std::atomic<idx>[]> done;       ///< completions, ditto
    std::unique_ptr<std::atomic<bool>[]> sealed;
    /// First task id of each iteration (kNoTask until one is submitted);
    /// submission thread only — the recycle boundary derives from it.
    std::vector<TaskId> first_id;
    std::atomic<idx> retired{0};  ///< iterations [0, retired) fully retired
    /// Wakes wait_retired_iterations when a completion finishes a sealed
    /// iteration. Completers take mu empty (lock/unlock) before notifying,
    /// so a waiter that just evaluated its predicate cannot miss the wake.
    std::mutex mu;
    std::condition_variable cv;
  };

  friend class WorkerPool;

  /// Iteration bookkeeping at submit time (submission thread).
  void note_submit(int iteration, TaskId id);
  /// Iteration bookkeeping at completion time (any worker); must run after
  /// the task's finished/completed stores so retirement implies visibility.
  void note_complete(const Task& task);
  /// Advance the retirement watermark as far as sealed + fully-done leading
  /// iterations allow: run retire hooks, recycle slabs. Submission thread
  /// only. Returns the new watermark.
  idx advance_retired();

  /// The single worker entry point: run up to kServiceRounds batches of
  /// ready tasks as pool worker `worker_id`. Returns whether at least one
  /// task ran. Bounded so a worker revisits the pool between slices
  /// (control hooks, fairness across attached graphs).
  bool pool_service(int worker_id);
  /// Any task staged/ready right now? (Takes the queue locks; used by the
  /// pool's pre-park scan, so it participates in the same
  /// mutex-bracketed handshake as dispatch_ready's wake check.)
  bool has_ready_work();
  /// Block until every submitted task completed (the wait() core, minus
  /// the error rethrow — the detach path must drain unconditionally).
  void drain_all();
  void run_task(TaskId id, int worker_id, bool inline_mode = false);
  /// Hand `ready` (which just hit unresolved == 0) to the scheduler and
  /// issue at most one (relay) wake. `worker_hint < 0` means "called from
  /// the submission thread": the tasks are staged in the inbox so the
  /// submitter never contends on the worker-side queue locks.
  void dispatch_ready(const TaskId* ready, int n, int worker_hint);
  /// Ask the pool for a single relay wake of a parked worker if none is in
  /// flight. `caller` is the worker issuing the wake, or -1 for the
  /// submitter (counter attribution only).
  void maybe_wake_sleeper(int caller);
  /// Refill `batch` for `worker_id`: splice the inbox into the priority
  /// buckets, then pop a batch in strict priority order. Consume
  /// front-to-back. `*backlog` is set when the queue still holds work
  /// (relay-wake signal). Returns false if everything was empty.
  bool try_fill(int worker_id, std::vector<TaskId>& batch,
                std::vector<TaskId>& scratch, bool* backlog);
  /// O(1) inbox drain: swap its contents into `scratch` (a worker-owned
  /// buffer that recycles its capacity), so inbox_mu_ is never held for a
  /// bulk copy and the submission thread cannot block behind a splice.
  void drain_inbox(std::vector<TaskId>& scratch);

  /// Workers pop ready tasks in batches to amortize queue locks.
  /// Queue/threads scaling keeps batches at 1 when the queue is short, so
  /// strict priority order degrades only in the overhead-bound regime where
  /// the queue is deep anyway.
  static constexpr std::size_t kMaxBatch = 16;
  /// Batches a pool worker runs per service slice before rotating back
  /// through the pool (control-hook latency / multi-graph fairness bound).
  static constexpr int kServiceRounds = 8;

  Config config_;
  /// Block-access dependency state of submit_accessing and the number of
  /// key spaces declared; submission thread only.
  DepTracker tracker_;
  int key_spaces_ = 0;
  WorkerPool* pool_ = nullptr;  ///< executing pool; null = inline mode
  /// The private pool built when Config::pool is null (pool_ points at it).
  std::unique_ptr<WorkerPool> own_pool_;
  int exec_width_ = 1;          ///< worker slots (see execution_width())
  /// Pool workers currently inside pool_service (incremented under the
  /// pool's registry lock, so detach's unregister-then-drain is race-free).
  std::atomic<int> pool_active_{0};
  std::mutex detach_mu_;
  std::condition_variable detach_cv_;
  TaskStore store_;
  /// Tasks submitted / completed. Monotonic; submitted_ is written (plain
  /// release stores) by the submission thread only. wait() blocks until
  /// they agree (Dekker pair with done_waiting_).
  std::atomic<idx> submitted_{0};
  std::atomic<idx> completed_{0};
  /// Set by the first task error when Config::abort_on_error: remaining
  /// bodies are skipped (they still resolve successors and complete).
  std::atomic<bool> abort_{false};
  /// Resolved fault hook: Config::fault, else the env-armed global.
  FaultInjector* fault_ = nullptr;

  // --- Submission-side staging. The submitter appends ready task ids here
  // under a lock nobody holds for long; worker refills splice it in bulk
  // into the priority buckets.
  std::mutex inbox_mu_;
  std::vector<TaskId> inbox_;

  // --- Ready queue, touched by workers only. Priority buckets instead of
  // one heap: DAG priorities cluster into a few bands
  // (the look-ahead scheme produces O(n_panels) distinct values live at
  // once), so push/pop are O(1) ring operations plus a lookup in a map
  // whose hot node stays cached — a 100k-deep heap pays an O(log n)
  // cache-missing sift per pop instead. Pop order: highest priority bucket
  // first, FIFO (submission order) within a bucket.
  std::mutex central_mu_;
  std::map<int, std::deque<TaskId>, std::greater<int>>
      ready_;                  ///< guarded by central_mu_
  std::size_t ready_count_ = 0;  ///< total tasks across buckets, ditto

  // --- Per-worker counter slots (see Counters) + the submitter's wakeups.
  std::unique_ptr<Counters[]> counters_;
  std::atomic<std::int64_t> submit_wakeups_{0};

  // --- Completion signalling for wait().
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::atomic<bool> done_waiting_{false};  ///< wait() is blocked (Dekker pair
                                           ///< with unfinished_)

  /// Dependency edges; only recorded when Config::record_trace is set (the
  /// exporters that consume them all run with tracing on, and an untraced
  /// windowed run must not accumulate O(total tasks) edge memory).
  std::vector<Edge> edges_;  ///< submission thread only; read after wait()

  // --- Windowed-submission state (null / empty unless track_iterations).
  std::unique_ptr<IterTrack> iter_;
  std::function<void(idx)> retire_hook_;  ///< submission thread only
  int last_iteration_seen_ = -1;          ///< nondecreasing-tag check
  /// Trace records and the first task error copied out of recycled slabs
  /// (submission thread; records only when record_trace).
  std::vector<TaskRecord> harvested_trace_;
  std::exception_ptr harvested_error_;

  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace camult::rt
