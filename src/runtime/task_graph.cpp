#include "runtime/task_graph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "runtime/fault_inject.hpp"
#include "runtime/worker_pool.hpp"

namespace camult::rt {

const char* task_kind_name(TaskKind k) {
  switch (k) {
    case TaskKind::Panel: return "P";
    case TaskKind::LFactor: return "L";
    case TaskKind::UFactor: return "U";
    case TaskKind::Update: return "S";
    case TaskKind::Generic: return "G";
  }
  return "?";
}

char task_kind_letter(TaskKind k) { return task_kind_name(k)[0]; }

WorkerStats& WorkerStats::operator+=(const WorkerStats& o) {
  tasks_executed += o.tasks_executed;
  tasks_skipped += o.tasks_skipped;
  local_pops += o.local_pops;
  inbox_drains += o.inbox_drains;
  wakeups_sent += o.wakeups_sent;
  busy_ns += o.busy_ns;
  return *this;
}

WorkerStats SchedulerStats::totals() const {
  WorkerStats t;
  for (const WorkerStats& w : workers) t += w;
  t.wakeups_sent += submit_wakeups;
  return t;
}

TaskGraph::TaskStore::TaskStore()
    : blocks_(new std::atomic<Task*>[kMaxBlocks]) {
  for (std::size_t b = 0; b < kMaxBlocks; ++b) {
    blocks_[b].store(nullptr, std::memory_order_relaxed);
  }
}

TaskGraph::TaskStore::~TaskStore() {
  for (std::size_t b = 0; b < kMaxBlocks; ++b) {
    delete[] blocks_[b].load(std::memory_order_relaxed);
  }
  for (Task* blk : free_) delete[] blk;
}

TaskGraph::Task& TaskGraph::TaskStore::append() {
  const std::size_t i = size_.load(std::memory_order_relaxed);
  const std::size_t b = i >> kBlockBits;
  if (b >= kMaxBlocks) {
    throw std::length_error("TaskGraph: task store capacity exceeded");
  }
  Task* blk = blocks_[b].load(std::memory_order_relaxed);
  if (blk == nullptr) {
    if (!free_.empty()) {
      // Reuse a retired slab (already reset by recycle_below): windowed
      // runs plateau here instead of allocating O(total tasks).
      blk = free_.back();
      free_.pop_back();
    } else {
      blk = new Task[kBlockSize];
      ++blocks_allocated_;
    }
    // Release so any thread that later learns a TaskId in this block (all
    // publication paths already carry acquire/release) sees the pointer.
    blocks_[b].store(blk, std::memory_order_release);
  }
  size_.store(i + 1, std::memory_order_release);
  return blk[i & (kBlockSize - 1)];
}

void TaskGraph::TaskStore::recycle_below(
    TaskId limit, const std::function<void(Task&, TaskId)>& harvest) {
  assert(limit >= 0 &&
         static_cast<std::size_t>(limit) <= size_.load(std::memory_order_relaxed));
  const auto lim = static_cast<std::size_t>(limit);
  while ((first_live_block_ + 1) * kBlockSize <= lim) {
    Task* blk = blocks_[first_live_block_].load(std::memory_order_relaxed);
    for (std::size_t s = 0; s < kBlockSize; ++s) {
      Task& t = blk[s];
      harvest(t, static_cast<TaskId>(first_live_block_ * kBlockSize + s));
      // Reset to a fresh default-constructed state so reuse starts clean
      // and the retired task's heap residue (label string, successor list,
      // captured closure, exception) is released now, not at graph
      // destruction. Every task in the slab is retired: completed, its
      // successors all resolved, no thread will touch the slot again.
      t.fn = nullptr;
      t.opts = TaskOptions{};
      t.unresolved.store(0, std::memory_order_relaxed);
      t.finished.store(false, std::memory_order_relaxed);
      t.successors.clear();
      t.successors.shrink_to_fit();
      t.record = TaskRecord{};
      t.error = nullptr;
    }
    blocks_[first_live_block_].store(nullptr, std::memory_order_release);
    free_.push_back(blk);
    ++first_live_block_;
    ++blocks_recycled_;
  }
}

TaskGraph::TaskGraph(const Config& config) : config_(config) {
  if (config_.num_threads < 0) {
    throw std::invalid_argument("TaskGraph: negative thread count");
  }
  fault_ = config_.fault != nullptr ? config_.fault : FaultInjector::from_env();
  epoch_ = std::chrono::steady_clock::now();
  // Inline mode always stays inline (it is the serial record mode). Threaded
  // mode runs on the caller's pool, or on a private one sized num_threads.
  if (config_.num_threads != 0) {
    pool_ = config_.pool;
    if (pool_ == nullptr) {
      own_pool_ = std::make_unique<WorkerPool>(
          WorkerPoolConfig{config_.num_threads, false});
      pool_ = own_pool_.get();
    }
  }
  exec_width_ = pool_ != nullptr ? pool_->size() : 1;
  counters_.reset(new Counters[static_cast<std::size_t>(exec_width_)]);
  if (pool_ != nullptr) pool_->attach(this);
}

TaskGraph::~TaskGraph() {
  if (pool_ == nullptr) return;
  // Detach drains every pending task and then waits until no pool worker is
  // still inside this graph's structures; only then may a private pool join
  // its workers.
  pool_->detach(this);
  own_pool_.reset();
}

TaskId TaskGraph::submit(const std::vector<TaskId>& deps, TaskOptions opts,
                         std::function<void()> fn) {
  // Dependencies below the recycle boundary are retired by definition —
  // finished, successors sealed — and their slots are gone; drop them
  // before touching the store. Visibility of their side effects reached
  // this thread through the retirement watermark's acquire (advance_retired
  // read the completer's done-count release), so the happens-before chain
  // to everything published after this submit is the same one the finished
  // fast path below provides for live retired tasks.
  const TaskId first_live = store_.first_live_id();

  if (config_.num_threads == 0) {
    // Inline mode is single-threaded, so every previously submitted task has
    // already run; validate BEFORE mutating anything, so a rejected
    // submission leaves the graph exactly as it was (no half-registered
    // task, no stray edges, no bumped unfinished count) and a caller that
    // catches can continue.
    for (TaskId d : deps) {
      if (d == kNoTask || d < first_live) continue;
      assert(d >= 0 && d < static_cast<TaskId>(store_.size()));
      if (!store_[d].finished.load(std::memory_order_relaxed)) {
        throw std::logic_error(
            "TaskGraph(inline): task submitted before its dependencies "
            "finished — submission order must be topological");
      }
    }
    const TaskId id = static_cast<TaskId>(store_.size());
    Task& task = store_.append();
    task.fn = std::move(fn);
    task.opts = std::move(opts);
    if (config_.record_trace) {
      task.record.id = id;
      task.record.kind = task.opts.kind;
      task.record.iteration = task.opts.iteration;
      task.record.priority = task.opts.priority;
      task.record.label = task.opts.label;
      for (TaskId d : deps) {
        if (d != kNoTask) edges_.push_back({d, id});
      }
    }
    if (iter_ != nullptr) note_submit(task.opts.iteration, id);
    submitted_.store(submitted_.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
    run_task(id, 0, /*inline_mode=*/true);
    return id;
  }

  const TaskId id = static_cast<TaskId>(store_.size());
  Task& task = store_.append();
  task.fn = std::move(fn);
  task.opts = std::move(opts);
  if (config_.record_trace) {
    task.record.id = id;
    task.record.kind = task.opts.kind;
    task.record.iteration = task.opts.iteration;
    task.record.priority = task.opts.priority;
    task.record.label = task.opts.label;
  }
  if (iter_ != nullptr) note_submit(task.opts.iteration, id);
  // +1 sentinel: keeps the task from firing while deps are registered.
  task.unresolved.store(1, std::memory_order_relaxed);
  // Plain release store (not an RMW): only this thread writes submitted_.
  submitted_.store(submitted_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);

  for (TaskId d : deps) {
    if (d == kNoTask) continue;
    assert(d >= 0 && d < id);
    // The edge is logically real even when the producer's slot is recycled,
    // so record it (trace consumers replay it; the producer ended long ago)
    // before the liveness cutoff.
    if (config_.record_trace) edges_.push_back({d, id});
    if (d < first_live) continue;
    Task& dep = store_[d];
    // Fast path: once finished is true the successor list is sealed, no
    // registration is needed, and the acquire load pairs with the
    // completer's release store so the dependency's side effects are
    // already visible to everything we publish after this.
    if (dep.finished.load(std::memory_order_acquire)) continue;
    std::lock_guard<std::mutex> lock(dep.mu);
    if (!dep.finished.load(std::memory_order_relaxed)) {
      // Count before linking: the completer may traverse `successors` the
      // moment we unlock, and must find the count already there.
      task.unresolved.fetch_add(1, std::memory_order_relaxed);
      dep.successors.push_back(id);
    }
  }

  // Drop the sentinel; whoever reaches zero (us, or a completing worker
  // that beat us to the last dependency) schedules the task. Reading 1 here
  // does NOT mean the counter is untouched: a completer's fetch_sub may
  // have just brought it 2 -> 1, so the load must be acquire — it reads the
  // value written by that release RMW and synchronizes with it, making the
  // dep's side effects visible before we dispatch the successor.
  if (task.unresolved.load(std::memory_order_acquire) == 1 ||
      task.unresolved.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    dispatch_ready(&id, 1, /*worker_hint=*/-1);
  }
  return id;
}

void TaskGraph::dispatch_ready(const TaskId* ready, int n, int worker_hint) {
  if (n <= 0) return;
  if (worker_hint < 0) {
    // Submission thread: stage in the inbox. Workers splice it in bulk at
    // refill time, so the submitter never touches the hot worker-side
    // locks.
    std::lock_guard<std::mutex> lock(inbox_mu_);
    inbox_.insert(inbox_.end(), ready, ready + n);
  } else {
    std::lock_guard<std::mutex> lock(central_mu_);
    for (int i = 0; i < n; ++i) {
      ready_[store_[ready[i]].opts.priority].push_back(ready[i]);
    }
    ready_count_ += static_cast<std::size_t>(n);
  }
  // Wake only if someone may be parked, and only when no notify is already
  // in flight: the woken worker re-arms the next wake itself when its
  // refill still sees a backlog (relay wakeup), so a push burst costs one
  // futex wake, not one per task. If a worker's final pre-park scan missed
  // this push, its sleeper count happened-before the pool's load (both
  // sides bracket the same queue mutex), so a stale zero cannot be read.
  maybe_wake_sleeper(worker_hint);
}

void TaskGraph::maybe_wake_sleeper(int caller) {
  // The sleepers are the pool's, so the relay-wake bookkeeping lives there;
  // only the counter attribution stays here.
  if (!pool_->try_wake_one()) return;
  if (caller >= 0) {
    bump(counters_[static_cast<std::size_t>(caller)].wakeups_sent);
  } else {
    bump(submit_wakeups_);
  }
}

void TaskGraph::run_task(TaskId id, int worker_id, bool inline_mode) {
  Task& task = store_[id];  // lock-free: slot address is stable, id was
                            // published to us with acquire/release
  Counters& cnt = counters_[static_cast<std::size_t>(worker_id)];
  // Fast-abort: once a task has failed (abort_on_error) or the cancel token
  // fired, remaining bodies are pointless — skip them. The task still
  // completes below (successors resolve, completed_ advances), so the DAG
  // drains at skip speed and every wait()/detach invariant holds; an
  // attached pool just sees a graph whose tasks finish very quickly.
  const bool skip = aborted();
  bool spurious_wake = false;
  std::exception_ptr error;
  std::chrono::steady_clock::time_point t0;
  if (config_.record_trace) t0 = std::chrono::steady_clock::now();
  // Heartbeat: publish "worker_id is inside task `id` of run `tag`" for the
  // stall watchdog. Inline runs have no pool and no per-worker liveness
  // slots.
  const bool hb = !inline_mode && !skip;
  if (hb) pool_->heartbeat_begin(worker_id, config_.cancel.id(), id);
  if (!skip) {
    try {
      // The injector (when armed) fires here so an injected throw takes
      // exactly the path a throwing kernel would. The cancel token makes
      // injected delays cooperative (skipped/abandoned once the run is
      // cancelled); injected hangs ignore it by design.
      if (fault_ != nullptr) {
        spurious_wake =
            fault_->before_task(id, config_.fault_salt, &config_.cancel);
      }
      task.fn();
    } catch (...) {
      // The first failure is rethrown from wait(); a worker must never die.
      error = std::current_exception();
      if (config_.abort_on_error) abort_.store(true, std::memory_order_release);
    }
  }
  if (hb) pool_->heartbeat_end(worker_id);
  if (config_.record_trace) {
    const auto t1 = std::chrono::steady_clock::now();
    task.record.worker = worker_id;
    task.record.start_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - epoch_)
            .count();
    task.record.end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - epoch_)
            .count();
    bump(cnt.busy_ns, task.record.end_ns - task.record.start_ns);
  }
  bump(skip ? cnt.tasks_skipped : cnt.tasks_executed);
  task.error = error;
  task.fn = nullptr;  // release captures eagerly
  // Injected spurious wake: poke the relay machinery for no reason, the
  // way a stray futex wake would. Harmless by design — workers re-check
  // their queues — but it stresses exactly that property.
  if (spurious_wake && !inline_mode) maybe_wake_sleeper(worker_id);

  if (inline_mode) {
    // Single-threaded: no handshake needed, and nobody can be in wait().
    task.finished.store(true, std::memory_order_relaxed);
    completed_.store(completed_.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
    if (iter_ != nullptr) note_complete(task);
    return;
  }

  // Claim the successor list; from here on the submission thread sees
  // `finished` (release store: pairs with the lock-free registration fast
  // path) and will not link to us again.
  std::vector<TaskId> succs;
  {
    std::lock_guard<std::mutex> lock(task.mu);
    task.finished.store(true, std::memory_order_release);
    succs.swap(task.successors);
  }

  // Collect the newly-ready successors, then hand them over in one batch:
  // one ready-queue lock and at most one counted wakeup.
  TaskId newly[64];
  int n = 0;
  for (TaskId s : succs) {
    if (store_[s].unresolved.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      newly[n++] = s;
      if (n == 64) {
        dispatch_ready(newly, n, worker_id);
        n = 0;
      }
    }
  }
  dispatch_ready(newly, n, worker_id);

  // seq_cst pairs with wait()'s done_waiting_ store (Dekker): either we see
  // the waiter's flag, or the waiter sees our count and never blocks. The
  // increment also release-publishes every write above to wait(). If we are
  // the last completion overall, the release sequence through completed_
  // guarantees our acquire load of submitted_ observes its final value.
  const idx done = completed_.fetch_add(1, std::memory_order_seq_cst) + 1;
  if (done_waiting_.load(std::memory_order_seq_cst) &&
      done == submitted_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(done_mu_);
    done_cv_.notify_all();
  }
  // Iteration bookkeeping LAST: the done-count increment is the release the
  // watermark's acquire pairs with, and once it lands the submission thread
  // may recycle this task's slab — so the worker must be done with `task`.
  if (iter_ != nullptr) note_complete(task);
}

void TaskGraph::drain_inbox(std::vector<TaskId>& scratch) {
  scratch.clear();
  std::lock_guard<std::mutex> lock(inbox_mu_);
  scratch.swap(inbox_);
}

bool TaskGraph::try_fill(int worker_id, std::vector<TaskId>& batch,
                         std::vector<TaskId>& scratch, bool* backlog) {
  *backlog = false;
  Counters& cnt = counters_[static_cast<std::size_t>(worker_id)];
  std::lock_guard<std::mutex> lock(central_mu_);
  // Splice everything the submission thread staged, so every refill
  // decision sees every task submitted so far — strict priority order is
  // preserved at batch granularity. The O(1) inbox swap keeps the
  // submitter from ever blocking behind the heap pushes.
  drain_inbox(scratch);
  for (TaskId id : scratch) {
    ready_[store_[id].opts.priority].push_back(id);
  }
  ready_count_ += scratch.size();
  if (!scratch.empty()) bump(cnt.inbox_drains);
  if (ready_count_ == 0) return false;
  // Pop a batch in strict priority order. Scaling by queue/threads keeps
  // the batch at 1 unless the queue is deep relative to the worker pool,
  // so a late high-priority arrival (the look-ahead panel path) is never
  // stuck behind more than its fair share of the backlog.
  std::size_t take =
      ready_count_ / static_cast<std::size_t>(exec_width_);
  take = std::max<std::size_t>(1, std::min(take, kMaxBatch));
  for (std::size_t i = 0; i < take; ++i) {
    auto top = ready_.begin();  // highest-priority bucket
    batch.push_back(top->second.front());
    top->second.pop_front();
    if (top->second.empty()) ready_.erase(top);
  }
  ready_count_ -= take;
  bump(cnt.local_pops, static_cast<std::int64_t>(take));
  *backlog = ready_count_ > 0;
  return true;
}

bool TaskGraph::pool_service(int worker_id) {
  // Worker-owned refill buffers. thread_local (not per-graph) so a pool
  // worker recycles one pair of allocations across every graph it serves.
  thread_local std::vector<TaskId> batch;
  thread_local std::vector<TaskId> scratch;
  bool any = false;
  for (int round = 0; round < kServiceRounds; ++round) {
    batch.clear();
    bool backlog = false;
    if (!try_fill(worker_id, batch, scratch, &backlog)) break;
    any = true;
    // Relay: more work remains after this batch — re-arm the next pool
    // wake before running, so ramp-up propagates worker-to-worker.
    if (backlog) maybe_wake_sleeper(worker_id);
    for (TaskId id : batch) run_task(id, worker_id);
  }
  return any;
}

bool TaskGraph::has_ready_work() {
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    if (!inbox_.empty()) return true;
  }
  std::lock_guard<std::mutex> lock(central_mu_);
  return ready_count_ > 0;
}

void TaskGraph::drain_all() {
  // Only the submission thread calls this, so submitted_ is this thread's
  // own final value.
  const idx target = submitted_.load(std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(done_mu_);
  done_waiting_.store(true, std::memory_order_seq_cst);
  done_cv_.wait(lock, [this, target] {
    return completed_.load(std::memory_order_seq_cst) == target;
  });
  done_waiting_.store(false, std::memory_order_relaxed);
}

TaskId TaskGraph::submit_accessing(const std::vector<BlockAccess>& accesses,
                                   TaskOptions opts, std::function<void()> fn) {
  // Ids are dense in submission order, so the next id is known before
  // submit() assigns it.
  const TaskId id = static_cast<TaskId>(store_.size());
  return submit(tracker_.depends(id, accesses), std::move(opts),
                std::move(fn));
}

KeySpace TaskGraph::key_space(idx stride) {
  if (stride < 1) throw std::invalid_argument("key_space: stride must be >= 1");
  if (key_spaces_ == 15) {
    throw std::length_error("key_space: a graph has at most 15 key spaces");
  }
  ++key_spaces_;
  return KeySpace(BlockKey{key_spaces_} << 59, stride);
}

void TaskGraph::wait() {
  if (config_.num_threads == 0) {
    if (completed_.load(std::memory_order_relaxed) !=
        submitted_.load(std::memory_order_relaxed)) {
      throw std::logic_error("TaskGraph(inline): unfinished tasks at wait()");
    }
  } else {
    drain_all();
  }
  // Retire whatever the drain completed (sealed iterations only), so the
  // retire hooks run and memory() reflects the final footprint even when
  // the caller never blocked in wait_retired_iterations.
  if (iter_ != nullptr) advance_retired();
  // First error by task id wins; errors whose slots were recycled were
  // harvested in id order before their slabs went back on the free list.
  if (harvested_error_) std::rethrow_exception(harvested_error_);
  const std::size_t n = store_.size();
  for (auto i = static_cast<std::size_t>(store_.first_live_id()); i < n; ++i) {
    if (store_[static_cast<TaskId>(i)].error) {
      std::rethrow_exception(store_[static_cast<TaskId>(i)].error);
    }
  }
  // No task failed but the token fired: the results are incomplete (bodies
  // were skipped), which the caller must not mistake for success.
  if (config_.cancel.cancelled()) throw CancelledError();
}

std::vector<TaskRecord> TaskGraph::trace() const {
  const std::size_t n = store_.size();
  std::vector<TaskRecord> out = harvested_trace_;  // recycled slots' records
  out.reserve(n);
  for (auto i = static_cast<std::size_t>(store_.first_live_id()); i < n; ++i) {
    out.push_back(store_[static_cast<TaskId>(i)].record);
  }
  return out;
}

std::vector<TaskGraph::Edge> TaskGraph::edges() const { return edges_; }

TaskGraph::MemoryStats TaskGraph::memory() const {
  MemoryStats m;
  m.task_slot_bytes = static_cast<std::int64_t>(sizeof(Task));
  m.tasks_per_block = static_cast<std::int64_t>(TaskStore::kBlockSize);
  m.blocks_allocated = store_.blocks_allocated();
  m.blocks_recycled = store_.blocks_recycled();
  m.peak_task_store_bytes =
      m.blocks_allocated * m.tasks_per_block * m.task_slot_bytes;
  m.trace_records_harvested =
      static_cast<std::int64_t>(harvested_trace_.size());
  return m;
}

void TaskGraph::track_iterations(idx n_iterations) {
  if (n_iterations <= 0) {
    throw std::invalid_argument("track_iterations: need >= 1 iteration");
  }
  if (iter_ != nullptr || store_.size() != 0) {
    throw std::logic_error(
        "track_iterations must be called once, before the first submit");
  }
  auto it = std::make_unique<IterTrack>();
  it->n = n_iterations;
  const auto n = static_cast<std::size_t>(n_iterations);
  it->submitted.reset(new std::atomic<idx>[n]);
  it->done.reset(new std::atomic<idx>[n]);
  it->sealed.reset(new std::atomic<bool>[n]);
  for (std::size_t i = 0; i < n; ++i) {
    it->submitted[i].store(0, std::memory_order_relaxed);
    it->done[i].store(0, std::memory_order_relaxed);
    it->sealed[i].store(false, std::memory_order_relaxed);
  }
  it->first_id.assign(n, kNoTask);
  iter_ = std::move(it);
}

void TaskGraph::set_retire_hook(std::function<void(idx)> hook) {
  if (iter_ == nullptr) {
    throw std::logic_error("set_retire_hook requires track_iterations");
  }
  retire_hook_ = std::move(hook);
}

void TaskGraph::note_submit(int iteration, TaskId id) {
  IterTrack& it = *iter_;
  if (iteration < 0 || static_cast<idx>(iteration) >= it.n) {
    throw std::logic_error(
        "TaskGraph: tracked submit with iteration tag out of range");
  }
  if (iteration < last_iteration_seen_) {
    throw std::logic_error(
        "TaskGraph: iteration tags must be nondecreasing under tracking");
  }
  if (it.sealed[static_cast<std::size_t>(iteration)].load(
          std::memory_order_relaxed)) {
    throw std::logic_error("TaskGraph: submit into a sealed iteration");
  }
  last_iteration_seen_ = iteration;
  auto& slot = it.first_id[static_cast<std::size_t>(iteration)];
  if (slot == kNoTask) slot = id;
  std::atomic<idx>& total = it.submitted[static_cast<std::size_t>(iteration)];
  // Release so a completer that observes the sealed flag (stored after the
  // final total) also observes every total increment.
  total.store(total.load(std::memory_order_relaxed) + 1,
              std::memory_order_release);
}

void TaskGraph::note_complete(const Task& task) {
  // Read the tag BEFORE the done increment: the increment is the release
  // the retirement watermark acquires, after which the submission thread
  // may recycle this task's slab.
  const int k = task.opts.iteration;
  IterTrack& it = *iter_;
  assert(k >= 0 && static_cast<idx>(k) < it.n);
  const auto ki = static_cast<std::size_t>(k);
  const idx d = it.done[ki].fetch_add(1, std::memory_order_acq_rel) + 1;
  if (it.sealed[ki].load(std::memory_order_acquire) &&
      d == it.submitted[ki].load(std::memory_order_acquire)) {
    // Possibly the retirement frontier. The empty mutex bracket orders this
    // notify after any waiter's predicate evaluation, closing the classic
    // missed-wakeup window.
    { std::lock_guard<std::mutex> lock(it.mu); }
    it.cv.notify_all();
  }
}

idx TaskGraph::advance_retired() {
  IterTrack& it = *iter_;
  idx r = it.retired.load(std::memory_order_relaxed);
  bool advanced = false;
  // sealed / submitted are this thread's own writes (relaxed is enough);
  // done needs acquire to pair with the completers' release increments —
  // it makes every retired task's side effects, error slot and finished
  // flag visible before the hook runs or the slab is recycled.
  while (r < it.n &&
         it.sealed[static_cast<std::size_t>(r)].load(
             std::memory_order_relaxed) &&
         it.done[static_cast<std::size_t>(r)].load(std::memory_order_acquire) ==
             it.submitted[static_cast<std::size_t>(r)].load(
                 std::memory_order_relaxed)) {
    if (retire_hook_) retire_hook_(r);
    ++r;
    advanced = true;
  }
  if (advanced) {
    it.retired.store(r, std::memory_order_release);
    // Recycle every slab wholly below the first live iteration's first
    // task (everything submitted, if no live iteration has tasks yet).
    TaskId limit = static_cast<TaskId>(store_.size());
    for (idx k = r; k < it.n; ++k) {
      const TaskId fid = it.first_id[static_cast<std::size_t>(k)];
      if (fid != kNoTask) {
        limit = fid;
        break;
      }
    }
    store_.recycle_below(limit, [this](Task& t, TaskId) {
      if (config_.record_trace) harvested_trace_.push_back(t.record);
      if (t.error && !harvested_error_) harvested_error_ = t.error;
    });
  }
  return r;
}

void TaskGraph::seal_iterations(idx up_to_inclusive) {
  if (iter_ == nullptr) {
    throw std::logic_error("seal_iterations requires track_iterations");
  }
  IterTrack& it = *iter_;
  up_to_inclusive = std::min(up_to_inclusive, it.n - 1);
  // Release: a completer that acquires the flag must see the final
  // submitted-count for the iteration (stored before this).
  for (idx k = 0; k <= up_to_inclusive; ++k) {
    it.sealed[static_cast<std::size_t>(k)].store(true,
                                                 std::memory_order_release);
  }
}

idx TaskGraph::retired_iterations() const {
  return iter_ != nullptr ? iter_->retired.load(std::memory_order_acquire)
                          : idx{0};
}

void TaskGraph::wait_retired_iterations(idx r) {
  if (iter_ == nullptr) {
    throw std::logic_error("wait_retired_iterations requires track_iterations");
  }
  IterTrack& it = *iter_;
  r = std::min(r, it.n);
  if (r <= 0 || advance_retired() >= r) return;
  if (config_.num_threads == 0) {
    // Inline mode completes every task at submit, so a target that is still
    // unreached can never be reached by waiting.
    throw std::logic_error(
        "wait_retired_iterations(inline): target iteration not yet "
        "submitted and sealed");
  }
  std::unique_lock<std::mutex> lock(it.mu);
  it.cv.wait(lock, [this, r] { return advance_retired() >= r; });
}

SchedulerStats TaskGraph::stats() const {
  SchedulerStats s;
  s.workers.resize(static_cast<std::size_t>(exec_width_));
  for (std::size_t w = 0; w < s.workers.size(); ++w) {
    const Counters& c = counters_[w];
    WorkerStats& out = s.workers[w];
    out.tasks_executed = c.tasks_executed.load(std::memory_order_relaxed);
    out.tasks_skipped = c.tasks_skipped.load(std::memory_order_relaxed);
    out.local_pops = c.local_pops.load(std::memory_order_relaxed);
    out.inbox_drains = c.inbox_drains.load(std::memory_order_relaxed);
    out.wakeups_sent = c.wakeups_sent.load(std::memory_order_relaxed);
    out.busy_ns = c.busy_ns.load(std::memory_order_relaxed);
  }
  s.submit_wakeups = submit_wakeups_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace camult::rt
