// panel_driver.hpp — the panel-DAG driver shared by CALU and CAQR.
//
// Both factorizations run the paper's protocol (Section III): the task DAG
// is built on the fly from block accesses, one panel iteration at a time,
// on the dynamic scheduler with look-ahead priorities. The driver owns
// everything but the tasks themselves:
//  * the TaskGraph built from the shared execution options (DriverOptions);
//  * the sliding-window pump: iteration k is submitted once iteration
//    k - window retired, its per-iteration dep keys wrap through a KeyRing,
//    and an optional tail (CALU's deferred left swaps) follows the last one;
//  * the retire hook and the collect path: pump, wait, sched_out on the
//    throwing path, and the trace / edges / scheduler / memory harvest;
//  * the one submit/collect handle (FactorJob) and the batch loop.
// CALU and CAQR supply submit_iteration(k), a retire action and a finish
// step that folds their per-task verdicts (info, health) into the result.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/lookahead.hpp"
#include "core/options.hpp"
#include "runtime/cancel.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/worker_pool.hpp"

namespace camult::core {

/// Execution options shared by CALU and CAQR (CaluOptions and CaqrOptions
/// derive from it).
struct DriverOptions {
  /// Panel width (block size); >= 1, clamped down to min(m, n).
  idx b = 100;
  /// Panel task count T_r: the reduction tree's leaf count; >= 1. For CALU,
  /// T_r = 1 gives one leaf per panel, which picks GEPP's pivots (blocked
  /// getrf's) while the panel fits one tournament chunk
  /// (core::tournament_chunk_rows); a taller panel's leaf runs a sequential
  /// flat tournament over its chunks.
  idx tr = 4;
  /// Constant added to every task priority (saturating, see
  /// biased_priority). The service layer (svc::Service) uses it to layer a
  /// job's whole look-ahead band structure into the QoS band of its client
  /// class; 0 keeps the plain lookahead.hpp bands.
  int priority_bias = 0;
  /// Worker threads; 0 = inline serial (record mode). Defaults to the
  /// hardware concurrency clamped to [1, 32] — see rt::default_num_threads.
  int num_threads = rt::default_num_threads();
  /// Execute on this persistent WorkerPool instead of spawning threads for
  /// the call (pool->size() workers; num_threads only distinguishes the
  /// 0 = inline case). The pool must outlive the call. nullptr = a private
  /// pool of num_threads workers that lives for the call.
  rt::WorkerPool* pool = nullptr;
  bool lookahead = true;  ///< look-ahead-of-1 priorities (paper Section III)
  bool record_trace = true;
  /// Numerical health monitoring (see HealthReport and the CaluOptions /
  /// CaqrOptions notes). Healthy inputs are bit-identical with the monitor
  /// on or off.
  bool monitor = true;
  /// Cooperative cancellation: request_cancel() on a copy of this token
  /// makes the run skip all remaining tasks and *_factor throw
  /// rt::CancelledError (see runtime/cancel.hpp).
  rt::CancelToken cancel{};
  /// Deterministic fault-injection hook forwarded to the TaskGraph (tests;
  /// see runtime/fault_inject.hpp). nullptr = the CAMULT_FAULT_SEED global.
  rt::FaultInjector* fault = nullptr;
  /// Salt folded into every fault decision (see rt::FaultInjector::decide):
  /// 0 reproduces the unsalted stream; the svc layer passes the retry
  /// attempt index so retried jobs draw independent fault streams.
  std::uint64_t fault_salt = 0;
  /// When non-null, receives the run's scheduler counters even if a task
  /// threw (*_factor then propagates the exception and the result — and
  /// its `sched` member — is lost; this is the only way to observe how much
  /// of the DAG a fast-abort actually skipped).
  rt::SchedulerStats* sched_out = nullptr;
  /// Sliding-window submission: keep at most `window` panel iterations in
  /// flight, submitting iteration k only once iteration k - window has
  /// fully retired, and recycling the retired prefix's task-store slabs,
  /// dep keys and per-iteration scratch. Peak runtime memory becomes
  /// O(window) instead of O(n_panels) while the factorization is bitwise
  /// unchanged. 0 (the default) is one window spanning every panel: the
  /// whole DAG is submitted up front through the same pump. See
  /// docs/runtime.md § Sliding-window submission.
  idx window = 0;
};

/// Result fields shared by CALU and CAQR.
struct DriverResult {
  /// The run was cancelled (DriverOptions::cancel fired) before it
  /// finished. Only ever set on results returned by *_factor_batch — the
  /// single-problem *_factor keeps throwing rt::CancelledError. A cancelled
  /// result carries valid sched counters but no usable factorization.
  bool cancelled = false;
  /// Executed task trace and DAG edges (for Gantt rendering and the
  /// simulated-multicore replayer). Empty if record_trace is false.
  std::vector<rt::TaskRecord> trace;
  std::vector<rt::TaskGraph::Edge> edges;
  /// Scheduler counters for the run (always filled).
  rt::SchedulerStats sched;
  /// Numerical health verdict. Only populated when DriverOptions::monitor
  /// is set.
  HealthReport health;
  /// Task-store / trace memory telemetry (always filled): peak task-store
  /// bytes, slabs allocated vs recycled, trace records harvested from
  /// retired slabs. Windowed runs keep peak_task_store_bytes O(window).
  rt::TaskGraph::MemoryStats mem;
};

/// The driver: one factorization's graph, window pump and collect path.
/// A factorization derives (through FactorJob) and submits its tasks with
/// add(); see the file comment for the split.
class PanelDriver {
 public:
  PanelDriver(const PanelDriver&) = delete;
  PanelDriver& operator=(const PanelDriver&) = delete;
  virtual ~PanelDriver() = default;

  /// Submit the first window of iterations (all of them with window == 0;
  /// inline mode runs them here). Called once the factorization is built.
  void start() { pump(window_); }

 protected:
  /// Rejects b < 1, tr < 1 and window < 0 with std::invalid_argument before
  /// anything touches `a`, then builds the graph.
  PanelDriver(MatrixView a, const DriverOptions& opts);

  /// Submit every task of panel iteration k.
  virtual void submit_iteration(idx k) = 0;
  /// Tasks riding in the last iteration after it (CALU's left swaps).
  virtual void submit_tail() {}
  /// Free the per-iteration state of retired iteration k (submission
  /// thread; never while a task of iteration k can still run).
  virtual void retire(idx k) = 0;

  /// Submit one task of iteration k (nondecreasing across calls) with the
  /// options' priority bias applied.
  void add(const std::vector<rt::BlockAccess>& acc, rt::TaskKind kind, idx k,
           int priority, std::string label, std::function<void()> fn);
  /// The dependency-key iteration index of iteration k (its KeyRing slot).
  idx key_iter(idx k) const { return ring_.slot(k); }
  /// Pump the rest, wait, and harvest trace / edges / stats / memory into
  /// `r`. On a throw, sched_out still receives the counters.
  void run_to_end(DriverResult& r);
  /// Drain and destroy the graph. The most-derived destructor calls it
  /// first, since pending tasks point into the derived members.
  void stop() { graph_.reset(); }

  MatrixView a_;
  DriverOptions exec_;
  idx m_ = 0, n_ = 0, k_total_ = 0, b_ = 0;
  idx n_panels_ = 0, n_blocks_ = 0, m_blocks_ = 0;
  /// Keys per iteration of a leaf-indexed key space: partition_panel_rows
  /// returns at most min(tr, m_blocks) leaves (leaf boundaries are
  /// multiples of b), and a reduction schedule has fewer steps than leaves,
  /// so this stride holds every slot for any user-supplied tr.
  idx slots_ = 0;
  idx window_ = 0;  ///< iterations in flight, in [1, n_panels]
  LookaheadPriorities prio_;
  std::unique_ptr<rt::TaskGraph> graph_;

 private:
  /// Advance the pump until iteration `stop` (exclusive) is submitted, then
  /// the tail once every iteration is in. Iteration k is only submitted
  /// after iteration k - window retired, and is sealed as soon as its last
  /// task is in (the last one after the tail) so completions can retire
  /// it. On a failure or cancellation the pump stops submitting — skipped
  /// tasks still complete, so the retired prefix stays consistent and
  /// wait() reports the error.
  void pump(idx stop);

  KeyRing ring_;
  idx next_k_ = 0;  ///< first not-yet-submitted iteration
  bool tail_done_ = false;
};

/// A submitted factorization: the one submit/collect handle. calu_submit /
/// caqr_submit return it with its first window in flight (threaded mode
/// returns at once; inline mode has run it); collect() pumps the rest,
/// blocks, and returns the result or throws exactly like *_factor (task
/// error, rt::CancelledError). The matrix storage must stay alive and
/// untouched until collect() or destruction; destruction without collect()
/// drains the graph and discards the result. Not thread-safe.
template <class Result>
class FactorJob : public PanelDriver {
 public:
  Result collect() {
    if (collected_) throw std::logic_error("FactorJob::collect called twice");
    collected_ = true;
    run_to_end(result_);
    finish();
    return std::move(result_);
  }

 protected:
  using PanelDriver::PanelDriver;
  /// Fold the per-task verdicts into result_ once the graph drained.
  virtual void finish() = 0;

  Result result_;

 private:
  bool collected_ = false;
};

/// The batch loop behind calu_factor_batch / caqr_factor_batch: every DAG
/// submitted up front to ONE WorkerPool — opts.pool if set, else a pool of
/// opts.num_threads workers created for the batch — then collected in
/// order. Inline mode (num_threads == 0) runs one problem at a time. A
/// fired cancel token yields per-job cancelled results carrying their own
/// run's scheduler counters (completed prefix intact) instead of throwing
/// the whole batch away; task errors still propagate. A caller-supplied
/// sched_out ends up holding the last job's counters.
template <class Result, class Options>
std::vector<Result> factor_batch(
    const std::vector<MatrixView>& as, Options opts,
    std::unique_ptr<FactorJob<Result>> (*submit)(MatrixView,
                                                 const Options&)) {
  // Inline mode executes tasks at submit time on this thread; batching
  // would just interleave serial work.
  const bool overlap = opts.num_threads != 0 && as.size() > 1;
  std::unique_ptr<rt::WorkerPool> owned;
  if (overlap && opts.pool == nullptr) {
    owned = std::make_unique<rt::WorkerPool>(
        rt::WorkerPoolConfig{opts.num_threads, false});
    opts.pool = owned.get();
  }
  std::vector<rt::SchedulerStats> scheds(as.size());
  std::vector<std::unique_ptr<FactorJob<Result>>> jobs(as.size());
  auto submit_one = [&](std::size_t i) {
    Options jopts = opts;
    jopts.sched_out = &scheds[i];
    jobs[i] = submit(as[i], jopts);
  };
  // Submitting every DAG before collecting any lets the pool's workers
  // rotate between the attached graphs: the whole batch runs concurrently.
  if (overlap) {
    for (std::size_t i = 0; i < as.size(); ++i) submit_one(i);
  }
  std::vector<Result> out;
  out.reserve(as.size());
  for (std::size_t i = 0; i < as.size(); ++i) {
    try {
      if (!overlap) submit_one(i);
      out.push_back(jobs[i]->collect());
    } catch (const rt::CancelledError&) {
      Result r;
      r.cancelled = true;
      r.sched = scheds[i];
      out.push_back(std::move(r));
    }
    jobs[i].reset();
    if (opts.sched_out != nullptr) *opts.sched_out = scheds[i];
  }
  return out;
}

}  // namespace camult::core
