// calu.hpp — multithreaded CALU (paper Algorithm 1).
//
// Right-looking LU over block columns. Each panel is factored by
// task-parallel TSLU (tournament pivoting over a reduction tree); the
// trailing matrix is updated by independent U (triangular solve) and S
// (gemm) tasks. All tasks run on the dynamic runtime with dependencies
// inferred from block accesses, and the look-ahead-of-1 priority policy
// keeps the panel factorization's critical path hot.
//
// Row interchanges to the right of the panel are applied inside the U tasks;
// interchanges to the left are deferred and applied by per-column cleanup
// tasks at the end, exactly as in the paper (Algorithm 1, line 41).
#pragma once

#include <memory>
#include <vector>

#include "core/options.hpp"
#include "lapack/getrf.hpp"
#include "matrix/permutation.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/worker_pool.hpp"

namespace camult::core {

struct CaluOptions {
  idx b = 100;         ///< panel width (block size)
  /// Panel task count T_r: the tournament's leaf count. T_r = 1 gives one
  /// leaf per panel, which picks GEPP's pivots (blocked getrf's) while the
  /// panel fits one tournament chunk (core::tournament_chunk_rows); a
  /// taller panel's leaf runs a sequential flat tournament over its chunks.
  idx tr = 4;
  /// Constant added to every task priority (saturating). The service layer
  /// (svc::Service) uses it to layer a job's whole look-ahead band structure
  /// into the QoS band of its client class; 0 keeps the plain lookahead.hpp
  /// bands. See LookaheadPriorities::biased.
  int priority_bias = 0;
  ReductionTree tree = ReductionTree::Binary;
  /// GEPP kernel inside the tournament (see TsluOptions::leaf_kernel).
  lapack::LuPanelKernel leaf_kernel = lapack::LuPanelKernel::Recursive;
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
  /// The paper's Section V future-work extension: perform the trailing
  /// update on column super-blocks of `update_cols_per_task` panels (B =
  /// this * b), reducing the task count and improving BLAS-3 granularity at
  /// the cost of available parallelism. 1 = the paper's base algorithm.
  /// Each leaf's L block is packed once per iteration and shared by every
  /// S task of that iteration, whatever the grouping.
  idx update_cols_per_task = 1;
  /// Numerical health monitoring with graceful degradation (see
  /// HealthReport): screen each panel before mutating it, track per-panel
  /// pivot growth, and refactor a panel with full-panel GEPP when the
  /// tournament elects a zero pivot or exceeds growth_limit. The screen
  /// runs inside the tournament leaf tasks, in the loop that copies each
  /// leaf's block, and reaches the pivot task merged up the tree; nothing
  /// scans the panel serially. Healthy inputs are bit-identical with the
  /// monitor on or off (screening only reads).
  bool monitor = true;
  /// Growth threshold for the fallback; <= 0 disables the growth trigger
  /// (zero pivots still fall back). See TsluOptions::growth_limit.
  double growth_limit = 1e12;
  /// Cooperative cancellation: request_cancel() on a copy of this token
  /// makes the run skip all remaining tasks and calu_factor throw
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
  /// threw (calu_factor then propagates the exception and the result — and
  /// its `sched` member — is lost; this is the only way to observe how much
  /// of the DAG a fast-abort actually skipped).
  rt::SchedulerStats* sched_out = nullptr;
  /// Sliding-window submission: keep at most `window` panel iterations in
  /// flight, submitting iteration k only once iteration k - window has
  /// fully retired, and recycling the retired prefix's task-store slabs,
  /// dep keys, and tournament/pack buffers. Peak runtime memory becomes
  /// O(window) instead of O(n_panels) while the factorization is bitwise
  /// unchanged. 0 (the default) is one window spanning every panel: the
  /// whole DAG is submitted up front through the same pump. Negative values
  /// make calu_factor / CaluAsync throw std::invalid_argument. See
  /// docs/runtime.md § Sliding-window submission.
  idx window = 0;
};

struct CaluResult {
  /// Global LAPACK-convention swap sequence (length min(m, n)).
  PivotVector ipiv;
  /// 0, or 1-based index of the first exactly-zero pivot.
  idx info = 0;
  /// The run was cancelled (CaluOptions::cancel fired) before it finished.
  /// Only ever set on results returned by calu_factor_batch — the single-
  /// problem calu_factor keeps throwing rt::CancelledError. A cancelled
  /// result carries valid sched counters but no usable factorization.
  bool cancelled = false;
  /// Executed task trace and DAG edges (for Gantt rendering and the
  /// simulated-multicore replayer). Empty if record_trace is false.
  std::vector<rt::TaskRecord> trace;
  std::vector<rt::TaskGraph::Edge> edges;
  /// Scheduler counters for the run (always filled).
  rt::SchedulerStats sched;
  /// Numerical health verdict (screening, per-panel growth, GEPP
  /// fallbacks). Only populated when CaluOptions::monitor is set.
  HealthReport health;
  /// Task-store / trace memory telemetry (always filled): peak task-store
  /// bytes, slabs allocated vs recycled, trace records harvested from
  /// retired slabs. Windowed runs keep peak_task_store_bytes O(window).
  rt::TaskGraph::MemoryStats mem;
};

/// Factor A = P L U in place (same storage convention as getrf).
CaluResult calu_factor(MatrixView a, const CaluOptions& opts = {});

/// An in-flight CALU factorization: the constructor builds the task DAG and
/// submits its first window of iterations (all of them with window == 0;
/// collect() pumps the rest as earlier iterations retire) and
/// returns immediately in pool/real-thread mode; inline mode runs the
/// submitted prefix in the constructor. collect() blocks for the result.
/// This is the submit/collect split the batch driver and the svc job service
/// are built on — submit many, overlap their execution on one WorkerPool,
/// collect in any order.
///
/// The matrix storage must stay alive and untouched until collect() (or
/// destruction); destruction without collect() drains the graph and discards
/// the result. Not thread-safe; movable, not copyable. collect() may throw
/// exactly like calu_factor (task error, rt::CancelledError) and must be
/// called at most once.
class CaluAsync {
 public:
  CaluAsync(MatrixView a, const CaluOptions& opts);
  ~CaluAsync();
  CaluAsync(CaluAsync&&) noexcept;
  CaluAsync& operator=(CaluAsync&&) noexcept;

  CaluResult collect();
  bool collected() const { return impl_ == nullptr; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Factor every matrix in `as` (each in place, independent problems). All
/// DAGs are submitted up front to ONE WorkerPool — opts.pool if set, else a
/// pool of opts.num_threads workers created for the batch — so small
/// factorizations share workers instead of serializing thread spawn/join
/// per call. Results are positional. opts.num_threads == 0 runs the batch
/// inline, one problem at a time.
std::vector<CaluResult> calu_factor_batch(const std::vector<MatrixView>& as,
                                          const CaluOptions& opts = {});

}  // namespace camult::core
