// caqr.hpp — multithreaded CAQR (paper Algorithm 2).
//
// Right-looking QR over block columns. Each panel is factored by
// task-parallel TSQR; unlike CALU the panel is factored only once, and the
// reduction tree also drives the trailing-matrix updates: leaf updates apply
// each leaf's block reflector to its rows, node updates apply each tree
// node's reflector to the stacked b-row slices it combined.
//
// The Q factor is implicit: leaf reflector tails stay in the matrix, tree
// node reflectors live in the returned per-iteration factors; caqr_apply_q
// replays them.
#pragma once

#include <memory>
#include <vector>

#include "core/options.hpp"
#include "core/tsqr.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/worker_pool.hpp"

namespace camult::core {

struct CaqrOptions {
  idx b = 100;         ///< panel width (block size)
  idx tr = 4;          ///< panel task count T_r
  /// Constant added to every task priority (saturating); the svc layer maps
  /// QoS classes onto priority bands with it. See CaluOptions::priority_bias.
  int priority_bias = 0;
  ReductionTree tree = ReductionTree::Flat;  ///< paper's preferred CAQR tree
  /// Worker threads; 0 = inline serial (record mode). Defaults to the
  /// hardware concurrency clamped to [1, 32] — see rt::default_num_threads.
  int num_threads = rt::default_num_threads();
  /// Execute on this persistent WorkerPool instead of spawning threads for
  /// the call (see CaluOptions::pool for the exact semantics).
  rt::WorkerPool* pool = nullptr;
  bool lookahead = true;
  bool record_trace = true;
  /// Structured tpqrt kernels for binary-tree nodes (see TsqrOptions).
  /// Dense nodes and leaves have their reflector V2 packed once per
  /// iteration and shared by every S task; structured nodes have no
  /// larfb-shaped V2 and always run unpacked.
  bool structured_nodes = false;
  /// Numerical health monitoring: screen the input for non-finite entries
  /// and report max|R| / max|A| as the growth factor. Iteration 0's leaf
  /// and leaf-update tasks, which together tile the input, each screen
  /// their block before mutating it; collect merges the per-task results.
  /// Householder QR is unconditionally stable, so unlike CALU there is no
  /// degradation path — HealthReport::fallback_panels stays 0 — but a
  /// poisoned input is flagged instead of silently propagating.
  bool monitor = true;
  /// Cooperative cancellation (see CaluOptions::cancel).
  rt::CancelToken cancel{};
  /// Deterministic fault-injection hook (see CaluOptions::fault).
  rt::FaultInjector* fault = nullptr;
  /// Fault-decision salt (see CaluOptions::fault_salt).
  std::uint64_t fault_salt = 0;
  /// Scheduler counters surviving a throwing run (see
  /// CaluOptions::sched_out).
  rt::SchedulerStats* sched_out = nullptr;
  /// Sliding-window submission: at most `window` panel iterations in
  /// flight, retired iterations' task-store slabs and pack scratch
  /// recycled as the factorization streams (see CaluOptions::window — same
  /// semantics, bitwise-identical results). The per-iteration Q factors in
  /// CaqrResult::iterations are the output and are never recycled. 0 (the
  /// default) is one window spanning every panel; negative values throw
  /// std::invalid_argument.
  idx window = 0;
};

/// TSQR factors of one panel iteration; row offsets inside `part`, `leaves`
/// and `nodes` are relative to the panel top (row0).
struct CaqrIterationFactors {
  idx row0 = 0;  ///< panel top row (== left column)
  idx jb = 0;    ///< panel width
  RowPartition part;
  std::vector<TsqrLeaf> leaves;
  std::vector<TsqrNode> nodes;
};

struct CaqrResult {
  idx m = 0;
  idx n = 0;
  /// The run was cancelled before it finished. Only ever set on results
  /// returned by caqr_factor_batch (see CaluResult::cancelled); the single-
  /// problem caqr_factor keeps throwing rt::CancelledError.
  bool cancelled = false;
  std::vector<CaqrIterationFactors> iterations;
  std::vector<rt::TaskRecord> trace;
  std::vector<rt::TaskGraph::Edge> edges;
  /// Scheduler counters for the run (always filled).
  rt::SchedulerStats sched;
  /// Numerical health verdict (input screening + R growth; QR never falls
  /// back). Only populated when CaqrOptions::monitor is set.
  HealthReport health;
  /// Task-store / trace memory telemetry (always filled); see
  /// CaluResult::mem.
  rt::TaskGraph::MemoryStats mem;
};

/// Factor A = Q R in place: on exit the upper triangle holds R; the rest
/// holds leaf reflector tails referenced by the returned factors.
CaqrResult caqr_factor(MatrixView a, const CaqrOptions& opts = {});

/// An in-flight CAQR factorization — the submit/collect split the batch
/// driver and the svc job service are built on. Same contract as CaluAsync:
/// the constructor submits the first window of iterations (all of them with
/// window == 0; inline mode runs the submitted prefix in
/// the constructor), collect() pumps any remaining iterations, blocks for
/// the result, and may throw exactly like caqr_factor; destruction without
/// collect() drains and discards.
class CaqrAsync {
 public:
  CaqrAsync(MatrixView a, const CaqrOptions& opts);
  ~CaqrAsync();
  CaqrAsync(CaqrAsync&&) noexcept;
  CaqrAsync& operator=(CaqrAsync&&) noexcept;

  CaqrResult collect();
  bool collected() const { return impl_ == nullptr; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Factor every matrix in `as` (each in place, independent problems),
/// submitting all DAGs up front to one WorkerPool — opts.pool if set, else
/// a pool of opts.num_threads workers created for the batch. Results are
/// positional. opts.num_threads == 0 runs the batch inline, one problem at
/// a time. See calu_factor_batch.
std::vector<CaqrResult> caqr_factor_batch(const std::vector<MatrixView>& as,
                                          const CaqrOptions& opts = {});

/// C := Q C (NoTrans) or Q^T C (Trans); C has m rows. `a` is the factored
/// matrix.
void caqr_apply_q(blas::Trans trans, ConstMatrixView a,
                  const CaqrResult& factors, MatrixView c);

/// Thin explicit Q (m x min(m, n)).
Matrix caqr_explicit_q(ConstMatrixView a, const CaqrResult& factors);

/// The min(m,n) x n upper-trapezoidal R.
Matrix caqr_extract_r(ConstMatrixView a, const CaqrResult& factors);

/// Scaled residual ||A_orig - Q R||_F / (||A||_F * max(m,n) * eps).
double caqr_residual(ConstMatrixView a_orig, ConstMatrixView a_factored,
                     const CaqrResult& factors);

}  // namespace camult::core
