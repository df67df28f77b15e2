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
#include "core/panel_driver.hpp"
#include "matrix/permutation.hpp"

namespace camult::core {

/// CALU options: the shared execution options plus the tournament's.
/// With `monitor` (see DriverOptions) each panel is screened before it is
/// mutated, per-panel pivot growth is tracked, and a panel is refactored
/// with full-panel GEPP when the tournament elects a zero pivot or exceeds
/// growth_limit. The screen runs inside the tournament leaf tasks, in the
/// loop that copies each leaf's block, and reaches the pivot task merged up
/// the tree; nothing scans the panel serially.
struct CaluOptions : DriverOptions {
  ReductionTree tree = ReductionTree::Binary;
  /// The paper's Section V future-work extension: perform the trailing
  /// update on column super-blocks of `update_cols_per_task` panels (B =
  /// this * b), reducing the task count and improving BLAS-3 granularity at
  /// the cost of available parallelism. 1 = the paper's base algorithm.
  /// Each leaf's L block is packed once per iteration and shared by every
  /// S task of that iteration, whatever the grouping.
  idx update_cols_per_task = 1;
  /// Growth threshold for the fallback; <= 0 disables the growth trigger
  /// (zero pivots still fall back). See TsluOptions::growth_limit.
  double growth_limit = 1e12;
};

struct CaluResult : DriverResult {
  /// Global LAPACK-convention swap sequence (length min(m, n)).
  PivotVector ipiv;
  /// 0, or 1-based index of the first exactly-zero pivot.
  idx info = 0;
};

/// Factor A = P L U in place (same storage convention as getrf).
CaluResult calu_factor(MatrixView a, const CaluOptions& opts = {});

/// Submit a CALU factorization and return its handle (see FactorJob):
/// submit many, overlap their execution on one WorkerPool, collect in any
/// order.
std::unique_ptr<FactorJob<CaluResult>> calu_submit(MatrixView a,
                                                   const CaluOptions& opts);

/// Factor every matrix in `as` (each in place, independent problems) with
/// the batch loop of factor_batch: all DAGs share one WorkerPool instead of
/// serializing thread spawn/join per call. Results are positional.
std::vector<CaluResult> calu_factor_batch(const std::vector<MatrixView>& as,
                                          const CaluOptions& opts = {});

}  // namespace camult::core
