// caqr.hpp — multithreaded CAQR (paper Algorithm 2).
//
// Right-looking QR over block columns. Each panel is factored by
// task-parallel TSQR; unlike CALU the panel is factored only once, and the
// reduction tree also drives the trailing-matrix updates: leaf updates apply
// each leaf's block reflectors to its rows, node updates apply each tree
// node's reflector to the stacked b-row slices it combined. A leaf taller
// than tsqr_chunk_rows(jb) rows is a sequential flat TSQR over its chunks
// inside its one leaf task (see tsqr_leaf_kernel), so the DAG does not
// depend on the chunking.
//
// The Q factor is implicit: leaf reflector tails stay in the matrix, tree
// node reflectors live in the returned per-iteration factors; caqr_apply_q
// replays them (a chunked leaf's chunks forward for Q^T, backward for Q).
#pragma once

#include <memory>
#include <vector>

#include "core/options.hpp"
#include "core/panel_driver.hpp"
#include "core/tsqr.hpp"

namespace camult::core {

/// CAQR options: the shared execution options plus the tree's. With
/// `monitor` (see DriverOptions) the input is screened for non-finite
/// entries and max|R| / max|A| is reported as the growth factor: iteration
/// 0's leaf and leaf-update tasks, which together tile the input, each
/// screen their block before mutating it (a leaf screens each chunk just
/// before factoring it), and collect merges the per-task results. Householder QR is unconditionally stable, so unlike CALU there
/// is no degradation path — HealthReport::fallback_panels stays 0 — but a
/// poisoned input is flagged instead of silently propagating. Windowed runs
/// never recycle the per-iteration Q factors in CaqrResult::iterations.
struct CaqrOptions : DriverOptions {
  ReductionTree tree = ReductionTree::Flat;  ///< paper's preferred CAQR tree
  /// Structured tpqrt kernels for binary-tree nodes (see TsqrOptions).
  /// Dense nodes and leaves have their reflector V2 packed once per
  /// iteration and shared by every S task; structured nodes have no
  /// larfb-shaped V2 and always run unpacked.
  bool structured_nodes = false;
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

/// `health` reports input screening and R growth; QR never falls back.
struct CaqrResult : DriverResult {
  idx m = 0;
  idx n = 0;
  std::vector<CaqrIterationFactors> iterations;
};

/// Factor A = Q R in place: on exit the upper triangle holds R; the rest
/// holds leaf reflector tails referenced by the returned factors.
CaqrResult caqr_factor(MatrixView a, const CaqrOptions& opts = {});

/// Submit a CAQR factorization and return its handle (see FactorJob).
std::unique_ptr<FactorJob<CaqrResult>> caqr_submit(MatrixView a,
                                                   const CaqrOptions& opts);

/// Factor every matrix in `as` (each in place, independent problems) with
/// the batch loop of factor_batch. Results are positional.
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
