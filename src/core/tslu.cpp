#include "core/tslu.hpp"

#include <cassert>
#include <stdexcept>

#include "blas/blas.hpp"
#include "core/partition.hpp"
#include "core/tournament.hpp"
#include "lapack/getrf.hpp"
#include "lapack/laswp.hpp"

namespace camult::core {

void guarded_l_solve(ConstMatrixView lu, MatrixView x) {
  const idx b = std::min(lu.rows(), lu.cols());
  const idx m = x.rows();
  for (idx j = 0; j < b; ++j) {
    double* xj = x.col_ptr(j);
    for (idx i = 0; i < j; ++i) {
      const double uij = lu(i, j);
      if (uij == 0.0) continue;
      const double* xi = x.col_ptr(i);
      for (idx r = 0; r < m; ++r) xj[r] -= xi[r] * uij;
    }
    const double ujj = lu(j, j);
    if (ujj != 0.0) {
      const double inv = 1.0 / ujj;
      for (idx r = 0; r < m; ++r) xj[r] *= inv;
    }
  }
}

idx tslu_factor(MatrixView panel, PivotVector& ipiv, const TsluOptions& opts,
                HealthReport* health) {
  const idx m = panel.rows();
  const idx b = panel.cols();
  if (m < b) {
    throw std::invalid_argument("tslu_factor: panel must be tall (m >= b)");
  }

  // The screen describes the panel BEFORE anything mutates it, so absmax
  // is the input's and a NaN verdict cannot be an artifact of the
  // factorization itself. A tournament screens its leaves while copying
  // them (phase 1 only reads the panel); plain GEPP scans the panel first.
  const bool monitoring = opts.monitor || health != nullptr;
  PanelScreen scr;
  auto record = [&](double umax, bool fell_back) {
    if (health == nullptr) return;
    health->nan_detected = scr.nonfinite;
    health->max_growth = scr.absmax > 0.0 ? umax / scr.absmax : 0.0;
    if (fell_back) {
      health->fallback_panels = 1;
      health->fallback_list.assign(1, 0);
    }
  };

  const RowPartition part = partition_panel_rows(m, b, opts.tr, b);
  const idx leaves = part.count();
  if (leaves == 1) {
    // Degenerate tournament: plain GEPP.
    if (monitoring) scr = screen_panel(panel);
    const idx info = lapack::rgetf2(panel, ipiv);
    record(check_packed_lu(panel, b).umax, /*fell_back=*/false);
    return info;
  }

  // Phase 1: the tournament.
  std::vector<Candidates> slot(static_cast<std::size_t>(leaves));
  for (idx i = 0; i < leaves; ++i) {
    slot[static_cast<std::size_t>(i)] = tournament_leaf(
        panel.block(part.start[static_cast<std::size_t>(i)], 0,
                    part.rows[static_cast<std::size_t>(i)], b),
        part.start[static_cast<std::size_t>(i)], b);
  }
  for (const ReductionStep& step :
       reduction_schedule(static_cast<int>(leaves), opts.tree)) {
    std::vector<const Candidates*> srcs;
    srcs.reserve(step.sources.size());
    for (int s : step.sources) {
      srcs.push_back(&slot[static_cast<std::size_t>(s)]);
    }
    Candidates combined = tournament_combine(srcs, b);
    slot[static_cast<std::size_t>(step.sources.front())] =
        std::move(combined);
  }
  const Candidates& root = slot[0];
  assert(root.values.rows() == b);
  scr = root.screen;

  // Graceful degradation: the root's packed LU holds exactly the U_KK phase
  // 2 would install, so a degenerate outcome (zero pivot, or growth past
  // the limit) is known while the panel is still pristine — discard the
  // tournament and GEPP the whole panel instead of dividing by zero below.
  // A non-finite panel is never "rescued": GEPP on NaN is equally lost, so
  // it only gets flagged.
  if (monitoring) {
    const RootCheck rc = check_packed_lu(root.lu_top.view(), b);
    const bool fall_back =
        opts.monitor && !scr.nonfinite &&
        (rc.zero_pivot || (opts.growth_limit > 0.0 && scr.absmax > 0.0 &&
                           rc.umax > opts.growth_limit * scr.absmax));
    if (fall_back) {
      const idx info = lapack::rgetf2(panel, ipiv);
      record(check_packed_lu(panel, b).umax, /*fell_back=*/true);
      return info;
    }
    record(rc.umax, /*fell_back=*/false);
  }

  // Phase 2: move the winners to the top and factor.
  ipiv = winners_to_pivots(root.row_index, m);
  lapack::laswp(panel, 0, b, ipiv);

  // The root already factored the winning rows: reuse its packed LU as the
  // top b x b block (L_KK strictly below the diagonal, U_KK on and above).
  copy_into(root.lu_top.view(), panel.rows_range(0, b));

  idx info = 0;
  for (idx j = 0; j < b; ++j) {
    if (panel(j, j) == 0.0 && info == 0) info = j + 1;
  }

  // Remaining rows of L: solve L(b:m, :) * U_KK = A(b:m, :). With every
  // pivot nonzero this is a plain trsm; on the info != 0 path (monitor off,
  // or a non-finite panel the monitor refused to rescue) the guarded solve
  // skips the zero divides so the factors stay finite — info still reports
  // the first zero pivot, as in getf2.
  if (m > b) {
    if (info == 0) {
      blas::trsm(blas::Side::Right, blas::Uplo::Upper, blas::Trans::NoTrans,
                 blas::Diag::NonUnit, 1.0, panel.rows_range(0, b),
                 panel.rows_range(b, m - b));
    } else {
      guarded_l_solve(panel.rows_range(0, b), panel.rows_range(b, m - b));
    }
  }
  return info;
}

}  // namespace camult::core
