#include "core/calu.hpp"

#include <memory>
#include <string>
#include <utility>

#include "blas/blas.hpp"
#include "core/partition.hpp"
#include "core/tournament.hpp"
#include "core/tslu.hpp"
#include "lapack/getrf.hpp"
#include "lapack/laswp.hpp"

namespace camult::core {
namespace {

using rt::AccessMode;
using rt::BlockAccess;
using rt::TaskKind;

// Per-iteration shared state, kept alive until the graph drains.
struct IterState {
  RowPartition part;             // panel row partition (panel-relative)
  std::vector<Candidates> slot;  // tournament slots
  PivotVector piv;               // panel-local swap sequence
  // Packed L block per leaf, built by the iteration's pack tasks and read
  // (concurrently) by its S tasks; an end-of-iteration task returns the
  // slabs to the buffer pool so iteration k+1's packs reuse them.
  std::vector<blas::PackedPanel> lpack;
  idx jb = 0;
  // The health monitor refactored this panel with full GEPP inside the
  // pivot task; the L tasks (whose work GEPP already did) become no-ops.
  // Plain bool: written by the pivot task, read by tasks ordered after it
  // through the panel-tile dependency edges.
  bool fell_back = false;
};

// Per-panel health verdict, single-writer (panel k's pivot task), read at
// collect after the graph drained.
struct PanelHealthSlot {
  double growth = 0.0;
  bool nonfinite = false;
  bool fell_back = false;
};

// Task lambdas hold raw pointers into result_.ipiv, the panel_info_ /
// panel_health_ slots and the IterStates, so the job never moves between
// submit and collect (calu_submit heap-allocates it).
class CaluJob final : public FactorJob<CaluResult> {
 public:
  CaluJob(MatrixView a, const CaluOptions& opts)
      : FactorJob<CaluResult>(a, opts), opts_(opts) {
    // Dependency keys of per-iteration state: tournament candidate slots,
    // the pivot decision, and one packed L block per leaf. The iteration
    // index is a KeyRing slot (the spaces wrap modulo window + 2 — see
    // lookahead.hpp; a window spanning every panel never wraps).
    cand_ = graph_->key_space(slots_);
    piv_ = graph_->key_space(1);
    pack_ = graph_->key_space(slots_);
    result_.ipiv.assign(static_cast<std::size_t>(k_total_), 0);
    panel_info_.assign(static_cast<std::size_t>(n_panels_), 0);
    panel_health_.assign(static_cast<std::size_t>(n_panels_),
                         PanelHealthSlot{});
    iters_.reserve(static_cast<std::size_t>(n_panels_));
  }
  ~CaluJob() override { stop(); }  // drain before the members go

 private:
  void submit_iteration(idx k) override;
  void submit_tail() override;
  void retire(idx k) override;
  void finish() override;

  const CaluOptions opts_;
  rt::KeySpace cand_, piv_, pack_;
  std::vector<idx> panel_info_;
  std::vector<PanelHealthSlot> panel_health_;
  std::vector<std::unique_ptr<IterState>> iters_;
};

// Submit every task of panel iteration k (tournament, pivot, L, pack, U, S,
// pack release). Identical task bodies, priorities, and dependency structure
// whatever the window — only the dep-key indices wrap through the KeyRing,
// which resolves to the same edges because the previous slot owner has
// retired.
void CaluJob::submit_iteration(idx k) {
  MatrixView a = a_;
  const idx m = m_;
  const idx b = b_;
  const idx kr = key_iter(k);
  const idx row0 = k * b;                       // panel top row
  const idx jb = std::min(b, k_total_ - row0);  // panel width
  const idx col0 = row0;                        // panel left column
  const idx panel_rows = m - row0;
  const idx kb = row0 / b;                      // block row/col index

  auto st = std::make_unique<IterState>();
  st->jb = jb;
  st->part = partition_panel_rows(panel_rows, b, opts_.tr, jb);
  const idx leaves = st->part.count();
  st->slot.resize(static_cast<std::size_t>(leaves));
  st->lpack.resize(static_cast<std::size_t>(leaves));
  IterState* S = st.get();
  iters_.push_back(std::move(st));

  MatrixView panel = a.block(row0, col0, panel_rows, jb);
  // Tile rows [lstart, lstart + lrows) of the panel, in tile column j.
  auto leaf_tiles = [&](std::vector<BlockAccess>& acc, idx lstart, idx lrows,
                        idx j, AccessMode mode) {
    rt::add_tile_range(acc, kb + lstart / b, kb + (lstart + lrows + b - 1) / b,
                       j, mode);
  };
  // Rows (start, count) of leaf i below the top jb rows, which hold the
  // L_KK/U_KK the pivot task installs.
  auto lower_rows = [&](idx i) {
    const auto u = static_cast<std::size_t>(i);
    const idx top = i == 0 ? jb : 0;
    return std::pair<idx, idx>{S->part.start[u] + top, S->part.rows[u] - top};
  };

  // --- Task P (leaves): tournament round 1.
  for (idx i = 0; i < leaves; ++i) {
    const idx lstart = S->part.start[static_cast<std::size_t>(i)];
    const idx lrows = S->part.rows[static_cast<std::size_t>(i)];
    std::vector<BlockAccess> acc;
    leaf_tiles(acc, lstart, lrows, kb, AccessMode::Read);
    acc.push_back({cand_.key(kr, i), AccessMode::Write});
    add(acc, TaskKind::Panel, k, prio_.panel(k), "leaf" + std::to_string(i),
        [S, panel, lstart, lrows, i, b]() {
          S->slot[static_cast<std::size_t>(i)] = tournament_leaf(
              panel.block(lstart, 0, lrows, panel.cols()), lstart, b);
        });
  }

  // --- Task P (tree nodes).
  for (const ReductionStep& step :
       reduction_schedule(static_cast<int>(leaves), opts_.tree)) {
    std::vector<BlockAccess> acc;
    acc.push_back({cand_.key(kr, step.sources.front()), AccessMode::ReadWrite});
    for (std::size_t s = 1; s < step.sources.size(); ++s) {
      acc.push_back({cand_.key(kr, step.sources[s]), AccessMode::Read});
    }
    std::vector<int> sources = step.sources;
    add(acc, TaskKind::Panel, k, prio_.panel(k),
        "node l" + std::to_string(step.level), [S, sources, b]() {
          std::vector<const Candidates*> srcs;
          srcs.reserve(sources.size());
          for (int s : sources) {
            srcs.push_back(&S->slot[static_cast<std::size_t>(s)]);
          }
          Candidates combined = tournament_combine(srcs, b);
          S->slot[static_cast<std::size_t>(sources.front())] =
              std::move(combined);
        });
  }

  // --- Task P (pivot placement): build the swap sequence, swap the panel
  // rows, install the root's packed LU as the top jb x jb block.
  {
    std::vector<BlockAccess> acc;
    acc.push_back({cand_.key(kr, 0), AccessMode::Read});
    acc.push_back({piv_.key(kr), AccessMode::Write});
    rt::add_tile_range(acc, kb, m_blocks_, kb, AccessMode::ReadWrite);
    PivotVector* global_ipiv = &result_.ipiv;
    idx* info_slot = &panel_info_[static_cast<std::size_t>(k)];
    PanelHealthSlot* hslot = &panel_health_[static_cast<std::size_t>(k)];
    const bool monitor = opts_.monitor;
    const double growth_limit = opts_.growth_limit;
    add(acc, TaskKind::Panel, k, prio_.panel(k), "pivot",
        [S, panel, row0, jb, global_ipiv, info_slot, hslot, monitor,
         growth_limit]() {
          const Candidates& root = S->slot[0];
          // Health decision point: the tournament only READ the panel, and
          // the root's packed LU is exactly the U_KK about to be installed
          // — so a degenerate outcome (zero pivot / growth past the limit)
          // is known while a full-panel GEPP retry is still possible. The
          // root's screen is the leaves' screens of the untouched panel,
          // merged up the tree. A non-finite panel is flagged but never
          // "rescued" (GEPP on NaN is equally lost).
          const PanelScreen& scr = root.screen;
          RootCheck rc = check_packed_lu(root.lu_top.view(), jb);
          const bool fall_back =
              monitor && !scr.nonfinite &&
              (rc.zero_pivot || (growth_limit > 0.0 && scr.absmax > 0.0 &&
                                 rc.umax > growth_limit * scr.absmax));
          if (fall_back) {
            S->fell_back = true;
            const idx inf = lapack::rgetf2(panel, S->piv);
            if (inf != 0) *info_slot = row0 + inf;
            // GEPP factored the whole panel (the L tasks become no-ops);
            // re-measure growth from the factors it actually produced.
            rc = check_packed_lu(panel, jb);
          } else {
            S->piv = winners_to_pivots(root.row_index, panel.rows());
            lapack::laswp(panel, 0, jb, S->piv);
            copy_into(root.lu_top.view().block(0, 0, jb, jb),
                      panel.rows_range(0, jb));
            for (idx j = 0; j < jb; ++j) {
              if (panel(j, j) == 0.0 && *info_slot == 0) {
                *info_slot = row0 + j + 1;
              }
            }
          }
          for (idx j = 0; j < jb; ++j) {
            (*global_ipiv)[static_cast<std::size_t>(row0 + j)] =
                row0 + S->piv[static_cast<std::size_t>(j)];
          }
          if (monitor) {
            hslot->nonfinite = scr.nonfinite;
            hslot->fell_back = fall_back;
            hslot->growth = scr.absmax > 0.0 ? rc.umax / scr.absmax : 0.0;
          }
        });
  }

  // --- Task L: remaining rows of the panel's L factor, one task per leaf.
  for (idx i = 0; i < leaves; ++i) {
    const auto [lstart, lrows] = lower_rows(i);
    if (lrows <= 0) continue;
    std::vector<BlockAccess> acc;
    acc.push_back({rt::block_key(kb, kb), AccessMode::Read});  // U_KK
    leaf_tiles(acc, lstart, lrows, kb, AccessMode::ReadWrite);
    idx* info_slot = &panel_info_[static_cast<std::size_t>(k)];
    add(acc, TaskKind::LFactor, k, prio_.lfactor(k), "L" + std::to_string(i),
        [S, panel, lstart, lrows, jb, info_slot]() {
          // Ordered after the pivot task through the panel-tile edges, so
          // both flags are stable here. A fallback panel was fully factored
          // by GEPP already; a singular U_KK (monitor off / non-finite
          // input) takes the guarded solve so the factors stay finite.
          if (S->fell_back) return;
          if (*info_slot == 0) {
            blas::trsm(blas::Side::Right, blas::Uplo::Upper,
                       blas::Trans::NoTrans, blas::Diag::NonUnit, 1.0,
                       panel.rows_range(0, jb),
                       panel.rows_range(lstart, lrows));
          } else {
            guarded_l_solve(panel.rows_range(0, jb),
                            panel.rows_range(lstart, lrows));
          }
        });
  }

  // Trailing column segments, grouped into super-blocks of
  // update_cols_per_task panels (the Section V "B > b" extension; 1
  // recovers the base algorithm).
  const std::vector<rt::ColSegment> segments = rt::trailing_segments(
      col0, jb, b, n_, opts_.update_cols_per_task);

  // --- Pack tasks: copy each leaf's L block into microkernel panel layout
  // ONCE; every S task of this iteration then consumes the shared
  // read-only pack instead of repacking L per column segment. The pack
  // reads the L tiles (ordering it after the L tasks and before the
  // deferred left swaps, which see the tiles' post-update values) and
  // publishes the pack key the S tasks read.
  const bool pack_here = !segments.empty();
  if (pack_here) {
    for (idx i = 0; i < leaves; ++i) {
      const auto [lstart, lrows] = lower_rows(i);
      if (lrows <= 0) continue;
      std::vector<BlockAccess> acc;
      leaf_tiles(acc, lstart, lrows, kb, AccessMode::Read);
      acc.push_back({pack_.key(kr, i), AccessMode::Write});
      MatrixView lblk = a.block(row0 + lstart, col0, lrows, jb);
      // Critical path ahead of the S's.
      add(acc, TaskKind::Generic, k, prio_.lfactor(k),
          "pack i" + std::to_string(i), [S, lblk, i]() {
            S->lpack[static_cast<std::size_t>(i)] =
                blas::pack_a(lblk, blas::Trans::NoTrans);
          });
    }
  }

  // --- Task U per trailing column segment: permute, then triangular
  // solve.
  for (const rt::ColSegment& seg : segments) {
    std::vector<BlockAccess> acc;
    acc.push_back({piv_.key(kr), AccessMode::Read});
    acc.push_back({rt::block_key(kb, kb), AccessMode::Read});  // L_KK
    for (idx j2 = seg.jblk; j2 < seg.jend; ++j2) {
      rt::add_tile_range(acc, kb, m_blocks_, j2, AccessMode::ReadWrite);
    }
    MatrixView col = a.block(row0, seg.col0, panel_rows, seg.cols);
    MatrixView lkk = a.block(row0, col0, jb, jb);
    add(acc, TaskKind::UFactor, k, prio_.ufactor(k, seg.jblk),
        "U j" + std::to_string(seg.jblk), [S, col, lkk, jb]() {
          lapack::laswp(col, 0, jb, S->piv);
          blas::trsm(blas::Side::Left, blas::Uplo::Lower,
                     blas::Trans::NoTrans, blas::Diag::Unit, 1.0, lkk,
                     col.rows_range(0, jb));
        });
  }

  // --- Task S per (leaf, trailing column segment): gemm update.
  for (const rt::ColSegment& seg : segments) {
    for (idx i = 0; i < leaves; ++i) {
      const auto [lstart, lrows] = lower_rows(i);
      if (lrows <= 0) continue;
      // The packed copy replaces the L tiles as the data source; the Read
      // on the pack key inherits the ordering the pack task set up.
      std::vector<BlockAccess> acc;
      acc.push_back({pack_.key(kr, i), AccessMode::Read});
      for (idx j2 = seg.jblk; j2 < seg.jend; ++j2) {
        acc.push_back({rt::block_key(kb, j2), AccessMode::Read});  // U row
        leaf_tiles(acc, lstart, lrows, j2, AccessMode::ReadWrite);
      }
      MatrixView ublk = a.block(row0, seg.col0, jb, seg.cols);
      MatrixView cblk = a.block(row0 + lstart, seg.col0, lrows, seg.cols);
      add(acc, TaskKind::Update, k, prio_.update(k, seg.jblk),
          "S i" + std::to_string(i) + " j" + std::to_string(seg.jblk),
          [S, ublk, cblk, i]() {
            blas::gemm_packed(-1.0, S->lpack[static_cast<std::size_t>(i)],
                              blas::Trans::NoTrans, ublk, 1.0, cblk);
          });
    }
  }

  // --- Pack release: once every S task of this iteration has consumed the
  // packs (Write-after-Read on the pack keys), return the slabs to the
  // buffer pool so the next iteration's pack tasks recycle them instead of
  // growing resident memory by half the matrix.
  if (pack_here) {
    std::vector<BlockAccess> acc;
    for (idx i = 0; i < leaves; ++i) {
      acc.push_back({pack_.key(kr, i), AccessMode::Write});
    }
    add(acc, TaskKind::Generic, k, 0, "packfree", [S]() {
      for (auto& p : S->lpack) p = blas::PackedPanel();
    });
  }
}

// --- Deferred left swaps (Algorithm 1, line 41), one task per column
// block: apply the pivots of every later iteration, in order. They ride in
// the last iteration (nondecreasing tags) and their bodies read the
// retained per-iteration piv vectors — which is exactly why retire() frees
// tournament slots and pack slabs but never piv.
void CaluJob::submit_tail() {
  const idx b = b_;
  // Only iterations >= n_panels - 1 - window can still be in flight here
  // (the pump waited for everything older to retire before submitting the
  // last panel), and those occupy distinct KeyRing slots whose latest
  // tracker writer IS their pivot task — so depending on that suffix alone
  // yields the same effective edges as a loop over every later iteration,
  // without touching O(n_panels) stale keys. A full window reads them all.
  const idx dep_floor = std::max<idx>(0, n_panels_ - 1 - window_);
  for (idx jblk = 0; jblk < n_blocks_ && jblk * b < k_total_; ++jblk) {
    if (jblk + 1 >= n_panels_) continue;  // no later pivots to apply
    std::vector<BlockAccess> acc;
    for (idx kk = std::max(jblk + 1, dep_floor); kk < n_panels_; ++kk) {
      acc.push_back({piv_.key(key_iter(kk)), AccessMode::Read});
    }
    rt::add_tile_range(acc, jblk + 1, m_blocks_, jblk, AccessMode::ReadWrite);
    std::vector<IterState*> later;
    for (idx kk = jblk + 1; kk < n_panels_; ++kk) {
      later.push_back(iters_[static_cast<std::size_t>(kk)].get());
    }
    MatrixView colv = a_.block(0, jblk * b, m_, std::min(b, n_ - jblk * b));
    add(acc, TaskKind::Generic, n_panels_ - 1, 0,
        "lswap j" + std::to_string(jblk), [later, colv, jblk, b]() {
          idx kk = jblk + 1;
          for (IterState* it : later) {
            lapack::laswp(colv.trailing(kk * b, 0), 0, it->jb, it->piv);
            ++kk;
          }
        });
  }
}

// Retirement frees the per-iteration working set the trailing tasks no
// longer need — tournament candidate blocks and pack slabs (the packfree
// task already emptied the slabs; shrink releases the vectors too). The piv
// vector, jb, and fell_back stay: the deferred left swaps and the
// collect-time folds read them after the iteration is long gone.
void CaluJob::retire(idx k) {
  IterState& st = *iters_[static_cast<std::size_t>(k)];
  st.slot.clear();
  st.slot.shrink_to_fit();
  st.lpack.clear();
  st.lpack.shrink_to_fit();
}

void CaluJob::finish() {
  for (idx inf : panel_info_) {
    if (inf != 0) {
      result_.info = inf;
      break;
    }
  }
  HealthReport& health = result_.health;
  for (std::size_t k = 0; k < panel_health_.size(); ++k) {
    const PanelHealthSlot& slot = panel_health_[k];
    if (slot.nonfinite) health.nan_detected = true;
    if (slot.fell_back) {
      ++health.fallback_panels;
      health.fallback_list.push_back(static_cast<idx>(k));
    }
    if (slot.growth > health.max_growth) health.max_growth = slot.growth;
  }
}

}  // namespace

std::unique_ptr<FactorJob<CaluResult>> calu_submit(MatrixView a,
                                                   const CaluOptions& opts) {
  auto job = std::make_unique<CaluJob>(a, opts);
  job->start();
  return job;
}

CaluResult calu_factor(MatrixView a, const CaluOptions& opts) {
  return calu_submit(a, opts)->collect();
}

std::vector<CaluResult> calu_factor_batch(const std::vector<MatrixView>& as,
                                          const CaluOptions& opts) {
  return factor_batch(as, opts, calu_submit);
}

}  // namespace camult::core
