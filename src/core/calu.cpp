#include "core/calu.hpp"

#include <cassert>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "blas/blas.hpp"
#include "core/lookahead.hpp"
#include "core/partition.hpp"
#include "core/tournament.hpp"
#include "core/tslu.hpp"
#include "lapack/getf2.hpp"
#include "lapack/laswp.hpp"
#include "runtime/dep_tracker.hpp"

namespace camult::core {
// Named (not anonymous) so CaluAsync::Impl — whose type is declared in the
// public header — can hold a CaluJob without giving an external-linkage
// class an internal-linkage member.
namespace calu_impl {

using rt::AccessMode;
using rt::BlockAccess;
using rt::TaskId;
using rt::TaskKind;

// Key spaces for the dependency tracker: matrix tiles, tournament candidate
// slots, and the per-iteration pivot decision. The candidate-slot stride is
// derived from the real per-iteration slot bound (see calu_submit) — a fixed
// stride would silently alias iteration k's keys with iteration k+1's once a
// panel produced more slots than the stride, corrupting the DAG. The
// iteration index `k` here is a KeyRing slot (the dep-key spaces wrap
// modulo window + 2 — see lookahead.hpp; a window spanning every panel
// never wraps); checked_key_offset throws instead of wrapping past the 2^59
// per-space envelope, which keeps (1<<60) | (1<<61) | (1<<62) disjoint.
rt::BlockKey tile_key(idx i, idx j) { return rt::block_key(i, j); }
rt::BlockKey cand_key(idx k, idx slot, idx stride) {
  return (idx{1} << 60) + checked_key_offset(k, stride, slot);
}
rt::BlockKey piv_key(idx k) {
  return (idx{1} << 61) + checked_key_offset(k, 1, 0);
}
// One key per (iteration, leaf) packed L block; same stride bound as the
// candidate slots, so the spaces stay disjoint across iterations.
rt::BlockKey pack_key(idx k, idx slot, idx stride) {
  return (idx{1} << 62) + checked_key_offset(k, stride, slot);
}

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

void add_tile_range(std::vector<BlockAccess>& acc, idx i0, idx i1, idx j,
                    AccessMode mode) {
  for (idx i = i0; i < i1; ++i) acc.push_back({tile_key(i, j), mode});
}

// Submission-side state for the sliding-window pump: everything the
// per-iteration submit loop needs to resume where it left off. Lives on the
// job (heap, stable address) because calu_collect keeps pumping after the
// constructor returned.
struct CaluSubmitCtx {
  MatrixView a;
  CaluOptions opts;
  idx m = 0, n = 0, k_total = 0, b = 0;
  idx n_panels = 0, n_blocks = 0, m_blocks = 0;
  idx cand_stride = 0;
  idx window = 0;   // iterations in flight, in [1, n_panels]
  KeyRing ring;     // dep-key reuse across retired iterations
  rt::DepTracker tracker;
  LookaheadPriorities prio;
  // Task ids are assigned densely in submission order, so the id can be
  // known before submit() and used to register the block accesses.
  TaskId next_id = 0;
  idx next_k = 0;           // first not-yet-submitted iteration
  bool swaps_done = false;  // deferred left swaps submitted
};

// Everything a submitted-but-not-yet-collected factorization keeps alive.
// Task lambdas hold raw pointers into these members (result.ipiv,
// panel_info slots, IterStates), so a CaluJob must not move between
// submit and collect — the batch driver heap-allocates each job.
struct CaluJob {
  CaluResult result;
  std::vector<idx> panel_info;
  std::vector<PanelHealthSlot> panel_health;
  std::vector<std::unique_ptr<IterState>> iters;
  std::unique_ptr<rt::TaskGraph> graph;
  std::unique_ptr<CaluSubmitCtx> ctx;
};

TaskId calu_add_task(CaluJob& job, const std::vector<BlockAccess>& acc,
                     rt::TaskOptions topts, std::function<void()> fn) {
  CaluSubmitCtx& C = *job.ctx;
  topts.priority = biased_priority(topts.priority, C.opts.priority_bias);
  const std::vector<TaskId> deps = C.tracker.depends(C.next_id, acc);
  const TaskId id = job.graph->submit(deps, std::move(topts), std::move(fn));
  assert(id == C.next_id);
  ++C.next_id;
  return id;
}

// Submit every task of panel iteration k (tournament, pivot, L, pack, U, S,
// pack release). Identical task bodies, priorities, and dependency structure
// whatever the window — only the dep-key indices wrap through the KeyRing,
// which resolves to the same edges because the previous slot owner has
// retired.
void calu_submit_iteration(CaluJob& job, idx k) {
  CaluSubmitCtx& C = *job.ctx;
  MatrixView a = C.a;
  const CaluOptions& opts = C.opts;
  const idx m = C.m;
  const idx n = C.n;
  const idx k_total = C.k_total;
  const idx b = C.b;
  const idx n_blocks = C.n_blocks;
  const idx m_blocks = C.m_blocks;
  const idx cand_stride = C.cand_stride;
  const idx kr = C.ring.slot(k);  // dep-key iteration index
  const LookaheadPriorities& prio = C.prio;
  std::vector<std::unique_ptr<IterState>>& iters = job.iters;
  auto add_task = [&job](const std::vector<BlockAccess>& acc,
                         rt::TaskOptions topts,
                         std::function<void()> fn) -> TaskId {
    return calu_add_task(job, acc, std::move(topts), std::move(fn));
  };

  {
    const idx row0 = k * b;                        // panel top row
    const idx jb = std::min(b, k_total - row0);    // panel width
    const idx col0 = row0;                         // panel left column
    const idx panel_rows = m - row0;
    const idx kb = row0 / b;                       // block row/col index

    auto st = std::make_unique<IterState>();
    st->jb = jb;
    st->part = partition_panel_rows(panel_rows, b, opts.tr, jb);
    const idx leaves = st->part.count();
    st->slot.resize(static_cast<std::size_t>(leaves));
    st->lpack.resize(static_cast<std::size_t>(leaves));
    IterState* S = st.get();
    iters.push_back(std::move(st));

    MatrixView panel = a.block(row0, col0, panel_rows, jb);

    // --- Task P (leaves): tournament round 1.
    for (idx i = 0; i < leaves; ++i) {
      const idx lstart = S->part.start[static_cast<std::size_t>(i)];
      const idx lrows = S->part.rows[static_cast<std::size_t>(i)];
      std::vector<BlockAccess> acc;
      add_tile_range(acc, kb + lstart / b, kb + (lstart + lrows + b - 1) / b,
                     kb, AccessMode::Read);
      acc.push_back({cand_key(kr, i, cand_stride), AccessMode::Write});
      rt::TaskOptions topts;
      topts.kind = TaskKind::Panel;
      topts.iteration = static_cast<int>(k);
      topts.priority = prio.panel(k);
      topts.label = "leaf" + std::to_string(i);
      const lapack::LuPanelKernel kern = opts.leaf_kernel;
      add_task(acc, std::move(topts), [S, panel, lstart, lrows, i, b, kern]() {
        S->slot[static_cast<std::size_t>(i)] = tournament_leaf(
            panel.block(lstart, 0, lrows, panel.cols()), lstart, b, kern);
      });
    }

    // --- Task P (tree nodes).
    for (const ReductionStep& step :
         reduction_schedule(static_cast<int>(leaves), opts.tree)) {
      std::vector<BlockAccess> acc;
      acc.push_back({cand_key(kr, step.sources.front(), cand_stride),
                     AccessMode::ReadWrite});
      for (std::size_t s = 1; s < step.sources.size(); ++s) {
        acc.push_back(
            {cand_key(kr, step.sources[s], cand_stride), AccessMode::Read});
      }
      rt::TaskOptions topts;
      topts.kind = TaskKind::Panel;
      topts.iteration = static_cast<int>(k);
      topts.priority = prio.panel(k);
      topts.label = "node l" + std::to_string(step.level);
      std::vector<int> sources = step.sources;
      const lapack::LuPanelKernel kern = opts.leaf_kernel;
      add_task(acc, std::move(topts), [S, sources, b, kern]() {
        std::vector<const Candidates*> srcs;
        srcs.reserve(sources.size());
        for (int s : sources) {
          srcs.push_back(&S->slot[static_cast<std::size_t>(s)]);
        }
        Candidates combined = tournament_combine(srcs, b, kern);
        S->slot[static_cast<std::size_t>(sources.front())] =
            std::move(combined);
      });
    }

    // --- Task P (pivot placement): build the swap sequence, swap the panel
    // rows, install the root's packed LU as the top jb x jb block.
    {
      std::vector<BlockAccess> acc;
      acc.push_back({cand_key(kr, 0, cand_stride), AccessMode::Read});
      acc.push_back({piv_key(kr), AccessMode::Write});
      add_tile_range(acc, kb, m_blocks, kb, AccessMode::ReadWrite);
      rt::TaskOptions topts;
      topts.kind = TaskKind::Panel;
      topts.iteration = static_cast<int>(k);
      topts.priority = prio.panel(k);
      topts.label = "pivot";
      PivotVector* global_ipiv = &job.result.ipiv;
      idx* info_slot = &job.panel_info[static_cast<std::size_t>(k)];
      PanelHealthSlot* hslot = &job.panel_health[static_cast<std::size_t>(k)];
      const bool monitor = opts.monitor;
      const double growth_limit = opts.growth_limit;
      const lapack::LuPanelKernel kern = opts.leaf_kernel;
      add_task(acc, std::move(topts), [S, panel, row0, jb, global_ipiv,
                                       info_slot, hslot, monitor,
                                       growth_limit, kern]() {
        const Candidates& root = S->slot[0];
        // Health decision point: the tournament only READ the panel, and
        // the root's packed LU is exactly the U_KK about to be installed —
        // so a degenerate outcome (zero pivot / growth past the limit) is
        // known while a full-panel GEPP retry is still possible. The root's
        // screen is the leaves' screens of the untouched panel, merged up
        // the tree. A non-finite panel is flagged but never "rescued" (GEPP
        // on NaN is equally lost).
        const PanelScreen& scr = root.screen;
        RootCheck rc = check_packed_lu(root.lu_top.view(), jb);
        const bool fall_back =
            monitor && !scr.nonfinite &&
            (rc.zero_pivot || (growth_limit > 0.0 && scr.absmax > 0.0 &&
                               rc.umax > growth_limit * scr.absmax));
        if (fall_back) {
          S->fell_back = true;
          const idx inf = kern == lapack::LuPanelKernel::Recursive
                              ? lapack::rgetf2(panel, S->piv)
                              : lapack::getf2(panel, S->piv);
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
      idx lstart = S->part.start[static_cast<std::size_t>(i)];
      idx lrows = S->part.rows[static_cast<std::size_t>(i)];
      if (i == 0) {  // top jb rows already hold L_KK/U_KK
        lstart += jb;
        lrows -= jb;
      }
      if (lrows <= 0) continue;
      std::vector<BlockAccess> acc;
      acc.push_back({tile_key(kb, kb), AccessMode::Read});  // U_KK
      add_tile_range(acc, kb + lstart / b, kb + (lstart + lrows + b - 1) / b,
                     kb, AccessMode::ReadWrite);
      rt::TaskOptions topts;
      topts.kind = TaskKind::LFactor;
      topts.iteration = static_cast<int>(k);
      topts.priority = prio.lfactor(k);
      topts.label = "L" + std::to_string(i);
      idx* info_slot = &job.panel_info[static_cast<std::size_t>(k)];
      add_task(acc, std::move(topts), [S, panel, lstart, lrows, jb,
                                       info_slot]() {
        // Ordered after the pivot task through the panel-tile edges, so
        // both flags are stable here. A fallback panel was fully factored
        // by GEPP already; a singular U_KK (monitor off / non-finite input)
        // takes the guarded solve so the factors stay finite.
        if (S->fell_back) return;
        if (*info_slot == 0) {
          blas::trsm(blas::Side::Right, blas::Uplo::Upper,
                     blas::Trans::NoTrans, blas::Diag::NonUnit, 1.0,
                     panel.rows_range(0, jb), panel.rows_range(lstart, lrows));
        } else {
          guarded_l_solve(panel.rows_range(0, jb),
                          panel.rows_range(lstart, lrows));
        }
      });
    }

    // Trailing column segments: when the (last) panel is narrower than its
    // column block, the leftover columns of block kb still need this
    // iteration's U treatment; then the full blocks to the right, grouped
    // into super-blocks of update_cols_per_task panels (the Section V
    // "B > b" extension; 1 recovers the base algorithm).
    struct ColSegment {
      idx col0, cols, jblk0, jblk1;  // [jblk0, jblk1) tile columns
    };
    std::vector<ColSegment> segments;
    if (col0 + jb < std::min(n, (kb + 1) * b)) {
      segments.push_back(
          {col0 + jb, std::min(n, (kb + 1) * b) - (col0 + jb), kb, kb + 1});
    }
    const idx group = std::max<idx>(1, opts.update_cols_per_task);
    for (idx jblk = kb + 1; jblk < n_blocks; jblk += group) {
      const idx jend = std::min(n_blocks, jblk + group);
      const idx jcol0 = jblk * b;
      segments.push_back(
          {jcol0, std::min(n, jend * b) - jcol0, jblk, jend});
    }

    // --- Pack tasks: copy each leaf's L block into microkernel panel
    // layout ONCE; every S task of this iteration then consumes the shared
    // read-only pack instead of repacking L per column segment. The pack
    // reads the L tiles (ordering it after the L tasks and before the
    // deferred left swaps, which see the tiles' post-update values) and
    // publishes the pack_key the S tasks read.
    const bool pack_here = !segments.empty();
    if (pack_here) {
      for (idx i = 0; i < leaves; ++i) {
        idx lstart = S->part.start[static_cast<std::size_t>(i)];
        idx lrows = S->part.rows[static_cast<std::size_t>(i)];
        if (i == 0) {
          lstart += jb;
          lrows -= jb;
        }
        if (lrows <= 0) continue;
        std::vector<BlockAccess> acc;
        add_tile_range(acc, kb + lstart / b, kb + (lstart + lrows + b - 1) / b,
                       kb, AccessMode::Read);
        acc.push_back({pack_key(kr, i, cand_stride), AccessMode::Write});
        rt::TaskOptions topts;
        topts.kind = TaskKind::Generic;
        topts.iteration = static_cast<int>(k);
        topts.priority = prio.lfactor(k);  // critical path ahead of the S's
        topts.label = "pack i" + std::to_string(i);
        MatrixView lblk = a.block(row0 + lstart, col0, lrows, jb);
        add_task(acc, std::move(topts), [S, lblk, i]() {
          S->lpack[static_cast<std::size_t>(i)] =
              blas::pack_a(lblk, blas::Trans::NoTrans);
        });
      }
    }

    // --- Task U per trailing column segment: permute, then triangular
    // solve.
    for (const ColSegment& seg : segments) {
      const idx jblk = seg.jblk0;
      const idx jcol0 = seg.col0;
      const idx jcols = seg.cols;
      std::vector<BlockAccess> acc;
      acc.push_back({piv_key(kr), AccessMode::Read});
      acc.push_back({tile_key(kb, kb), AccessMode::Read});  // L_KK
      for (idx j2 = seg.jblk0; j2 < seg.jblk1; ++j2) {
        add_tile_range(acc, kb, m_blocks, j2, AccessMode::ReadWrite);
      }
      rt::TaskOptions topts;
      topts.kind = TaskKind::UFactor;
      topts.iteration = static_cast<int>(k);
      topts.priority = prio.ufactor(k, jblk);
      topts.label = "U j" + std::to_string(jblk);
      MatrixView col = a.block(row0, jcol0, panel_rows, jcols);
      MatrixView lkk = a.block(row0, col0, jb, jb);
      add_task(acc, std::move(topts), [S, col, lkk, jb]() {
        lapack::laswp(col, 0, jb, S->piv);
        blas::trsm(blas::Side::Left, blas::Uplo::Lower, blas::Trans::NoTrans,
                   blas::Diag::Unit, 1.0, lkk, col.rows_range(0, jb));
      });
    }

    // --- Task S per (leaf, trailing column segment): gemm update.
    for (const ColSegment& seg : segments) {
      const idx jblk = seg.jblk0;
      const idx jcol0 = seg.col0;
      const idx jcols = seg.cols;
      for (idx i = 0; i < leaves; ++i) {
        idx lstart = S->part.start[static_cast<std::size_t>(i)];
        idx lrows = S->part.rows[static_cast<std::size_t>(i)];
        if (i == 0) {
          lstart += jb;
          lrows -= jb;
        }
        if (lrows <= 0) continue;
        // The packed copy replaces the L tiles as the data source; the
        // Read on pack_key inherits the ordering the pack task set up.
        std::vector<BlockAccess> acc;
        acc.push_back({pack_key(kr, i, cand_stride), AccessMode::Read});
        for (idx j2 = seg.jblk0; j2 < seg.jblk1; ++j2) {
          acc.push_back({tile_key(kb, j2), AccessMode::Read});  // U row
          add_tile_range(acc, kb + lstart / b,
                         kb + (lstart + lrows + b - 1) / b, j2,
                         AccessMode::ReadWrite);
        }
        rt::TaskOptions topts;
        topts.kind = TaskKind::Update;
        topts.iteration = static_cast<int>(k);
        topts.priority = prio.update(k, jblk);
        topts.label = "S i" + std::to_string(i) + " j" + std::to_string(jblk);
        MatrixView ublk = a.block(row0, jcol0, jb, jcols);
        MatrixView cblk = a.block(row0 + lstart, jcol0, lrows, jcols);
        add_task(acc, std::move(topts), [S, ublk, cblk, i]() {
          blas::gemm_packed(-1.0, S->lpack[static_cast<std::size_t>(i)],
                            blas::Trans::NoTrans, ublk, 1.0, cblk);
        });
      }
    }

    // --- Pack release: once every S task of this iteration has consumed
    // the packs (Write-after-Read on the pack keys), return the slabs to
    // the buffer pool so the next iteration's pack tasks recycle them
    // instead of growing resident memory by half the matrix.
    if (pack_here) {
      std::vector<BlockAccess> acc;
      for (idx i = 0; i < leaves; ++i) {
        acc.push_back({pack_key(kr, i, cand_stride), AccessMode::Write});
      }
      rt::TaskOptions topts;
      topts.kind = TaskKind::Generic;
      topts.iteration = static_cast<int>(k);
      topts.priority = 0;
      topts.label = "packfree";
      add_task(acc, std::move(topts), [S]() {
        for (auto& p : S->lpack) p = blas::PackedPanel();
      });
    }
  }
}

// --- Deferred left swaps (Algorithm 1, line 41), one task per column
// block: apply the pivots of every later iteration, in order. Submitted
// after the last panel iteration; they ride in iteration n_panels - 1
// (nondecreasing tags) and their bodies read the retained per-iteration piv
// vectors — which is exactly why the retire hook frees tournament slots and
// pack slabs but never piv.
void calu_submit_left_swaps(CaluJob& job) {
  CaluSubmitCtx& C = *job.ctx;
  MatrixView a = C.a;
  const idx m = C.m;
  const idx n = C.n;
  const idx k_total = C.k_total;
  const idx b = C.b;
  const idx n_panels = C.n_panels;
  const idx n_blocks = C.n_blocks;
  const idx m_blocks = C.m_blocks;
  std::vector<std::unique_ptr<IterState>>& iters = job.iters;
  // Only iterations >= n_panels - 1 - window can still be in flight here
  // (the pump waited for everything older to retire before submitting the
  // last panel), and those occupy distinct KeyRing slots whose latest
  // tracker writer IS their pivot task — so depending on that suffix alone
  // yields the same effective edges as a loop over every later iteration,
  // without touching O(n_panels) stale keys. A full window reads them all.
  const idx dep_floor = std::max<idx>(0, n_panels - 1 - C.window);
  for (idx jblk = 0; jblk < n_blocks && jblk * b < k_total; ++jblk) {
    const idx jcol0 = jblk * b;
    const idx jcols = std::min(b, n - jcol0);
    if (jblk + 1 >= n_panels) continue;  // no later pivots to apply
    std::vector<BlockAccess> acc;
    for (idx kk = std::max(jblk + 1, dep_floor); kk < n_panels; ++kk) {
      acc.push_back({piv_key(C.ring.slot(kk)), AccessMode::Read});
    }
    add_tile_range(acc, jblk + 1, m_blocks, jblk, AccessMode::ReadWrite);
    rt::TaskOptions topts;
    topts.kind = TaskKind::Generic;
    topts.iteration = static_cast<int>(n_panels - 1);
    topts.priority = 0;
    topts.label = "lswap j" + std::to_string(jblk);
    std::vector<IterState*> later;
    for (idx kk = jblk + 1; kk < n_panels; ++kk) {
      later.push_back(iters[static_cast<std::size_t>(kk)].get());
    }
    MatrixView colv = a.block(0, jcol0, m, jcols);
    const idx jb_here = jblk;
    calu_add_task(job, acc, std::move(topts), [later, colv, jb_here, b]() {
      idx kk = jb_here + 1;
      for (IterState* it : later) {
        MatrixView below = colv.trailing(kk * b, 0);
        lapack::laswp(below, 0, it->jb, it->piv);
        ++kk;
      }
    });
  }
}

// Advance the submission pump until iteration `stop` (exclusive) has been
// submitted; once every panel iteration is in, submit the deferred left
// swaps. Iteration k is only submitted after iteration k - window fully
// retired (its slabs recycled, its IterState buffers freed by the retire
// hook), and each iteration is sealed as soon as its last task is in so
// completions can retire it. On a failure or cancellation the pump stops
// submitting — skipped tasks still complete, so the retired prefix stays
// consistent and wait() reports the error.
void calu_pump(CaluJob& job, idx stop) {
  CaluSubmitCtx& C = *job.ctx;
  rt::TaskGraph& graph = *job.graph;
  const idx lim = std::min(stop, C.n_panels);
  while (C.next_k < lim) {
    if (graph.aborted()) return;
    if (C.next_k > C.window) {
      graph.wait_retired_iterations(C.next_k - C.window);
    }
    calu_submit_iteration(job, C.next_k);
    // The last iteration stays open for the left-swap tasks below.
    if (C.next_k < C.n_panels - 1) graph.seal_iterations(C.next_k);
    ++C.next_k;
  }
  if (C.next_k == C.n_panels && C.n_panels > 0 && !C.swaps_done) {
    if (!graph.aborted()) calu_submit_left_swaps(job);
    graph.seal_iterations(C.n_panels - 1);
    C.swaps_done = true;
  }
}

// Set up one factorization's graph + submission context and start the pump
// on the first `window` iterations (all of them with window == 0, completing
// here in inline mode); calu_collect pumps the rest. Returns immediately in
// threaded mode.
void calu_submit(MatrixView a, const CaluOptions& opts, CaluJob& job) {
  if (opts.window < 0) {
    throw std::invalid_argument("calu: window must be >= 0 (0 = all panels)");
  }
  auto ctx = std::make_unique<CaluSubmitCtx>();
  CaluSubmitCtx& C = *ctx;
  C.a = a;
  C.opts = opts;
  C.m = a.rows();
  C.n = a.cols();
  C.k_total = std::min(C.m, C.n);
  C.b = std::max<idx>(1, std::min(opts.b, C.k_total));
  C.n_panels = (C.k_total + C.b - 1) / C.b;
  C.n_blocks = (C.n + C.b - 1) / C.b;  // column blocks
  C.m_blocks = (C.m + C.b - 1) / C.b;  // row blocks (tracker granularity)
  // Candidate-slot key stride: partition_panel_rows returns at most
  // min(tr, m_blocks) leaves (leaf boundaries are multiples of b), so this
  // bound keeps every iteration's slot keys disjoint for any user-supplied
  // tr — unbounded tr used to overflow a fixed stride of 8192.
  C.cand_stride = std::max<idx>(1, std::min(opts.tr, C.m_blocks)) + 1;
  C.window = opts.window > 0 ? std::min(opts.window, C.n_panels) : C.n_panels;
  C.ring.ring = C.window + 2;
  // Look-ahead priority bands (see lookahead.hpp): panel path on top, then
  // the U/S tasks of column k+1 that unblock panel k+1, then ordinary
  // trailing updates — so the next panel races ahead as soon as its column
  // is up to date.
  C.prio = LookaheadPriorities{C.n_panels, C.n_blocks, opts.lookahead};

  job.result.ipiv.assign(static_cast<std::size_t>(C.k_total), 0);
  job.panel_info.assign(static_cast<std::size_t>(C.n_panels), 0);
  job.panel_health.assign(static_cast<std::size_t>(C.n_panels),
                          PanelHealthSlot{});
  job.iters.reserve(static_cast<std::size_t>(C.n_panels));

  rt::TaskGraph::Config graph_cfg;
  graph_cfg.num_threads = opts.num_threads;
  graph_cfg.record_trace = opts.record_trace;
  graph_cfg.pool = opts.pool;
  graph_cfg.cancel = opts.cancel;
  graph_cfg.fault = opts.fault;
  graph_cfg.fault_salt = opts.fault_salt;
  job.graph = std::make_unique<rt::TaskGraph>(graph_cfg);
  job.ctx = std::move(ctx);

  if (C.n_panels > 0) {
    job.graph->track_iterations(C.n_panels);
    // Retirement frees the per-iteration working set the trailing tasks no
    // longer need — tournament candidate blocks and pack slabs (the packfree
    // task already emptied the slabs; shrink releases the vectors too). The
    // piv vector, jb, and fell_back stay: the deferred left swaps and the
    // collect-time folds read them after the iteration is long gone. Runs
    // on the submission thread (advance_retired), so pushing new IterStates
    // concurrently is safe — same thread.
    std::vector<std::unique_ptr<IterState>>* iters_p = &job.iters;
    job.graph->set_retire_hook([iters_p](idx k) {
      IterState& st = *(*iters_p)[static_cast<std::size_t>(k)];
      st.slot.clear();
      st.slot.shrink_to_fit();
      st.lpack.clear();
      st.lpack.shrink_to_fit();
    });
  }
  calu_pump(job, C.window);
}

// Drain the job's graph, fold panel infos + health, harvest trace/stats.
// The graph itself is destroyed with the job (its destructor detaches from
// the pool). `sched_out`, when set, receives the scheduler counters even on
// the throwing path — the only window into how much of the DAG a
// fast-abort skipped, since the exception discards the result.
CaluResult calu_collect(CaluJob& job, bool record_trace,
                        rt::SchedulerStats* sched_out) {
  try {
    calu_pump(job, job.ctx->n_panels);
    job.graph->wait();
  } catch (...) {
    if (sched_out != nullptr) *sched_out = job.graph->stats();
    throw;
  }
  for (idx inf : job.panel_info) {
    if (inf != 0) {
      job.result.info = inf;
      break;
    }
  }
  HealthReport& health = job.result.health;
  for (std::size_t k = 0; k < job.panel_health.size(); ++k) {
    const PanelHealthSlot& slot = job.panel_health[k];
    if (slot.nonfinite) health.nan_detected = true;
    if (slot.fell_back) {
      ++health.fallback_panels;
      health.fallback_list.push_back(static_cast<idx>(k));
    }
    if (slot.growth > health.max_growth) health.max_growth = slot.growth;
  }
  if (record_trace) {
    job.result.trace = job.graph->trace();
    job.result.edges = job.graph->edges();
  }
  job.result.sched = job.graph->stats();
  job.result.mem = job.graph->memory();
  if (sched_out != nullptr) *sched_out = job.result.sched;
  return std::move(job.result);
}

}  // namespace calu_impl

using calu_impl::CaluJob;

struct CaluAsync::Impl {
  CaluJob job;
  bool record_trace = true;
  rt::SchedulerStats* sched_out = nullptr;
};

CaluAsync::CaluAsync(MatrixView a, const CaluOptions& opts)
    : impl_(std::make_unique<Impl>()) {
  impl_->record_trace = opts.record_trace;
  impl_->sched_out = opts.sched_out;
  calu_impl::calu_submit(a, opts, impl_->job);
}

// CaluJob's graph member drains and detaches in its destructor, so dropping
// an uncollected handle cannot wedge an attached pool.
CaluAsync::~CaluAsync() = default;
CaluAsync::CaluAsync(CaluAsync&&) noexcept = default;
CaluAsync& CaluAsync::operator=(CaluAsync&&) noexcept = default;

CaluResult CaluAsync::collect() {
  if (impl_ == nullptr) {
    throw std::logic_error("CaluAsync::collect called twice");
  }
  const std::unique_ptr<Impl> impl = std::move(impl_);
  return calu_impl::calu_collect(impl->job, impl->record_trace,
                                 impl->sched_out);
}

CaluResult calu_factor(MatrixView a, const CaluOptions& opts) {
  CaluJob job;
  calu_impl::calu_submit(a, opts, job);
  return calu_impl::calu_collect(job, opts.record_trace, opts.sched_out);
}

std::vector<CaluResult> calu_factor_batch(const std::vector<MatrixView>& as,
                                          const CaluOptions& opts) {
  std::vector<CaluResult> out;
  out.reserve(as.size());
  // Each job gets its own sched slot so even a cancelled result carries its
  // run's real skip accounting (the svc layer bills tenants from it). A
  // caller-supplied sched_out keeps the single-problem semantics: it ends
  // up holding the last job's counters.
  std::vector<rt::SchedulerStats> scheds(as.size());
  // Inline mode executes tasks at submit time on this thread; batching
  // would just interleave serial work. Keep it one problem at a time. A
  // fired cancel token yields per-job cancelled results (completed prefix
  // intact) instead of throwing the whole batch away; task errors still
  // propagate.
  if (opts.num_threads == 0 || as.size() <= 1) {
    for (std::size_t i = 0; i < as.size(); ++i) {
      CaluOptions jopts = opts;
      jopts.sched_out = &scheds[i];
      try {
        out.push_back(calu_factor(as[i], jopts));
      } catch (const rt::CancelledError&) {
        CaluResult r;
        r.cancelled = true;
        r.sched = scheds[i];
        out.push_back(std::move(r));
      }
      if (opts.sched_out != nullptr) *opts.sched_out = scheds[i];
    }
    return out;
  }
  rt::WorkerPool* pool = opts.pool;
  std::unique_ptr<rt::WorkerPool> owned;
  if (pool == nullptr) {
    owned = std::make_unique<rt::WorkerPool>(
        rt::WorkerPoolConfig{opts.num_threads, false});
    pool = owned.get();
  }
  // Submit every DAG before collecting any: the pool's workers rotate
  // between the attached graphs, so the whole batch runs concurrently.
  std::vector<CaluAsync> jobs;
  jobs.reserve(as.size());
  for (std::size_t i = 0; i < as.size(); ++i) {
    CaluOptions jopts = opts;
    jopts.pool = pool;
    jopts.sched_out = &scheds[i];
    jobs.emplace_back(as[i], jopts);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    try {
      out.push_back(jobs[i].collect());
    } catch (const rt::CancelledError&) {
      CaluResult r;
      r.cancelled = true;
      r.sched = scheds[i];
      out.push_back(std::move(r));
    }
    if (opts.sched_out != nullptr) *opts.sched_out = scheds[i];
  }
  return out;
}

}  // namespace camult::core
