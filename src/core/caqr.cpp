#include "core/caqr.hpp"

#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/lookahead.hpp"
#include "core/partition.hpp"
#include "core/tournament.hpp"  // screen_panel (the health input screen)
#include "matrix/norms.hpp"
#include "runtime/dep_tracker.hpp"

namespace camult::core {
// Named (not anonymous) so CaqrAsync::Impl — whose type is declared in the
// public header — can hold a CaqrJob without giving an external-linkage
// class an internal-linkage member.
namespace caqr_impl {

using rt::AccessMode;
using rt::BlockAccess;
using rt::TaskId;
using rt::TaskKind;

// The leaf/node key stride is derived from the real per-iteration slot
// bound (see caqr_submit) — a fixed stride would silently alias iteration
// k's keys with iteration k+1's once a panel produced more slots than the
// stride, corrupting the DAG. The iteration index `k` here is a KeyRing
// slot (wrapping modulo window + 2 — see lookahead.hpp; a window spanning
// every panel never wraps); checked_key_offset throws instead of
// wrapping past the 2^59 per-space envelope, which keeps the spaces
// disjoint even through the pack keys' 2*offset+1 even/odd doubling.
rt::BlockKey tile_key(idx i, idx j) { return rt::block_key(i, j); }
rt::BlockKey leaf_key(idx k, idx slot, idx stride) {
  return (idx{1} << 60) + checked_key_offset(k, stride, slot);
}
rt::BlockKey node_key(idx k, idx node, idx stride) {
  return (idx{1} << 61) + checked_key_offset(k, stride, node);
}
// Packed-V keys: even slots for leaf packs, odd for node packs, so both
// live in one (1 << 62) space without colliding.
rt::BlockKey pack_leaf_key(idx k, idx slot, idx stride) {
  return (idx{1} << 62) + 2 * checked_key_offset(k, stride, slot);
}
rt::BlockKey pack_node_key(idx k, idx node, idx stride) {
  return (idx{1} << 62) + 2 * checked_key_offset(k, stride, node) + 1;
}

// Shared packed reflectors of one iteration (V2 of each leaf / dense
// node), built by pack tasks, read concurrently by the S tasks, released
// once the iteration's updates drain. Kept out of the public
// CaqrIterationFactors: the packs are scratch, not part of the Q factor.
struct IterPacks {
  std::vector<lapack::LarfbPackedV> leaf;
  std::vector<lapack::LarfbPackedV> node;
};

void add_tile_range(std::vector<BlockAccess>& acc, idx i0, idx i1, idx j,
                    AccessMode mode) {
  for (idx i = i0; i < i1; ++i) acc.push_back({tile_key(i, j), mode});
}

// Submission-side state for the sliding-window pump (see CaluSubmitCtx in
// calu.cpp — same shape): everything the per-iteration submit loop needs to
// resume where it left off.
struct CaqrSubmitCtx {
  MatrixView a;
  CaqrOptions opts;
  idx m = 0, n = 0, k_total = 0, b = 0;
  idx n_panels = 0, n_blocks = 0, m_blocks = 0;
  idx key_stride = 0;
  idx window = 0;   // iterations in flight, in [1, n_panels]
  KeyRing ring;     // dep-key reuse across retired iterations
  rt::DepTracker tracker;
  LookaheadPriorities prio;
  // Task ids are assigned densely in submission order, so the id can be
  // known before submit() and used to register the block accesses.
  TaskId next_id = 0;
  idx next_k = 0;  // first not-yet-submitted iteration
};

// State a submitted-but-not-yet-collected factorization keeps alive. Task
// lambdas point into result.iterations' heap array and the heap IterPacks,
// both stable under moves of the job, but the batch driver heap-allocates
// jobs anyway for symmetry with CALU.
struct CaqrJob {
  CaqrResult result;
  std::vector<std::unique_ptr<IterPacks>> packs;
  std::unique_ptr<rt::TaskGraph> graph;
  std::unique_ptr<CaqrSubmitCtx> ctx;
  // Health monitor state: the factored matrix (re-scanned for R at
  // collect) and the input screen, one slot per iteration-0 leaf and leaf
  // update task. Those tasks tile the input and each screens its block
  // before mutating it; caqr_collect merges the slots.
  MatrixView a;
  std::vector<PanelScreen> screens;
  bool monitor = false;
};

TaskId caqr_add_task(CaqrJob& job, const std::vector<BlockAccess>& acc,
                     rt::TaskOptions topts, std::function<void()> fn) {
  CaqrSubmitCtx& C = *job.ctx;
  topts.priority = biased_priority(topts.priority, C.opts.priority_bias);
  const std::vector<TaskId> deps = C.tracker.depends(C.next_id, acc);
  const TaskId id = job.graph->submit(deps, std::move(topts), std::move(fn));
  assert(id == C.next_id);
  ++C.next_id;
  return id;
}

// Submit every task of panel iteration k (leaf QR, packs, leaf updates,
// tree nodes + node updates, pack release). Identical task bodies,
// priorities, and dependency structure whatever the window — only the
// dep-key indices wrap through the KeyRing, which resolves to the same
// edges because the previous slot owner has retired.
void caqr_submit_iteration(CaqrJob& job, idx k) {
  CaqrSubmitCtx& C = *job.ctx;
  MatrixView a = C.a;
  const CaqrOptions& opts = C.opts;
  const idx m = C.m;
  const idx n = C.n;
  const idx k_total = C.k_total;
  const idx b = C.b;
  const idx n_blocks = C.n_blocks;
  const idx key_stride = C.key_stride;
  const idx kr = C.ring.slot(k);  // dep-key iteration index
  const LookaheadPriorities& prio = C.prio;
  CaqrResult& result = job.result;
  std::vector<std::unique_ptr<IterPacks>>& packs = job.packs;
  auto add_task = [&job](const std::vector<BlockAccess>& acc,
                         rt::TaskOptions topts,
                         std::function<void()> fn) -> TaskId {
    return caqr_add_task(job, acc, std::move(topts), std::move(fn));
  };

  {
    const idx row0 = k * b;
    const idx jb = std::min(b, k_total - row0);
    const idx panel_rows = m - row0;
    const idx kb = row0 / b;

    CaqrIterationFactors& F = result.iterations[static_cast<std::size_t>(k)];
    F.row0 = row0;
    F.jb = jb;
    F.part = partition_panel_rows(panel_rows, b, opts.tr, jb);
    const idx leaves = F.part.count();
    F.leaves.resize(static_cast<std::size_t>(leaves));
    const auto schedule =
        reduction_schedule(static_cast<int>(leaves), opts.tree);
    F.nodes.resize(schedule.size());

    packs.push_back(std::make_unique<IterPacks>());
    IterPacks* P = packs.back().get();
    P->leaf.resize(static_cast<std::size_t>(leaves));
    P->node.resize(schedule.size());

    MatrixView panel = a.block(row0, row0, panel_rows, jb);

    // Trailing column segments: the leftover columns of the panel's own
    // block (when jb < b), then all full blocks to the right.
    struct ColSegment {
      idx col0, cols, jblk;
    };
    std::vector<ColSegment> segments;
    if (row0 + jb < std::min(n, (kb + 1) * b)) {
      segments.push_back(
          {row0 + jb, std::min(n, (kb + 1) * b) - (row0 + jb), kb});
    }
    for (idx jblk = kb + 1; jblk < n_blocks; ++jblk) {
      segments.push_back({jblk * b, std::min(b, n - jblk * b), jblk});
    }

    // Input screen slots (iteration 0 only): leaf i's task screens slot i,
    // its update of segment s screens slot (s + 1) * leaves + i.
    const bool screen_here = k == 0 && job.monitor;
    if (screen_here) {
      job.screens.resize(static_cast<std::size_t>(leaves) *
                         (segments.size() + 1));
    }
    auto screen_slot = [&](std::size_t seg_plus_1, idx i) -> PanelScreen* {
      if (!screen_here) return nullptr;
      return &job.screens[seg_plus_1 * static_cast<std::size_t>(leaves) +
                          static_cast<std::size_t>(i)];
    };

    // --- Task P (leaves): QR of each leaf block.
    for (idx i = 0; i < leaves; ++i) {
      const idx lstart = F.part.start[static_cast<std::size_t>(i)];
      const idx lrows = F.part.rows[static_cast<std::size_t>(i)];
      std::vector<BlockAccess> acc;
      add_tile_range(acc, kb + lstart / b, kb + (lstart + lrows + b - 1) / b,
                     kb, AccessMode::ReadWrite);
      acc.push_back({leaf_key(kr, i, key_stride), AccessMode::Write});
      rt::TaskOptions topts;
      topts.kind = TaskKind::Panel;
      topts.iteration = static_cast<int>(k);
      topts.priority = prio.panel(k);
      topts.label = "leaf" + std::to_string(i);
      CaqrIterationFactors* Fp = &F;
      PanelScreen* scr = screen_slot(0, i);
      add_task(acc, std::move(topts), [Fp, panel, lstart, lrows, i, scr]() {
        MatrixView leaf = panel.block(lstart, 0, lrows, panel.cols());
        if (scr != nullptr) *scr = screen_panel(leaf);
        Fp->leaves[static_cast<std::size_t>(i)] =
            tsqr_leaf_kernel(leaf, lstart);
      });
    }

    // --- Leaf pack tasks: pack each leaf's V2 into microkernel layout
    // ONCE; every leaf S of this iteration shares the read-only pack. The
    // V tile reads order the pack after the leaf QR; the S tasks read the
    // pack key (plus the leaf's top tile, whose unit-lower V1 the larfb
    // trmm consumes straight from the panel).
    const bool pack_here = !segments.empty();
    if (pack_here) {
      for (idx i = 0; i < leaves; ++i) {
        const idx lstart = F.part.start[static_cast<std::size_t>(i)];
        const idx lrows = F.part.rows[static_cast<std::size_t>(i)];
        if (lrows <= jb) continue;  // no V2: nothing gemm-shaped to pack
        std::vector<BlockAccess> acc;
        acc.push_back({leaf_key(kr, i, key_stride), AccessMode::Read});
        add_tile_range(acc, kb + lstart / b,
                       kb + (lstart + lrows + b - 1) / b, kb,
                       AccessMode::Read);
        acc.push_back({pack_leaf_key(kr, i, key_stride), AccessMode::Write});
        rt::TaskOptions topts;
        topts.kind = TaskKind::Generic;
        topts.iteration = static_cast<int>(k);
        topts.priority = prio.lfactor(k);  // critical path ahead of the S's
        topts.label = "pack i" + std::to_string(i);
        CaqrIterationFactors* Fp = &F;
        ConstMatrixView panel_c = panel;
        add_task(acc, std::move(topts), [P, Fp, panel_c, i]() {
          P->leaf[static_cast<std::size_t>(i)] = tsqr_leaf_pack(
              panel_c, Fp->leaves[static_cast<std::size_t>(i)]);
        });
      }
    }

    // --- Task S (leaf updates): apply each leaf's reflector to its rows of
    // every trailing column segment.
    for (std::size_t si = 0; si < segments.size(); ++si) {
      const ColSegment& seg = segments[si];
      const idx jblk = seg.jblk;
      const idx jcol0 = seg.col0;
      const idx jcols = seg.cols;
      for (idx i = 0; i < leaves; ++i) {
        const idx lstart = F.part.start[static_cast<std::size_t>(i)];
        const idx lrows = F.part.rows[static_cast<std::size_t>(i)];
        const bool packed = lrows > jb;
        std::vector<BlockAccess> acc;
        acc.push_back({leaf_key(kr, i, key_stride), AccessMode::Read});
        if (packed) {
          // V2 comes from the shared pack; V1 still reads the top tile.
          acc.push_back({tile_key(kb + lstart / b, kb), AccessMode::Read});
          acc.push_back({pack_leaf_key(kr, i, key_stride), AccessMode::Read});
        } else {
          // No V2 (the leaf is at most jb rows): V1 is the leaf's tiles.
          add_tile_range(acc, kb + lstart / b,
                         kb + (lstart + lrows + b - 1) / b, kb,
                         AccessMode::Read);
        }
        add_tile_range(acc, kb + lstart / b,
                       kb + (lstart + lrows + b - 1) / b, jblk,
                       AccessMode::ReadWrite);
        rt::TaskOptions topts;
        topts.kind = TaskKind::Update;
        topts.iteration = static_cast<int>(k);
        topts.priority = prio.update(k, jblk);
        topts.label = "Sleaf i" + std::to_string(i) + " j" +
                      std::to_string(jblk);
        CaqrIterationFactors* Fp = &F;
        ConstMatrixView panel_c = panel;
        MatrixView cpart = a.block(row0, jcol0, panel_rows, jcols);
        PanelScreen* scr = screen_slot(si + 1, i);
        add_task(acc, std::move(topts),
                 [P, Fp, panel_c, cpart, i, lstart, lrows, packed, scr]() {
          if (scr != nullptr) {
            *scr = screen_panel(cpart.rows_range(lstart, lrows));
          }
          const TsqrLeaf& leaf = Fp->leaves[static_cast<std::size_t>(i)];
          if (packed) {
            tsqr_leaf_apply(blas::Trans::Trans, panel_c, leaf,
                            P->leaf[static_cast<std::size_t>(i)], cpart);
          } else {
            tsqr_leaf_apply(blas::Trans::Trans, panel_c, leaf, cpart);
          }
        });
      }
    }

    // --- Tree: P (node QR) and S (node updates) per reduction step.
    for (std::size_t step_i = 0; step_i < schedule.size(); ++step_i) {
      const ReductionStep& step = schedule[step_i];
      std::vector<idx> src_start;
      src_start.reserve(step.sources.size());
      for (int s : step.sources) {
        src_start.push_back(F.part.start[static_cast<std::size_t>(s)]);
      }

      {
        std::vector<BlockAccess> acc;
        // New R overwrites the target's top tile; other sources' R tiles are
        // read (their below-triangle V tails are untouched).
        acc.push_back(
            {tile_key(kb + src_start[0] / b, kb), AccessMode::ReadWrite});
        for (std::size_t s = 1; s < src_start.size(); ++s) {
          acc.push_back(
              {tile_key(kb + src_start[s] / b, kb), AccessMode::Read});
        }
        acc.push_back({node_key(kr, static_cast<idx>(step_i), key_stride),
                       AccessMode::Write});
        rt::TaskOptions topts;
        topts.kind = TaskKind::Panel;
        topts.iteration = static_cast<int>(k);
        topts.priority = prio.panel(k);
        topts.label = "node l" + std::to_string(step.level);
        CaqrIterationFactors* Fp = &F;
        const std::size_t slot = step_i;
        std::vector<idx> starts = src_start;
        const bool structured =
            opts.structured_nodes && starts.size() == 2;
        add_task(acc, std::move(topts),
                 [Fp, panel, starts, slot, jb, structured]() {
          if (structured) {
            Fp->nodes[slot] =
                tsqr_node_kernel_tri(panel, starts[0], starts[1], jb);
          } else {
            Fp->nodes[slot] = tsqr_node_kernel(panel, starts, jb);
          }
        });
      }

      // Node pack task: dense nodes only (structured tpqrt nodes have no
      // larfb-shaped V2). The node.vt buffer is node-local, so the only
      // ordering needed is after the node QR (via node_key).
      const bool node_packed =
          pack_here && !(opts.structured_nodes && src_start.size() == 2);
      if (node_packed) {
        std::vector<BlockAccess> acc;
        acc.push_back({node_key(kr, static_cast<idx>(step_i), key_stride),
                       AccessMode::Read});
        acc.push_back({pack_node_key(kr, static_cast<idx>(step_i), key_stride),
                       AccessMode::Write});
        rt::TaskOptions topts;
        topts.kind = TaskKind::Generic;
        topts.iteration = static_cast<int>(k);
        topts.priority = prio.lfactor(k);
        topts.label = "pack l" + std::to_string(step.level);
        CaqrIterationFactors* Fp = &F;
        const std::size_t slot = step_i;
        add_task(acc, std::move(topts), [P, Fp, slot]() {
          P->node[slot] = tsqr_node_pack(Fp->nodes[slot]);
        });
      }

      for (const ColSegment& seg : segments) {
        const idx jblk = seg.jblk;
        const idx jcol0 = seg.col0;
        const idx jcols = seg.cols;
        std::vector<BlockAccess> acc;
        acc.push_back({node_key(kr, static_cast<idx>(step_i), key_stride),
                       AccessMode::Read});
        if (node_packed) {
          acc.push_back({pack_node_key(kr, static_cast<idx>(step_i),
                                       key_stride),
                         AccessMode::Read});
        }
        for (idx s : src_start) {
          acc.push_back({tile_key(kb + s / b, jblk), AccessMode::ReadWrite});
        }
        rt::TaskOptions topts;
        topts.kind = TaskKind::Update;
        topts.iteration = static_cast<int>(k);
        topts.priority = prio.update(k, jblk);
        topts.label = "Snode l" + std::to_string(step.level) + " j" +
                      std::to_string(jblk);
        CaqrIterationFactors* Fp = &F;
        const std::size_t slot = step_i;
        MatrixView cpart = a.block(row0, jcol0, panel_rows, jcols);
        if (node_packed) {
          add_task(acc, std::move(topts), [P, Fp, cpart, slot]() {
            tsqr_node_apply(blas::Trans::Trans, Fp->nodes[slot],
                            P->node[slot], cpart);
          });
        } else {
          add_task(acc, std::move(topts), [Fp, cpart, slot]() {
            tsqr_node_apply(blas::Trans::Trans, Fp->nodes[slot], cpart);
          });
        }
      }
    }

    // --- Pack release: after every S task of the iteration has consumed
    // the shared packs (Write-after-Read on the pack keys), hand the slabs
    // back to the buffer pool for the next iteration's packs.
    if (pack_here) {
      std::vector<BlockAccess> acc;
      for (idx i = 0; i < leaves; ++i) {
        acc.push_back({pack_leaf_key(kr, i, key_stride), AccessMode::Write});
      }
      for (std::size_t s = 0; s < schedule.size(); ++s) {
        acc.push_back({pack_node_key(kr, static_cast<idx>(s), key_stride),
                       AccessMode::Write});
      }
      rt::TaskOptions topts;
      topts.kind = TaskKind::Generic;
      topts.iteration = static_cast<int>(k);
      topts.priority = 0;
      topts.label = "packfree";
      add_task(acc, std::move(topts), [P]() {
        for (auto& vp : P->leaf) vp = lapack::LarfbPackedV();
        for (auto& vp : P->node) vp = lapack::LarfbPackedV();
      });
    }
  }
}

// Advance the submission pump until iteration `stop` (exclusive) has been
// submitted. Iteration k is only submitted after iteration k - window
// fully retired, and each iteration is sealed as soon as its last task is
// in (CAQR has no cross-iteration tail like CALU's left swaps, so even the
// final iteration seals immediately). On a failure or cancellation the
// pump stops submitting — skipped tasks still complete, so the retired
// prefix stays consistent and wait() reports the error.
void caqr_pump(CaqrJob& job, idx stop) {
  CaqrSubmitCtx& C = *job.ctx;
  rt::TaskGraph& graph = *job.graph;
  const idx lim = std::min(stop, C.n_panels);
  while (C.next_k < lim) {
    if (graph.aborted()) return;
    if (C.next_k > C.window) {
      graph.wait_retired_iterations(C.next_k - C.window);
    }
    caqr_submit_iteration(job, C.next_k);
    graph.seal_iterations(C.next_k);
    ++C.next_k;
  }
}

// Set up one factorization's graph + submission context and start the pump
// on the first `window` iterations (all of them with window == 0, completing
// here in inline mode); caqr_collect pumps the rest. Returns immediately in
// threaded mode.
void caqr_submit(MatrixView a, const CaqrOptions& opts, CaqrJob& job) {
  if (opts.window < 0) {
    throw std::invalid_argument("caqr: window must be >= 0 (0 = all panels)");
  }
  auto ctx = std::make_unique<CaqrSubmitCtx>();
  CaqrSubmitCtx& C = *ctx;
  C.a = a;
  C.opts = opts;
  C.m = a.rows();
  C.n = a.cols();
  C.k_total = std::min(C.m, C.n);
  C.b = std::max<idx>(1, std::min(opts.b, C.k_total));
  C.n_panels = (C.k_total + C.b - 1) / C.b;
  C.n_blocks = (C.n + C.b - 1) / C.b;
  C.m_blocks = (C.m + C.b - 1) / C.b;
  // Leaf/node key stride: partition_panel_rows returns at most
  // min(tr, m_blocks) leaves (and the reduction schedule has fewer steps
  // than leaves), so this bound keeps every iteration's keys disjoint for
  // any user-supplied tr — unbounded tr used to overflow a fixed 8192.
  C.key_stride = std::max<idx>(1, std::min(opts.tr, C.m_blocks)) + 1;
  C.window = opts.window > 0 ? std::min(opts.window, C.n_panels) : C.n_panels;
  C.ring.ring = C.window + 2;
  // Same banded look-ahead scheme as CALU (see lookahead.hpp): panel path
  // on top, then the next panel's column updates, then ordinary updates.
  C.prio = LookaheadPriorities{C.n_panels, C.n_blocks, opts.lookahead};

  CaqrResult& result = job.result;
  result.m = C.m;
  result.n = C.n;
  result.iterations.resize(static_cast<std::size_t>(C.n_panels));
  job.packs.reserve(static_cast<std::size_t>(C.n_panels));

  // The input screen runs inside iteration 0's leaf and leaf-update tasks
  // (see caqr_submit_iteration), each on its block before it mutates it,
  // so the verdict describes the caller's matrix. Householder QR never
  // falls back, so unlike CALU no per-panel decision is needed.
  job.a = a;
  job.monitor = opts.monitor;

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
    // Retirement releases the iteration's pack scratch (the packfree task
    // already emptied the slabs; shrink releases the vectors too). The
    // public per-iteration factors in result.iterations ARE the Q factor
    // and are never touched. Runs on the submission thread
    // (advance_retired), so pushing new IterPacks concurrently is safe —
    // same thread.
    std::vector<std::unique_ptr<IterPacks>>* packs_p = &job.packs;
    job.graph->set_retire_hook([packs_p](idx k) {
      IterPacks& p = *(*packs_p)[static_cast<std::size_t>(k)];
      p.leaf.clear();
      p.leaf.shrink_to_fit();
      p.node.clear();
      p.node.shrink_to_fit();
    });
  }
  caqr_pump(job, C.window);
}

// Drain the job's graph and harvest trace/stats/health. The graph is
// destroyed with the job (its destructor detaches from the pool).
// `sched_out`, when set, receives the scheduler counters even on the
// throwing path (see calu_collect).
CaqrResult caqr_collect(CaqrJob& job, bool record_trace,
                        rt::SchedulerStats* sched_out) {
  try {
    caqr_pump(job, job.ctx->n_panels);
    job.graph->wait();
  } catch (...) {
    if (sched_out != nullptr) *sched_out = job.graph->stats();
    throw;
  }
  if (job.monitor) {
    PanelScreen screen;
    for (const PanelScreen& slot : job.screens) screen.merge(slot);
    HealthReport& health = job.result.health;
    health.nan_detected = screen.nonfinite;
    // Growth of the triangular factor: max|R| over the upper trapezoid
    // against the input's absmax. For QR this is bounded by sqrt(n)·||A||
    // in exact arithmetic, so a large value means the input was already
    // extreme (badly scaled), not that the factorization misbehaved.
    double rmax = 0.0;
    const idx kmax = std::min(job.result.m, job.result.n);
    for (idx j = 0; j < job.result.n; ++j) {
      const idx imax = std::min(j + 1, kmax);
      for (idx i = 0; i < imax; ++i) {
        const double v = std::abs(job.a(i, j));
        if (v > rmax) rmax = v;
      }
    }
    health.max_growth = screen.absmax > 0.0 ? rmax / screen.absmax : 0.0;
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

}  // namespace caqr_impl

using caqr_impl::CaqrJob;

struct CaqrAsync::Impl {
  CaqrJob job;
  bool record_trace = true;
  rt::SchedulerStats* sched_out = nullptr;
};

CaqrAsync::CaqrAsync(MatrixView a, const CaqrOptions& opts)
    : impl_(std::make_unique<Impl>()) {
  impl_->record_trace = opts.record_trace;
  impl_->sched_out = opts.sched_out;
  caqr_impl::caqr_submit(a, opts, impl_->job);
}

// CaqrJob's graph member drains and detaches in its destructor, so dropping
// an uncollected handle cannot wedge an attached pool.
CaqrAsync::~CaqrAsync() = default;
CaqrAsync::CaqrAsync(CaqrAsync&&) noexcept = default;
CaqrAsync& CaqrAsync::operator=(CaqrAsync&&) noexcept = default;

CaqrResult CaqrAsync::collect() {
  if (impl_ == nullptr) {
    throw std::logic_error("CaqrAsync::collect called twice");
  }
  const std::unique_ptr<Impl> impl = std::move(impl_);
  return caqr_impl::caqr_collect(impl->job, impl->record_trace,
                                 impl->sched_out);
}

CaqrResult caqr_factor(MatrixView a, const CaqrOptions& opts) {
  CaqrJob job;
  caqr_impl::caqr_submit(a, opts, job);
  return caqr_impl::caqr_collect(job, opts.record_trace, opts.sched_out);
}

std::vector<CaqrResult> caqr_factor_batch(const std::vector<MatrixView>& as,
                                          const CaqrOptions& opts) {
  std::vector<CaqrResult> out;
  out.reserve(as.size());
  // See calu_factor_batch: cancellation yields per-job cancelled results
  // (completed prefix intact) carrying their run's real skip accounting;
  // task errors still propagate.
  std::vector<rt::SchedulerStats> scheds(as.size());
  if (opts.num_threads == 0 || as.size() <= 1) {
    for (std::size_t i = 0; i < as.size(); ++i) {
      CaqrOptions jopts = opts;
      jopts.sched_out = &scheds[i];
      try {
        out.push_back(caqr_factor(as[i], jopts));
      } catch (const rt::CancelledError&) {
        CaqrResult r;
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
  std::vector<CaqrAsync> jobs;
  jobs.reserve(as.size());
  for (std::size_t i = 0; i < as.size(); ++i) {
    CaqrOptions jopts = opts;
    jopts.pool = pool;
    jopts.sched_out = &scheds[i];
    jobs.emplace_back(as[i], jopts);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    try {
      out.push_back(jobs[i].collect());
    } catch (const rt::CancelledError&) {
      CaqrResult r;
      r.cancelled = true;
      r.sched = scheds[i];
      out.push_back(std::move(r));
    }
    if (opts.sched_out != nullptr) *opts.sched_out = scheds[i];
  }
  return out;
}

void caqr_apply_q(blas::Trans trans, ConstMatrixView a,
                  const CaqrResult& factors, MatrixView c) {
  assert(c.rows() == factors.m);
  auto apply_iteration = [&](const CaqrIterationFactors& F,
                             blas::Trans dir) {
    ConstMatrixView panel =
        a.block(F.row0, F.row0, factors.m - F.row0, F.jb);
    MatrixView crows = c.rows_range(F.row0, factors.m - F.row0);
    if (dir == blas::Trans::Trans) {
      for (const TsqrLeaf& leaf : F.leaves) {
        tsqr_leaf_apply(blas::Trans::Trans, panel, leaf, crows);
      }
      for (const TsqrNode& node : F.nodes) {
        tsqr_node_apply(blas::Trans::Trans, node, crows);
      }
    } else {
      for (auto it = F.nodes.rbegin(); it != F.nodes.rend(); ++it) {
        tsqr_node_apply(blas::Trans::NoTrans, *it, crows);
      }
      for (const TsqrLeaf& leaf : F.leaves) {
        tsqr_leaf_apply(blas::Trans::NoTrans, panel, leaf, crows);
      }
    }
  };

  if (trans == blas::Trans::Trans) {
    for (const CaqrIterationFactors& F : factors.iterations) {
      apply_iteration(F, blas::Trans::Trans);
    }
  } else {
    for (auto it = factors.iterations.rbegin();
         it != factors.iterations.rend(); ++it) {
      apply_iteration(*it, blas::Trans::NoTrans);
    }
  }
}

Matrix caqr_explicit_q(ConstMatrixView a, const CaqrResult& factors) {
  const idx k = std::min(factors.m, factors.n);
  Matrix q = Matrix::identity(factors.m, k);
  caqr_apply_q(blas::Trans::NoTrans, a, factors, q.view());
  return q;
}

Matrix caqr_extract_r(ConstMatrixView a, const CaqrResult& factors) {
  const idx k = std::min(factors.m, factors.n);
  Matrix r = Matrix::zeros(k, factors.n);
  for (idx j = 0; j < factors.n; ++j) {
    const idx top = std::min(j + 1, k);
    for (idx i = 0; i < top; ++i) r(i, j) = a(i, j);
  }
  return r;
}

double caqr_residual(ConstMatrixView a_orig, ConstMatrixView a_factored,
                     const CaqrResult& factors) {
  const idx m = factors.m;
  const idx n = factors.n;
  const idx k = std::min(m, n);
  Matrix qr = Matrix::zeros(m, n);
  Matrix r = caqr_extract_r(a_factored, factors);
  copy_into(r.view(), qr.view().rows_range(0, k));
  caqr_apply_q(blas::Trans::NoTrans, a_factored, factors, qr.view());
  double diff2 = 0.0;
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) {
      const double d = qr(i, j) - a_orig(i, j);
      diff2 += d * d;
    }
  }
  const double na = norm_fro(a_orig);
  if (na == 0.0) return std::sqrt(diff2);
  return std::sqrt(diff2) /
         (na * static_cast<double>(std::max(m, n)) *
          std::numeric_limits<double>::epsilon());
}

}  // namespace camult::core
