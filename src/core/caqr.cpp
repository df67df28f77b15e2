#include "core/caqr.hpp"

#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "core/partition.hpp"
#include "core/tournament.hpp"  // screen_panel (the health input screen)
#include "matrix/norms.hpp"

namespace camult::core {
namespace {

using rt::AccessMode;
using rt::BlockAccess;
using rt::TaskKind;

// Shared packed reflectors of one iteration (V2 of each leaf / dense
// node), built by pack tasks, read concurrently by the S tasks, released
// once the iteration's updates drain. Kept out of the public
// CaqrIterationFactors: the packs are scratch, not part of the Q factor.
struct IterPacks {
  std::vector<TsqrLeafPack> leaf;
  std::vector<lapack::LarfbPackedV> node;
};

// Task lambdas hold raw pointers into result_.iterations, the IterPacks and
// the screen slots, so the job never moves between submit and collect
// (caqr_submit heap-allocates it).
class CaqrJob final : public FactorJob<CaqrResult> {
 public:
  CaqrJob(MatrixView a, const CaqrOptions& opts)
      : FactorJob<CaqrResult>(a, opts), opts_(opts) {
    // Dependency keys of per-iteration state: each leaf's and tree node's
    // reflector, and their packed V2. The iteration index is a KeyRing
    // slot (key_iter).
    leaf_ = graph_->key_space(slots_);
    node_ = graph_->key_space(slots_);
    pack_leaf_ = graph_->key_space(slots_);
    pack_node_ = graph_->key_space(slots_);
    result_.m = m_;
    result_.n = n_;
    result_.iterations.resize(static_cast<std::size_t>(n_panels_));
    packs_.reserve(static_cast<std::size_t>(n_panels_));
  }
  ~CaqrJob() override { stop(); }  // drain before the members go

 private:
  void submit_iteration(idx k) override;
  void retire(idx k) override;
  void finish() override;

  const CaqrOptions opts_;
  rt::KeySpace leaf_, node_, pack_leaf_, pack_node_;
  std::vector<std::unique_ptr<IterPacks>> packs_;
  // Health monitor input screen, one slot per iteration-0 leaf and leaf
  // update task. Those tasks tile the input and each screens its block
  // before mutating it; finish() merges the slots. Householder QR never
  // falls back, so unlike CALU no per-panel decision is needed.
  std::vector<PanelScreen> screens_;
};

// Submit every task of panel iteration k (leaf QR, packs, leaf updates,
// tree nodes + node updates, pack release). Identical task bodies,
// priorities, and dependency structure whatever the window — only the
// dep-key indices wrap through the KeyRing, which resolves to the same
// edges because the previous slot owner has retired.
void CaqrJob::submit_iteration(idx k) {
  MatrixView a = a_;
  const idx b = b_;
  const idx kr = key_iter(k);
  const idx row0 = k * b;
  const idx jb = std::min(b, k_total_ - row0);
  const idx panel_rows = m_ - row0;
  const idx kb = row0 / b;

  CaqrIterationFactors& F = result_.iterations[static_cast<std::size_t>(k)];
  F.row0 = row0;
  F.jb = jb;
  F.part = partition_panel_rows(panel_rows, b, opts_.tr, jb);
  const idx leaves = F.part.count();
  F.leaves.resize(static_cast<std::size_t>(leaves));
  const auto schedule =
      reduction_schedule(static_cast<int>(leaves), opts_.tree);
  F.nodes.resize(schedule.size());

  packs_.push_back(std::make_unique<IterPacks>());
  IterPacks* P = packs_.back().get();
  P->leaf.resize(static_cast<std::size_t>(leaves));
  P->node.resize(schedule.size());

  MatrixView panel = a.block(row0, row0, panel_rows, jb);
  CaqrIterationFactors* Fp = &F;
  ConstMatrixView panel_c = panel;
  // Tile rows of leaf i, in tile column j.
  auto leaf_tiles = [&](std::vector<BlockAccess>& acc, idx i, idx j,
                        AccessMode mode) {
    const idx lstart = F.part.start[static_cast<std::size_t>(i)];
    const idx lrows = F.part.rows[static_cast<std::size_t>(i)];
    rt::add_tile_range(acc, kb + lstart / b, kb + (lstart + lrows + b - 1) / b,
                       j, mode);
  };
  const std::vector<rt::ColSegment> segments =
      rt::trailing_segments(row0, jb, b, n_);

  // Input screen slots (iteration 0 only): leaf i's task screens slot i,
  // its update of segment s screens slot (s + 1) * leaves + i.
  const bool screen_here = k == 0 && opts_.monitor;
  if (screen_here) {
    screens_.resize(static_cast<std::size_t>(leaves) * (segments.size() + 1));
  }
  auto screen_slot = [&](std::size_t seg_plus_1, idx i) -> PanelScreen* {
    if (!screen_here) return nullptr;
    return &screens_[seg_plus_1 * static_cast<std::size_t>(leaves) +
                     static_cast<std::size_t>(i)];
  };

  // --- Task P (leaves): QR of each leaf block.
  for (idx i = 0; i < leaves; ++i) {
    const idx lstart = F.part.start[static_cast<std::size_t>(i)];
    const idx lrows = F.part.rows[static_cast<std::size_t>(i)];
    std::vector<BlockAccess> acc;
    leaf_tiles(acc, i, kb, AccessMode::ReadWrite);
    acc.push_back({leaf_.key(kr, i), AccessMode::Write});
    PanelScreen* scr = screen_slot(0, i);
    add(acc, TaskKind::Panel, k, prio_.panel(k), "leaf" + std::to_string(i),
        [Fp, panel, lstart, lrows, i, scr]() {
          Fp->leaves[static_cast<std::size_t>(i)] = tsqr_leaf_kernel(
              panel.block(lstart, 0, lrows, panel.cols()), lstart, scr);
        });
  }

  // --- Leaf pack tasks: pack each leaf's V2 into microkernel layout ONCE;
  // every leaf S of this iteration shares the read-only pack. The V tile
  // reads order the pack after the leaf QR; the S tasks read the pack key
  // (plus the leaf's top tile, whose unit-lower V1 the larfb trmm consumes
  // straight from the panel).
  const bool pack_here = !segments.empty();
  if (pack_here) {
    for (idx i = 0; i < leaves; ++i) {
      if (F.part.rows[static_cast<std::size_t>(i)] <= jb) {
        continue;  // no V2: nothing gemm-shaped to pack
      }
      std::vector<BlockAccess> acc;
      acc.push_back({leaf_.key(kr, i), AccessMode::Read});
      leaf_tiles(acc, i, kb, AccessMode::Read);
      acc.push_back({pack_leaf_.key(kr, i), AccessMode::Write});
      // Critical path ahead of the S's.
      add(acc, TaskKind::Generic, k, prio_.lfactor(k),
          "pack i" + std::to_string(i), [P, Fp, panel_c, i]() {
            P->leaf[static_cast<std::size_t>(i)] = tsqr_leaf_pack(
                panel_c, Fp->leaves[static_cast<std::size_t>(i)]);
          });
    }
  }

  // --- Task S (leaf updates): apply each leaf's reflector to its rows of
  // every trailing column segment.
  for (std::size_t si = 0; si < segments.size(); ++si) {
    const rt::ColSegment& seg = segments[si];
    for (idx i = 0; i < leaves; ++i) {
      const idx lstart = F.part.start[static_cast<std::size_t>(i)];
      const idx lrows = F.part.rows[static_cast<std::size_t>(i)];
      const bool packed = lrows > jb;
      std::vector<BlockAccess> acc;
      acc.push_back({leaf_.key(kr, i), AccessMode::Read});
      if (packed) {
        // V2 comes from the shared pack; V1 still reads the top tile.
        acc.push_back({rt::block_key(kb + lstart / b, kb), AccessMode::Read});
        acc.push_back({pack_leaf_.key(kr, i), AccessMode::Read});
      } else {
        // No V2 (the leaf is at most jb rows): V1 is the leaf's tiles.
        leaf_tiles(acc, i, kb, AccessMode::Read);
      }
      leaf_tiles(acc, i, seg.jblk, AccessMode::ReadWrite);
      MatrixView cpart = a.block(row0, seg.col0, panel_rows, seg.cols);
      PanelScreen* scr = screen_slot(si + 1, i);
      add(acc, TaskKind::Update, k, prio_.update(k, seg.jblk),
          "Sleaf i" + std::to_string(i) + " j" + std::to_string(seg.jblk),
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
  for (std::size_t slot = 0; slot < schedule.size(); ++slot) {
    const ReductionStep& step = schedule[slot];
    const idx node = static_cast<idx>(slot);
    std::vector<idx> starts;
    starts.reserve(step.sources.size());
    for (int s : step.sources) {
      starts.push_back(F.part.start[static_cast<std::size_t>(s)]);
    }
    const bool structured = opts_.structured_nodes && starts.size() == 2;

    {
      std::vector<BlockAccess> acc;
      // New R overwrites the target's top tile; other sources' R tiles are
      // read (their below-triangle V tails are untouched).
      acc.push_back({rt::block_key(kb + starts[0] / b, kb),
                     AccessMode::ReadWrite});
      for (std::size_t s = 1; s < starts.size(); ++s) {
        acc.push_back({rt::block_key(kb + starts[s] / b, kb),
                       AccessMode::Read});
      }
      acc.push_back({node_.key(kr, node), AccessMode::Write});
      add(acc, TaskKind::Panel, k, prio_.panel(k),
          "node l" + std::to_string(step.level),
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
    // ordering needed is after the node QR (via the node key).
    const bool node_packed = pack_here && !structured;
    if (node_packed) {
      std::vector<BlockAccess> acc;
      acc.push_back({node_.key(kr, node), AccessMode::Read});
      acc.push_back({pack_node_.key(kr, node), AccessMode::Write});
      add(acc, TaskKind::Generic, k, prio_.lfactor(k),
          "pack l" + std::to_string(step.level), [P, Fp, slot]() {
            P->node[slot] = tsqr_node_pack(Fp->nodes[slot]);
          });
    }

    for (const rt::ColSegment& seg : segments) {
      std::vector<BlockAccess> acc;
      acc.push_back({node_.key(kr, node), AccessMode::Read});
      if (node_packed) {
        acc.push_back({pack_node_.key(kr, node), AccessMode::Read});
      }
      for (idx s : starts) {
        acc.push_back({rt::block_key(kb + s / b, seg.jblk),
                       AccessMode::ReadWrite});
      }
      MatrixView cpart = a.block(row0, seg.col0, panel_rows, seg.cols);
      std::string label = "Snode l" + std::to_string(step.level) + " j" +
                          std::to_string(seg.jblk);
      if (node_packed) {
        add(acc, TaskKind::Update, k, prio_.update(k, seg.jblk),
            std::move(label), [P, Fp, cpart, slot]() {
              tsqr_node_apply(blas::Trans::Trans, Fp->nodes[slot],
                              P->node[slot], cpart);
            });
      } else {
        add(acc, TaskKind::Update, k, prio_.update(k, seg.jblk),
            std::move(label), [Fp, cpart, slot]() {
              tsqr_node_apply(blas::Trans::Trans, Fp->nodes[slot], cpart);
            });
      }
    }
  }

  // --- Pack release: after every S task of the iteration has consumed the
  // shared packs (Write-after-Read on the pack keys), hand the slabs back
  // to the buffer pool for the next iteration's packs.
  if (pack_here) {
    std::vector<BlockAccess> acc;
    for (idx i = 0; i < leaves; ++i) {
      acc.push_back({pack_leaf_.key(kr, i), AccessMode::Write});
    }
    for (std::size_t s = 0; s < schedule.size(); ++s) {
      acc.push_back({pack_node_.key(kr, static_cast<idx>(s)),
                     AccessMode::Write});
    }
    add(acc, TaskKind::Generic, k, 0, "packfree", [P]() {
      for (auto& vp : P->leaf) vp = TsqrLeafPack();
      for (auto& vp : P->node) vp = lapack::LarfbPackedV();
    });
  }
}

// Retirement releases the iteration's pack scratch (the packfree task
// already emptied the slabs; shrink releases the vectors too). The public
// per-iteration factors in result_.iterations ARE the Q factor and are
// never touched.
void CaqrJob::retire(idx k) {
  IterPacks& p = *packs_[static_cast<std::size_t>(k)];
  p.leaf.clear();
  p.leaf.shrink_to_fit();
  p.node.clear();
  p.node.shrink_to_fit();
}

void CaqrJob::finish() {
  if (!opts_.monitor) return;
  PanelScreen screen;
  for (const PanelScreen& slot : screens_) screen.merge(slot);
  HealthReport& health = result_.health;
  health.nan_detected = screen.nonfinite;
  // Growth of the triangular factor: max|R| over the upper trapezoid
  // against the input's absmax. For QR this is bounded by sqrt(n)·||A||
  // in exact arithmetic, so a large value means the input was already
  // extreme (badly scaled), not that the factorization misbehaved.
  double rmax = 0.0;
  for (idx j = 0; j < n_; ++j) {
    const idx imax = std::min(j + 1, k_total_);
    for (idx i = 0; i < imax; ++i) rmax = std::max(rmax, std::abs(a_(i, j)));
  }
  health.max_growth = screen.absmax > 0.0 ? rmax / screen.absmax : 0.0;
}

}  // namespace

std::unique_ptr<FactorJob<CaqrResult>> caqr_submit(MatrixView a,
                                                   const CaqrOptions& opts) {
  auto job = std::make_unique<CaqrJob>(a, opts);
  job->start();
  return job;
}

CaqrResult caqr_factor(MatrixView a, const CaqrOptions& opts) {
  return caqr_submit(a, opts)->collect();
}

std::vector<CaqrResult> caqr_factor_batch(const std::vector<MatrixView>& as,
                                          const CaqrOptions& opts) {
  return factor_batch(as, opts, caqr_submit);
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
