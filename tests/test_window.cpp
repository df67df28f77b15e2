// test_window.cpp — sliding-window DAG submission (CaluOptions::window /
// CaqrOptions::window) and the overflow-guard sweep that rode along with it:
//
//  * bitwise parity: windowed CALU/CAQR must equal the full-DAG run exactly
//    (both reduction trees, a private pool, a shared WorkerPool, inline
//    record mode, and the adversarial input ensembles);
//  * memory: windowed runs recycle task-store slabs and their peak stays
//    flat as m grows at fixed window, while the full DAG's grows;
//  * trace: retention is opt-in — an untraced windowed run must not
//    reaccumulate retired-task events, a traced one must still harvest the
//    complete trace out of recycled slabs;
//  * failure paths: cancellation and fault injection mid-window drain
//    cleanly and never wedge a shared pool;
//  * dep-key / priority-band overflow guards (core/lookahead.hpp and
//    runtime/dep_tracker.hpp): the regression tests that fail on the old
//    silent wraparound.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/test_utils.hpp"
#include "core/calu.hpp"
#include "core/caqr.hpp"
#include "core/lookahead.hpp"
#include "matrix/matrix.hpp"
#include "matrix/random.hpp"
#include "runtime/cancel.hpp"
#include "runtime/fault_inject.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/worker_pool.hpp"
#include "svc/service.hpp"

namespace camult {
namespace {

using core::CaluOptions;
using core::CaqrOptions;

CaluOptions lu_opts(idx window, int threads,
                    core::ReductionTree tree = core::ReductionTree::Binary) {
  CaluOptions o;
  o.b = 16;
  o.tr = 2;
  o.tree = tree;
  o.num_threads = threads;
  o.window = window;
  o.record_trace = false;
  return o;
}

CaqrOptions qr_opts(idx window, int threads,
                    core::ReductionTree tree = core::ReductionTree::Flat) {
  CaqrOptions o;
  o.b = 16;
  o.tr = 2;
  o.tree = tree;
  o.num_threads = threads;
  o.window = window;
  o.record_trace = false;
  return o;
}

// ---- Bitwise parity: windowed == full-DAG --------------------------------

TEST(CaluWindow, BitwiseParityWithFullDag) {
  for (core::ReductionTree tree :
       {core::ReductionTree::Binary, core::ReductionTree::Flat}) {
    Matrix base = random_matrix(160, 80, 900);
    Matrix full = base;
    const core::CaluResult ref =
        core::calu_factor(full.view(), lu_opts(0, 3, tree));
    for (idx window : {idx{1}, idx{3}}) {
      for (int threads : {0, 3}) {
        Matrix w = base;
        const core::CaluResult res =
            core::calu_factor(w.view(), lu_opts(window, threads, tree));
        EXPECT_EQ(res.ipiv, ref.ipiv)
            << "tree " << static_cast<int>(tree) << " window " << window
            << " threads " << threads;
        EXPECT_EQ(res.info, ref.info);
        EXPECT_EQ(test::max_diff(full.view(), w.view()), 0.0)
            << "tree " << static_cast<int>(tree) << " window " << window
            << " threads " << threads;
      }
    }
  }
}

TEST(CaqrWindow, BitwiseParityWithFullDag) {
  for (core::ReductionTree tree :
       {core::ReductionTree::Flat, core::ReductionTree::Binary}) {
    Matrix base = random_matrix(160, 64, 901);
    Matrix full = base;
    const core::CaqrResult ref =
        core::caqr_factor(full.view(), qr_opts(0, 3, tree));
    const Matrix ref_q = core::caqr_explicit_q(full.view(), ref);
    for (idx window : {idx{1}, idx{3}}) {
      for (int threads : {0, 3}) {
        Matrix w = base;
        const core::CaqrResult res =
            core::caqr_factor(w.view(), qr_opts(window, threads, tree));
        ASSERT_EQ(res.iterations.size(), ref.iterations.size());
        EXPECT_EQ(test::max_diff(full.view(), w.view()), 0.0)
            << "tree " << static_cast<int>(tree) << " window " << window
            << " threads " << threads;
        const Matrix q = core::caqr_explicit_q(w.view(), res);
        EXPECT_EQ(test::max_diff(ref_q.view(), q.view()), 0.0);
      }
    }
  }
}

TEST(CaluWindow, BitwiseParityOnSharedPool) {
  rt::WorkerPool pool({3});
  Matrix base = random_matrix(160, 80, 902);
  Matrix full = base;
  CaluOptions fo = lu_opts(0, 3);
  fo.pool = &pool;
  const core::CaluResult ref = core::calu_factor(full.view(), fo);

  Matrix w = base;
  CaluOptions wo = lu_opts(2, 3);
  wo.pool = &pool;
  const core::CaluResult res = core::calu_factor(w.view(), wo);
  EXPECT_EQ(res.ipiv, ref.ipiv);
  EXPECT_EQ(test::max_diff(full.view(), w.view()), 0.0);

  Matrix qbase = random_matrix(160, 64, 903);
  Matrix qfull = qbase;
  CaqrOptions qf = qr_opts(0, 3);
  qf.pool = &pool;
  const core::CaqrResult qref = core::caqr_factor(qfull.view(), qf);
  Matrix qw = qbase;
  CaqrOptions qo = qr_opts(2, 3);
  qo.pool = &pool;
  const core::CaqrResult qres = core::caqr_factor(qw.view(), qo);
  ASSERT_EQ(qres.iterations.size(), qref.iterations.size());
  EXPECT_EQ(test::max_diff(qfull.view(), qw.view()), 0.0);
}

TEST(CaluWindow, BitwiseParityOnAdversarialEnsembles) {
  for (const test::AdversarialCase& c : test::adversarial_cases(96, 48, 77)) {
    Matrix full = c.a;
    const core::CaluResult ref =
        core::calu_factor(full.view(), lu_opts(0, 2));
    Matrix w = c.a;
    const core::CaluResult res =
        core::calu_factor(w.view(), lu_opts(2, 2));
    EXPECT_EQ(res.ipiv, ref.ipiv) << c.name;
    EXPECT_EQ(res.info, ref.info) << c.name;
    EXPECT_EQ(res.health.fallback_panels, ref.health.fallback_panels)
        << c.name;
    EXPECT_EQ(test::max_diff(full.view(), w.view()), 0.0) << c.name;
  }
}

TEST(CaqrWindow, BitwiseParityOnAdversarialEnsembles) {
  for (const test::AdversarialCase& c : test::adversarial_cases(96, 48, 78)) {
    Matrix full = c.a;
    const core::CaqrResult ref =
        core::caqr_factor(full.view(), qr_opts(0, 2));
    Matrix w = c.a;
    const core::CaqrResult res =
        core::caqr_factor(w.view(), qr_opts(2, 2));
    ASSERT_EQ(res.iterations.size(), ref.iterations.size()) << c.name;
    EXPECT_EQ(test::max_diff(full.view(), w.view()), 0.0) << c.name;
  }
}

TEST(CaluWindow, BatchDriverMatchesFullDagPerProblem) {
  std::vector<Matrix> bases;
  bases.push_back(random_matrix(96, 48, 910));
  bases.push_back(random_matrix(128, 64, 911));
  bases.push_back(random_matrix(160, 80, 912));

  std::vector<Matrix> fulls = bases;
  std::vector<core::CaluResult> refs;
  for (Matrix& f : fulls) {
    refs.push_back(core::calu_factor(f.view(), lu_opts(0, 2)));
  }

  std::vector<Matrix> wins = bases;
  std::vector<MatrixView> views;
  for (Matrix& m : wins) views.push_back(m.view());
  const std::vector<core::CaluResult> batch =
      core::calu_factor_batch(views, lu_opts(2, 2));
  ASSERT_EQ(batch.size(), refs.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_FALSE(batch[i].cancelled);
    EXPECT_EQ(batch[i].ipiv, refs[i].ipiv) << "problem " << i;
    EXPECT_EQ(test::max_diff(fulls[i].view(), wins[i].view()), 0.0)
        << "problem " << i;
  }
}

// ---- Window argument: 0 = every panel, > n_panels clamps, < 0 throws -----

TEST(CaluWindow, OversizedWindowMatchesFullWindow) {
  // A window past n_panels is clamped to it: the KeyRing size window + 2
  // must not overflow even for the largest representable window.
  Matrix base = random_matrix(160, 80, 905);  // 5 panels at b = 16
  Matrix full = base;
  const core::CaluResult ref = core::calu_factor(full.view(), lu_opts(0, 2));
  for (idx window : {idx{1000}, std::numeric_limits<idx>::max()}) {
    Matrix w = base;
    const core::CaluResult res =
        core::calu_factor(w.view(), lu_opts(window, 2));
    EXPECT_EQ(res.ipiv, ref.ipiv) << "window " << window;
    EXPECT_EQ(test::max_diff(full.view(), w.view()), 0.0)
        << "window " << window;
  }
}

TEST(CaluWindow, NegativeWindowThrowsBeforeTouchingInput) {
  const Matrix orig = random_matrix(96, 48, 906);
  for (int threads : {0, 2}) {
    Matrix a = orig;
    // b < 1 and tr < 1 are rejected like a negative window.
    for (idx CaluOptions::*field :
         {&CaluOptions::window, &CaluOptions::b, &CaluOptions::tr}) {
      CaluOptions o = lu_opts(0, threads);
      o.*field = field == &CaluOptions::window ? -1 : 0;
      EXPECT_THROW(core::calu_factor(a.view(), o), std::invalid_argument);
    }
    EXPECT_EQ(test::max_diff(orig.view(), a.view()), 0.0);
  }
}

TEST(CaqrWindow, NegativeWindowThrowsBeforeTouchingInput) {
  const Matrix orig = random_matrix(96, 48, 907);
  for (int threads : {0, 2}) {
    Matrix a = orig;
    // b < 1 and tr < 1 are rejected like a negative window.
    for (idx CaqrOptions::*field :
         {&CaqrOptions::window, &CaqrOptions::b, &CaqrOptions::tr}) {
      CaqrOptions o = qr_opts(0, threads);
      o.*field = field == &CaqrOptions::window ? -1 : 0;
      EXPECT_THROW(core::caqr_factor(a.view(), o), std::invalid_argument);
    }
    EXPECT_EQ(test::max_diff(orig.view(), a.view()), 0.0);
  }
}

// ---- Memory: slab recycling and O(window) peak ---------------------------

// b = 8, tr = 8 over n = 384 gives 48 panel iterations and ~10k tasks —
// several 4096-task slabs — while the per-iteration task count is
// independent of m (leaves are capped at tr), which is what makes the
// flat-in-m assertion meaningful.
core::CaluResult run_mem(idx m, idx window, bool trace = false) {
  Matrix a = random_matrix(m, 384, 920);
  CaluOptions o;
  o.b = 8;
  o.tr = 8;
  o.num_threads = 2;
  o.window = window;
  o.record_trace = trace;
  return core::calu_factor(a.view(), o);
}

TEST(CaluWindow, RecyclesSlabsAndPeakStaysFlatInM) {
  const core::CaluResult full = run_mem(768, 0);
  ASSERT_GE(full.mem.blocks_allocated, 3)
      << "problem too small to span multiple task-store slabs; the "
         "recycling assertions below would be vacuous";
  // A window spanning every panel retires nothing before the final drain,
  // so every slab is resident at the peak; wait() then recycles the full
  // ones, none of which is ever reused.
  EXPECT_LT(full.mem.blocks_recycled, full.mem.blocks_allocated);

  const core::CaluResult win = run_mem(768, 2);
  EXPECT_GT(win.mem.blocks_recycled, 0);
  EXPECT_LT(win.mem.blocks_allocated, full.mem.blocks_allocated);
  EXPECT_LT(win.mem.peak_task_store_bytes, full.mem.peak_task_store_bytes);

  // Same window, double m: the windowed peak must not grow (task count per
  // iteration does not depend on m), while the full-DAG task count is the
  // same too — the claim that matters is windowed peak is flat, which at
  // paper scale (m = 1e6) is the difference between ~2 slabs and gigabytes.
  const core::CaluResult win2 = run_mem(1536, 2);
  EXPECT_EQ(win2.mem.blocks_allocated, win.mem.blocks_allocated);
  EXPECT_EQ(win2.mem.peak_task_store_bytes, win.mem.peak_task_store_bytes);
}

TEST(CaqrWindow, RecyclesSlabsWithPackScratchFreed) {
  Matrix base = random_matrix(512, 256, 921);
  Matrix full = base;
  CaqrOptions fo;
  fo.b = 8;
  fo.tr = 8;
  fo.num_threads = 2;
  fo.record_trace = false;
  const core::CaqrResult ref = core::caqr_factor(full.view(), fo);
  ASSERT_GE(ref.mem.blocks_allocated, 2);

  Matrix w = base;
  CaqrOptions wo = fo;
  wo.window = 2;
  const core::CaqrResult res = core::caqr_factor(w.view(), wo);
  EXPECT_GT(res.mem.blocks_recycled, 0);
  EXPECT_LE(res.mem.blocks_allocated, ref.mem.blocks_allocated);
  // Recycling must not have touched the output: the Q factors replay.
  EXPECT_EQ(test::max_diff(full.view(), w.view()), 0.0);
  ASSERT_EQ(res.iterations.size(), ref.iterations.size());
}

// ---- Trace retention -----------------------------------------------------

TEST(CaluWindow, UntracedWindowedRunKeepsNoRetiredTaskEvents) {
  const core::CaluResult res = run_mem(768, 2, /*trace=*/false);
  EXPECT_GT(res.mem.blocks_recycled, 0);
  EXPECT_TRUE(res.trace.empty());
  EXPECT_TRUE(res.edges.empty());
  EXPECT_EQ(res.mem.trace_records_harvested, 0);
}

TEST(CaluWindow, TracedWindowedRunHarvestsCompleteTrace) {
  const core::CaluResult full = run_mem(768, 0, /*trace=*/true);
  const core::CaluResult win = run_mem(768, 2, /*trace=*/true);
  EXPECT_GT(win.mem.blocks_recycled, 0);
  // Slab recycling harvested the retired records instead of dropping them:
  // the windowed trace is the same size as the full-DAG one. Edge counts
  // may only grow: reusing a ring slot adds write-after-write edges from
  // the slot's retired previous owner (trivially satisfied at runtime, and
  // an honest extra constraint for the sim replayer).
  EXPECT_GT(win.mem.trace_records_harvested, 0);
  EXPECT_EQ(win.trace.size(), full.trace.size());
  EXPECT_GE(win.edges.size(), full.edges.size());
}

// ---- Cancellation and fault injection mid-window -------------------------

TEST(CaluWindow, CancelMidWindowDrainsAndPoolStaysUsable) {
  rt::WorkerPool pool({2});
  Matrix a = random_matrix(512, 256, 930);
  CaluOptions o;
  o.b = 8;
  o.tr = 4;
  o.num_threads = 2;
  o.pool = &pool;
  o.window = 2;
  o.record_trace = false;
  rt::SchedulerStats sched;
  o.sched_out = &sched;
  rt::CancelToken token = o.cancel;

  // calu_submit submits the first window of iterations; cancelling
  // before collect() guarantees the abort lands with most of the DAG not
  // yet submitted — the retired-prefix bookkeeping must unwind it anyway.
  auto job = core::calu_submit(a.view(), o);
  token.request_cancel();
  EXPECT_THROW(job->collect(), rt::CancelledError);

  // The pool is not wedged: a fresh windowed factorization on the same
  // pool still matches the full-DAG reference bitwise.
  Matrix base = random_matrix(160, 80, 931);
  Matrix full = base;
  const core::CaluResult ref = core::calu_factor(full.view(), lu_opts(0, 2));
  Matrix w = base;
  CaluOptions wo = lu_opts(2, 2);
  wo.pool = &pool;
  const core::CaluResult res = core::calu_factor(w.view(), wo);
  EXPECT_EQ(res.ipiv, ref.ipiv);
  EXPECT_EQ(test::max_diff(full.view(), w.view()), 0.0);
}

TEST(CaqrWindow, CancelMidWindowDrainsAndPoolStaysUsable) {
  rt::WorkerPool pool({2});
  Matrix a = random_matrix(512, 256, 932);
  CaqrOptions o;
  o.b = 8;
  o.tr = 4;
  o.num_threads = 2;
  o.pool = &pool;
  o.window = 2;
  o.record_trace = false;
  rt::CancelToken token = o.cancel;

  auto job = core::caqr_submit(a.view(), o);
  token.request_cancel();
  EXPECT_THROW(job->collect(), rt::CancelledError);

  Matrix base = random_matrix(160, 64, 933);
  Matrix full = base;
  const core::CaqrResult ref = core::caqr_factor(full.view(), qr_opts(0, 2));
  Matrix w = base;
  CaqrOptions wo = qr_opts(2, 2);
  wo.pool = &pool;
  const core::CaqrResult res = core::caqr_factor(w.view(), wo);
  ASSERT_EQ(res.iterations.size(), ref.iterations.size());
  EXPECT_EQ(test::max_diff(full.view(), w.view()), 0.0);
}

TEST(CaluWindow, InjectedFaultMidWindowDrainsAndPoolStaysUsable) {
  rt::WorkerPool pool({2});
  rt::FaultConfig cfg;
  cfg.throw_on_task = 1000;  // well inside the ~2.5k-task DAG below
  rt::FaultInjector fault(cfg);

  Matrix a = random_matrix(512, 256, 934);
  CaluOptions o;
  o.b = 8;
  o.tr = 4;
  o.num_threads = 2;
  o.pool = &pool;
  o.window = 2;
  o.record_trace = false;
  o.fault = &fault;
  EXPECT_THROW(core::calu_factor(a.view(), o), rt::InjectedFault);
  EXPECT_EQ(fault.injected_throws(), 1);

  Matrix base = random_matrix(160, 80, 935);
  Matrix full = base;
  const core::CaluResult ref = core::calu_factor(full.view(), lu_opts(0, 2));
  Matrix w = base;
  CaluOptions wo = lu_opts(2, 2);
  wo.pool = &pool;
  const core::CaluResult res = core::calu_factor(w.view(), wo);
  EXPECT_EQ(res.ipiv, ref.ipiv);
  EXPECT_EQ(test::max_diff(full.view(), w.view()), 0.0);
}

// ---- svc integration -----------------------------------------------------

TEST(SvcWindow, WindowedJobMatchesFullDagResult) {
  Matrix base = random_matrix(96, 96, 940);
  Matrix full = base;
  const core::CaluResult ref = core::calu_factor(full.view(), lu_opts(0, 4));

  Matrix via_svc = base;
  svc::ServiceConfig cfg;
  cfg.num_threads = 4;
  svc::Service service(cfg);
  svc::JobRequest req;
  req.kind = svc::JobKind::CaluFactor;
  req.a = via_svc.view();
  req.b = 16;
  req.tr = 2;
  req.window = 2;
  const auto adm = service.submit(req);
  ASSERT_TRUE(adm.accepted);
  const svc::JobOutcome& out = adm.handle.wait();
  ASSERT_EQ(out.status, svc::JobStatus::Completed);
  ASSERT_NE(out.lu, nullptr);
  EXPECT_EQ(out.lu->ipiv, ref.ipiv);
  EXPECT_EQ(test::max_diff(full.view(), via_svc.view()), 0.0);
}

// ---- Overflow / aliasing guards (lookahead.hpp, dep_tracker.hpp) ---------

TEST(OverflowGuards, CheckedKeyOffsetRejectsEnvelopeEscape) {
  // Paper scale sits far inside the envelope.
  const idx paper_iters = 250000;  // m = 1e6, b = 4
  EXPECT_EQ(rt::checked_key_offset(paper_iters, 9, 3),
            paper_iters * 9 + 3);

  constexpr std::int64_t kLimit = std::int64_t{1} << 59;
  const idx stride = 9, slot = 3;
  const idx k_max = (kLimit - 1 - slot) / stride;
  EXPECT_EQ(rt::checked_key_offset(k_max, stride, slot),
            k_max * stride + slot);
  EXPECT_THROW(rt::checked_key_offset(k_max + 1, stride, slot),
               std::overflow_error);
  // The old arithmetic wrapped std::int64_t here and aliased iteration 0's
  // keys; now it must refuse.
  EXPECT_THROW(rt::checked_key_offset(std::numeric_limits<idx>::max() / 2,
                                        1000, 0),
               std::overflow_error);
  EXPECT_THROW(rt::checked_key_offset(-1, 9, 3), std::overflow_error);
  EXPECT_THROW(rt::checked_key_offset(0, 9, 9), std::overflow_error);
}

TEST(OverflowGuards, BandArithmeticSaturatesInsteadOfWrapping) {
  constexpr long long kMax = std::numeric_limits<long long>::max();
  EXPECT_EQ(core::sat_band_mul(kMax, 2), kMax);
  EXPECT_EQ(core::sat_band_mul(1LL << 40, 1LL << 40), kMax);
  EXPECT_EQ(core::sat_band_mul(3, 4), 12);
  EXPECT_EQ(core::sat_band_add(kMax, 1), kMax);
  EXPECT_EQ(core::sat_band_add(5, 7), 12);
  EXPECT_EQ(core::biased_priority(std::numeric_limits<int>::max(), 1),
            std::numeric_limits<int>::max());
  EXPECT_EQ(core::biased_priority(std::numeric_limits<int>::min(), -1),
            std::numeric_limits<int>::min());
}

TEST(OverflowGuards, PaperScalePriorityBandsStayPositiveAndOrdered) {
  // m = n = 1e6 at b = 4: n_panels = n_blocks = 2.5e5, so the low band
  // alone (2 * panels * blocks = 1.25e11) exceeds int range. The bands must
  // saturate (top bleeds into mid) but never go negative or invert within
  // a band — the old fixed scheme wrapped negative here.
  core::LookaheadPriorities p;
  p.n_panels = 250000;
  p.n_blocks = 250000;
  for (idx k : {idx{0}, idx{1}, idx{100}, idx{249998}}) {
    EXPECT_GE(p.panel(k), 1);
    EXPECT_GE(p.lfactor(k), 1);
    EXPECT_GE(p.ufactor(k, k + 1), 1);
    EXPECT_GE(p.update(k, k + 1), 1);
    EXPECT_GE(p.panel(k), p.lfactor(k));
    EXPECT_GE(p.ufactor(k, k + 1), p.update(k, k + 1));
  }
  // At this scale even the low band saturates, so ordering degrades to
  // "never above" rather than strict — the documented bleed-together.
  EXPECT_LE(p.update(0, 100), p.ufactor(0, 1));

  // Just inside the envelope (1e4 panels, the paper's m = 1e6 at b = 100)
  // the strict band order must hold: low < mid < top, all positive.
  core::LookaheadPriorities q;
  q.n_panels = 10000;
  q.n_blocks = 10000;
  EXPECT_LT(q.update(0, 100), q.ufactor(0, 1));
  EXPECT_LT(q.ufactor(0, 1), q.lfactor(0));
  EXPECT_LT(q.lfactor(0), q.panel(0));
  EXPECT_LT(q.panel(1), q.panel(0));
  EXPECT_GE(q.update(q.n_panels - 1, q.n_blocks - 1), 1);
}

TEST(OverflowGuards, KeyRingReusesSlotsOnlyPastTheLiveSpan) {
  // A window spanning every panel never wraps: slot k is k itself.
  const idx n_panels = 123457;
  core::KeyRing full{n_panels + 2};
  EXPECT_EQ(full.slot(0), 0);
  EXPECT_EQ(full.slot(n_panels - 1), n_panels - 1);

  const idx window = 3;
  core::KeyRing ring{window + 2};
  for (idx k = 0; k < 50; ++k) {
    // No two iterations that can be live together (span window + 1) may
    // share a slot.
    for (idx j = k + 1; j <= k + window + 1 && j < 50; ++j) {
      EXPECT_NE(ring.slot(k), ring.slot(j)) << "k=" << k << " j=" << j;
    }
    // The slot k reuses belonged to k - ring, which retired before k could
    // submit.
    if (k >= ring.ring) {
      EXPECT_EQ(ring.slot(k), ring.slot(k - ring.ring));
    }
  }
}

}  // namespace
}  // namespace camult
