// Kernel microbenchmarks (google-benchmark): the sequential building blocks
// whose relative speeds drive every result in the paper — BLAS-3
// gemm/trsm/trmm, the compact-WY update larfb, and the four panel kernels
// (BLAS2 getf2/geqr2 vs recursive rgetf2/geqr3). The "CA algorithms use the
// best sequential kernel" claim (Section II) is visible here as
// rgetf2/geqr3 beating their BLAS2 counterparts on tall panels. The
// BM_geqr3_phase_* rows split a 2,000 x 100 geqr3 into its three phases,
// and BM_gemm_tn times the narrow A^T B shape that two of them run on.
// BM_tpqrt is the TS kernel a chunked CAQR leaf runs per chunk (/3928 is
// one real chunk), BM_tpqrt_phase_* split it into its four phases,
// BM_gemm_nt_short times the short updates C2 -= V2 W^T below its top
// level, and BM_tsqr_leaf_tall_view is the chunked leaf itself. On the LU
// side, the /2066 panel rows are one pass of a chunked tournament leaf (b +
// tournament_chunk_rows(100, 100) rows), BM_rgetf2_phase_* split that
// rgetf2 into its three phases, and BM_iamax and BM_gemm_nn_short time its
// pivot search and the short Schur updates above its base blocks.
#include <benchmark/benchmark.h>

#include "bench_support/flops.hpp"
#include "blas/blas.hpp"
#include "core/tournament.hpp"
#include "core/tslu.hpp"
#include "core/tsqr.hpp"
#include "lapack/lapack.hpp"
#include "matrix/random.hpp"

namespace {

using namespace camult;

void BM_gemm(benchmark::State& state) {
  const idx n = state.range(0);
  Matrix a = random_matrix(n, n, 1);
  Matrix b = random_matrix(n, n, 2);
  Matrix c = Matrix::zeros(n, n);
  for (auto _ : state) {
    blas::gemm(blas::Trans::NoTrans, blas::Trans::NoTrans, 1.0, a, b, 0.0,
               c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_gemm_tn(benchmark::State& state) {
  // C (w x w) = A^T B with a 2,000-long contraction: the W = C^T V and
  // T12 = V1^T V2 shapes of geqr3 and larfb_left.
  const idx w = state.range(0), k = 2000;
  Matrix a = random_matrix(k, w, 16);
  Matrix b = random_matrix(k, w, 17);
  Matrix c = Matrix::zeros(w, w);
  for (auto _ : state) {
    blas::gemm(blas::Trans::Trans, blas::Trans::NoTrans, 1.0, a, b, 0.0,
               c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * static_cast<double>(w) * w * k * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_gemm_tn)->Arg(6)->Arg(12)->Arg(25)->Arg(50)->Arg(100);

void BM_gemm_nn_short(benchmark::State& state) {
  // C (m x n) -= A (m x k) B (k x n): the Schur updates rgetf2's recursion
  // runs above its base blocks on a 2,066 x 100 stack, which gemm routes
  // to the short-product kernel.
  const idx m = state.range(0), n = state.range(1), k = state.range(2);
  Matrix a = random_matrix(m, k, 20);
  Matrix b = random_matrix(k, n, 21);
  Matrix c = random_matrix(m, n, 22);
  for (auto _ : state) {
    blas::gemm(blas::Trans::NoTrans, blas::Trans::NoTrans, -1.0, a, b, 1.0,
               c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m) * n * k * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_gemm_nn_short)->Args({2054, 7, 6})->Args({2041, 13, 12});

void BM_gemm_nt_short(benchmark::State& state) {
  // C (m x n) -= V (m x k) W^T with W n x k: the update C2 -= V2 W^T that
  // tpqrt's recursion runs below its top level on a 3,928-row chunk, which
  // gemm routes to the short-product kernel.
  const idx m = state.range(0), n = state.range(1), k = state.range(2);
  Matrix v = random_matrix(m, k, 24);
  Matrix w = random_matrix(n, k, 25);
  Matrix c = random_matrix(m, n, 26);
  for (auto _ : state) {
    blas::gemm(blas::Trans::NoTrans, blas::Trans::Trans, -1.0, v, w, 1.0,
               c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m) * n * k * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_gemm_nt_short)
    ->Args({3928, 25, 25})
    ->Args({3928, 13, 12})
    ->Args({3928, 7, 6});

void BM_iamax(benchmark::State& state) {
  // The pivot search of one column of a 2,066-row tournament stack.
  const idx n = state.range(0);
  const Matrix x = random_matrix(n, 1, 23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(blas::iamax(n, x.data(), 1));
  }
  state.counters["Gelem/s"] = benchmark::Counter(
      static_cast<double>(n) * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_iamax)->Arg(2066);

void BM_gemm_panel_shape(benchmark::State& state) {
  // The CALU update shape: (m x b) * (b x b).
  const idx m = state.range(0), b = 100;
  Matrix l = random_matrix(m, b, 3);
  Matrix u = random_matrix(b, b, 4);
  Matrix c = random_matrix(m, b, 5);
  for (auto _ : state) {
    blas::gemm(blas::Trans::NoTrans, blas::Trans::NoTrans, -1.0, l, u, 1.0,
               c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m) * b * b * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_gemm_panel_shape)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_trsm(benchmark::State& state) {
  const idx n = state.range(0), b = 100;
  Matrix a = random_matrix(b, b, 6);
  for (idx i = 0; i < b; ++i) a(i, i) += 4.0;
  Matrix rhs = random_matrix(n, b, 7);
  for (auto _ : state) {
    Matrix w = rhs;
    blas::trsm(blas::Side::Right, blas::Uplo::Upper, blas::Trans::NoTrans,
               blas::Diag::NonUnit, 1.0, a, w.view());
    benchmark::DoNotOptimize(w.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(n) * b * b * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_trsm)->Arg(1000)->Arg(4000);

void BM_trsm_tall_view(benchmark::State& state) {
  // The tall CALU L task: one leaf's 250000 x 100 rows of a 1,000,000-row
  // panel solved against U_KK in place, so B is a view with ld = 1e6 and
  // its columns lie 8 MB apart. Rows outside the view are never touched.
  const idx m = 1000000, rows = 250000, b = 100;
  Matrix u = random_matrix(b, b, 6);
  for (idx i = 0; i < b; ++i) u(i, i) += 4.0;
  const Matrix rhs = random_matrix(rows, b, 7);
  Matrix panel(m, b);
  MatrixView x = panel.block(rows, 0, rows, b);
  for (auto _ : state) {
    state.PauseTiming();
    copy_into(rhs.view(), x);
    state.ResumeTiming();
    blas::trsm(blas::Side::Right, blas::Uplo::Upper, blas::Trans::NoTrans,
               blas::Diag::NonUnit, 1.0, u, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(rows) * b * b * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_trsm_tall_view)->Unit(benchmark::kMillisecond);

void BM_tournament_leaf(benchmark::State& state) {
  // The tall CALU leaf task: tournament pivoting over one leaf's 250000 x 100
  // rows of a 1,000,000-row panel, read in place, so the block is a view
  // with ld = 1e6. The leaf only reads the panel. GFlop/s counts one GEPP
  // of the block, whatever the chunking does.
  const idx m = 1000000, rows = 250000, b = 100;
  Matrix panel = random_matrix(m, b, 15);
  const ConstMatrixView block = panel.view().block(rows, 0, rows, b);
  for (auto _ : state) {
    core::Candidates c = core::tournament_leaf(block, rows, b);
    benchmark::DoNotOptimize(c.values.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      camult::bench::lu_flops(rows, b) * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_tournament_leaf)->Unit(benchmark::kMillisecond);

// One 250000 x 100 tall CAQR leaf, viewed in a 1,000,000-row panel (ld =
// 1e6), factored in place by `factor`; the leaf is restored from a copy
// outside the timed region. GFlop/s counts one Householder QR of the block,
// whatever the chunking does.
template <typename Factor>
void run_tall_leaf(benchmark::State& state, Factor factor) {
  const idx m = 1000000, rows = 250000, b = 100;
  const Matrix leaf = random_matrix(rows, b, 18);
  Matrix panel(m, b);
  MatrixView block = panel.block(rows, 0, rows, b);
  for (auto _ : state) {
    state.PauseTiming();
    copy_into(leaf.view(), block);
    state.ResumeTiming();
    factor(block);
    benchmark::DoNotOptimize(block.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      camult::bench::qr_flops(rows, b) * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}

void BM_geqr3_tall_view(benchmark::State& state) {
  // The unchunked baseline of the tall CAQR leaf: one geqr3 of the whole
  // leaf, whose recursion streams the 200 MB block from DRAM at every level.
  std::vector<double> tau;
  Matrix t(100, 100);
  run_tall_leaf(state, [&](MatrixView block) {
    lapack::geqr3(block, tau, t.view());
  });
}
BENCHMARK(BM_geqr3_tall_view)->Unit(benchmark::kMillisecond);

void BM_tsqr_leaf_tall_view(benchmark::State& state) {
  // The tall CAQR leaf task: tsqr_leaf_kernel on the same view, a
  // sequential flat TSQR over chunks that reads each row once.
  run_tall_leaf(state, [](MatrixView block) {
    core::TsqrLeaf leaf = core::tsqr_leaf_kernel(block, 250000);
    benchmark::DoNotOptimize(leaf.t.data());
  });
}
BENCHMARK(BM_tsqr_leaf_tall_view)->Unit(benchmark::kMillisecond);

void BM_trmm_right(benchmark::State& state) {
  // larfb's W := W * T step: W is (trailing columns) x k with k = b = 100.
  // The 80 KB copy that resets W each iteration is inside the timed loop.
  const idx n = state.range(0), k = 100;
  Matrix t = random_matrix(k, k, 13);
  const Matrix w0 = random_matrix(n, k, 14);
  Matrix w(n, k);
  for (auto _ : state) {
    copy_into(w0.view(), w.view());
    blas::trmm(blas::Side::Right, blas::Uplo::Upper, blas::Trans::NoTrans,
               blas::Diag::NonUnit, 1.0, t, w.view());
    benchmark::DoNotOptimize(w.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(n) * k * k * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_trmm_right)->Arg(100);

void BM_larfb(benchmark::State& state) {
  // CAQR leaf update shape: block reflector (m x b) applied to (m x b).
  const idx m = state.range(0), b = 100;
  Matrix v = random_matrix(m, b, 8);
  std::vector<double> tau;
  Matrix t = Matrix::zeros(b, b);
  lapack::geqr3(v.view(), tau, t.view());
  Matrix c = random_matrix(m, b, 9);
  for (auto _ : state) {
    lapack::larfb_left(blas::Trans::Trans, v, t.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      4.0 * static_cast<double>(m) * b * b * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_larfb)->Arg(1000)->Arg(4000);

template <int Kernel>  // 0 = getf2, 1 = rgetf2
void BM_lu_panel(benchmark::State& state) {
  const idx m = state.range(0), b = 100;
  Matrix a = random_matrix(m, b, 10);
  for (auto _ : state) {
    Matrix w = a;
    PivotVector ipiv;
    if constexpr (Kernel == 0) {
      lapack::getf2(w.view(), ipiv);
    } else {
      lapack::rgetf2(w.view(), ipiv);
    }
    benchmark::DoNotOptimize(w.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      camult::bench::lu_flops(m, b) * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK_TEMPLATE(BM_lu_panel, 0)
    ->Name("BM_getf2_panel")->Arg(2000)->Arg(2066)->Arg(10000);
BENCHMARK_TEMPLATE(BM_lu_panel, 1)
    ->Name("BM_rgetf2_panel")->Arg(2000)->Arg(2066)->Arg(10000);

// The recursion of geqr3 and rgetf2 on n columns of a tall panel at
// row/column offset off: leaves of at most base_cols columns are base
// blocks, every other node splits at n / 2.
template <typename Base, typename Node>
void walk_halves(idx off, idx n, idx base_cols, Base& base, Node& node) {
  if (n <= base_cols) {
    base(off, n);
    return;
  }
  const idx n1 = n / 2;
  walk_halves(off, n1, base_cols, base, node);
  node(off, n1, n - n1);
  walk_halves(off + n1, n - n1, base_cols, base, node);
}

enum class Rgetf2Phase { Base, Trsm, Gemm };

template <Rgetf2Phase Phase>
void BM_rgetf2_phase(benchmark::State& state) {
  // One phase of an rgetf2 of an m x 100 panel, run on the blocks the
  // recursion hands it: the base case on each base block, the unit lower
  // trsm on each node's U12, or each node's Schur update A22 -= L21 U12.
  // The operands come from a real rgetf2 of the panel; the row swaps
  // between phases are left out. Every phase writes into a fresh copy of
  // the panel, restored outside the timed region.
  const idx m = state.range(0), b = 100;
  const Matrix a = random_matrix(m, b, 10);
  Matrix lu = a;
  PivotVector ipiv;
  lapack::rgetf2(lu.view(), ipiv);
  Matrix w = a;
  PivotVector bpiv;
  auto base = [&](idx off, idx n) {
    if constexpr (Phase == Rgetf2Phase::Base) {
      lapack::rgetf2(w.view().block(off, off, m - off, n), bpiv);
    }
  };
  auto node = [&](idx off, idx n1, idx n2) {
    if constexpr (Phase == Rgetf2Phase::Trsm) {
      blas::trsm(blas::Side::Left, blas::Uplo::Lower, blas::Trans::NoTrans,
                 blas::Diag::Unit, 1.0, lu.view().block(off, off, n1, n1),
                 w.view().block(off, off + n1, n1, n2));
    } else if constexpr (Phase == Rgetf2Phase::Gemm) {
      const idx r = m - off - n1;
      blas::gemm(blas::Trans::NoTrans, blas::Trans::NoTrans, -1.0,
                 lu.view().block(off + n1, off, r, n1),
                 lu.view().block(off, off + n1, n1, n2), 1.0,
                 w.view().block(off + n1, off + n1, r, n2));
    }
  };
  for (auto _ : state) {
    state.PauseTiming();
    copy_into(a.view(), w.view());
    state.ResumeTiming();
    walk_halves(0, b, lapack::kLuBaseCols, base, node);
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK_TEMPLATE(BM_rgetf2_phase, Rgetf2Phase::Base)
    ->Name("BM_rgetf2_phase_base")->Arg(2066)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_rgetf2_phase, Rgetf2Phase::Trsm)
    ->Name("BM_rgetf2_phase_trsm")->Arg(2066)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_rgetf2_phase, Rgetf2Phase::Gemm)
    ->Name("BM_rgetf2_phase_gemm")->Arg(2066)->Unit(benchmark::kMicrosecond);

template <int Kernel>  // 0 = geqr2, 1 = geqr3
void BM_qr_panel(benchmark::State& state) {
  const idx m = state.range(0), b = 100;
  Matrix a = random_matrix(m, b, 11);
  for (auto _ : state) {
    Matrix w = a;
    std::vector<double> tau;
    if constexpr (Kernel == 0) {
      lapack::geqr2(w.view(), tau);
    } else {
      Matrix t = Matrix::zeros(b, b);
      lapack::geqr3(w.view(), tau, t.view());
    }
    benchmark::DoNotOptimize(w.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      camult::bench::qr_flops(m, b) * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK_TEMPLATE(BM_qr_panel, 0)->Name("BM_geqr2_panel")->Arg(2000)->Arg(10000);
BENCHMARK_TEMPLATE(BM_qr_panel, 1)->Name("BM_geqr3_panel")->Arg(2000)->Arg(10000);

void BM_tpqrt(benchmark::State& state) {
  // The TS kernel on [R; B] with B m x 100, as a chunked leaf runs it per
  // chunk; beside BM_geqr3_panel, whose copy of the block it mirrors (R and
  // B are copied inside the timed loop). GFlop/s counts 2 m n^2, the dense
  // QR flops of the stack less those of R alone.
  const idx m = state.range(0), b = 100;
  Matrix r0 = random_matrix(b, b, 19);
  std::vector<double> tau0;
  lapack::geqr2(r0.view(), tau0);
  const Matrix b0 = random_matrix(m, b, 11);
  for (auto _ : state) {
    Matrix r = r0;
    Matrix w = b0;
    Matrix t = Matrix::zeros(b, b);
    std::vector<double> tau(static_cast<std::size_t>(b));
    lapack::tpqrt(r.view(), w.view(), tau.data(), t.view());
    benchmark::DoNotOptimize(w.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m) * b * b * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_tpqrt)->Arg(2000)->Arg(3928);

enum class TpqrtPhase { Base, W, Nt, T12 };

template <TpqrtPhase Phase>
void BM_tpqrt_phase(benchmark::State& state) {
  // One phase of a tpqrt of [R; B] with B m x 100, run on the blocks the
  // recursion hands it: tpqrt on each base block, and at each node
  // W = C2^T V2, C2 -= V2 W^T (tpmqrt's two gemms, C2 = B2 and V2 = B1) or
  // T12 = -T1 (B1^T B2) T2. V and T come from a real tpqrt of the stack, W
  // is random; every phase writes into fresh copies of R and B (restored
  // outside the timed region) or into scratch.
  const idx m = state.range(0), b = 100;
  Matrix r0 = random_matrix(b, b, 19);
  std::vector<double> tau0;
  lapack::geqr2(r0.view(), tau0);
  const Matrix b0 = random_matrix(m, b, 11);
  Matrix rv = r0;
  Matrix v = b0;
  Matrix t = Matrix::zeros(b, b);
  std::vector<double> tau(static_cast<std::size_t>(b));
  lapack::tpqrt(rv.view(), v.view(), tau.data(), t.view());
  Matrix r = r0;
  Matrix c = b0;
  const Matrix wq = random_matrix(b, b, 27);
  Matrix ws = Matrix::zeros(b, b);
  auto base = [&](idx off, idx n) {
    if constexpr (Phase == TpqrtPhase::Base) {
      lapack::tpqrt(r.view().block(off, off, n, n), c.view().cols_range(off, n),
                    tau.data() + off, ws.view().block(off, off, n, n));
    }
  };
  auto node = [&](idx off, idx n1, idx n2) {
    const ConstMatrixView v1 = v.view().cols_range(off, n1);
    if constexpr (Phase == TpqrtPhase::W) {
      blas::gemm(blas::Trans::Trans, blas::Trans::NoTrans, 1.0,
                 c.view().cols_range(off + n1, n2), v1, 1.0,
                 ws.view().block(0, 0, n2, n1));
    } else if constexpr (Phase == TpqrtPhase::Nt) {
      blas::gemm(blas::Trans::NoTrans, blas::Trans::Trans, -1.0, v1,
                 wq.view().block(0, 0, n2, n1), 1.0,
                 c.view().cols_range(off + n1, n2));
    } else if constexpr (Phase == TpqrtPhase::T12) {
      MatrixView t12 = ws.view().block(off, off + n1, n1, n2);
      blas::gemm(blas::Trans::Trans, blas::Trans::NoTrans, 1.0, v1,
                 v.view().cols_range(off + n1, n2), 0.0, t12);
      blas::trmm(blas::Side::Left, blas::Uplo::Upper, blas::Trans::NoTrans,
                 blas::Diag::NonUnit, -1.0, t.view().block(off, off, n1, n1),
                 t12);
      blas::trmm(blas::Side::Right, blas::Uplo::Upper, blas::Trans::NoTrans,
                 blas::Diag::NonUnit, 1.0,
                 t.view().block(off + n1, off + n1, n2, n2), t12);
    }
  };
  for (auto _ : state) {
    state.PauseTiming();
    copy_into(r0.view(), r.view());
    copy_into(b0.view(), c.view());
    state.ResumeTiming();
    walk_halves(0, b, lapack::kGeqr3Base, base, node);
    benchmark::DoNotOptimize(c.data());
    benchmark::DoNotOptimize(ws.data());
  }
}
BENCHMARK_TEMPLATE(BM_tpqrt_phase, TpqrtPhase::Base)
    ->Name("BM_tpqrt_phase_base")->Arg(3928)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_tpqrt_phase, TpqrtPhase::W)
    ->Name("BM_tpqrt_phase_w")->Arg(3928)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_tpqrt_phase, TpqrtPhase::Nt)
    ->Name("BM_tpqrt_phase_nt")->Arg(3928)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_tpqrt_phase, TpqrtPhase::T12)
    ->Name("BM_tpqrt_phase_t12")->Arg(3928)->Unit(benchmark::kMicrosecond);

enum class Geqr3Phase { Base, Larfb, T12 };

template <Geqr3Phase Phase>
void BM_geqr3_phase(benchmark::State& state) {
  // One phase of a geqr3 of an m x 100 panel, run on the blocks the
  // recursion hands it: geqr2 + larft on each base block, larfb_left of
  // each left half onto its right half, or larft_join for each node. V
  // and T come from a real geqr3 of the panel; larfb_left writes into a
  // random matrix, and the base phase factors a fresh copy each time.
  const idx m = state.range(0), b = 100;
  const Matrix a = random_matrix(m, b, 11);
  Matrix v = a;
  Matrix t = Matrix::zeros(b, b);
  std::vector<double> tau;
  lapack::geqr3(v.view(), tau, t.view());
  Matrix w = a;
  std::vector<double> btau;
  auto base = [&](idx off, idx n) {
    if constexpr (Phase == Geqr3Phase::Base) {
      MatrixView blk = w.view().block(off, off, m - off, n);
      lapack::geqr2(blk, btau);
      lapack::larft(blk, btau.data(), t.view().block(off, off, n, n));
    }
  };
  auto node = [&](idx off, idx n1, idx n2) {
    if constexpr (Phase == Geqr3Phase::Larfb) {
      lapack::larfb_left(blas::Trans::Trans,
                         v.view().block(off, off, m - off, n1),
                         t.view().block(off, off, n1, n1),
                         w.view().block(off, off + n1, m - off, n2));
    } else if constexpr (Phase == Geqr3Phase::T12) {
      lapack::larft_join(v.view().block(off, off, m - off, n1 + n2), n1,
                         t.view().block(off, off, n1 + n2, n1 + n2));
    }
  };
  for (auto _ : state) {
    state.PauseTiming();
    copy_into(a.view(), w.view());
    state.ResumeTiming();
    walk_halves(0, b, lapack::kGeqr3Base, base, node);
    benchmark::DoNotOptimize(w.data());
    benchmark::DoNotOptimize(t.data());
  }
}
BENCHMARK_TEMPLATE(BM_geqr3_phase, Geqr3Phase::Base)
    ->Name("BM_geqr3_phase_base")->Arg(2000)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_geqr3_phase, Geqr3Phase::Larfb)
    ->Name("BM_geqr3_phase_larfb")->Arg(2000)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_geqr3_phase, Geqr3Phase::T12)
    ->Name("BM_geqr3_phase_t12")->Arg(2000)->Unit(benchmark::kMicrosecond);

void BM_tslu_panel(benchmark::State& state) {
  const idx m = state.range(0), b = 100;
  Matrix a = random_matrix(m, b, 12);
  for (auto _ : state) {
    Matrix w = a;
    PivotVector ipiv;
    core::TsluOptions o;
    o.tr = 8;
    camult::core::tslu_factor(w.view(), ipiv, o);
    benchmark::DoNotOptimize(w.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      camult::bench::lu_flops(m, b) * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_tslu_panel)->Arg(2000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
