// Kernel microbenchmarks (google-benchmark): the sequential building blocks
// whose relative speeds drive every result in the paper — BLAS-3
// gemm/trsm/trmm, the compact-WY update larfb, and the four panel kernels
// (BLAS2 getf2/geqr2 vs recursive rgetf2/geqr3). The "CA algorithms use the
// best sequential kernel" claim (Section II) is visible here as
// rgetf2/geqr3 beating their BLAS2 counterparts on tall panels.
#include <benchmark/benchmark.h>

#include "bench_support/flops.hpp"
#include "blas/blas.hpp"
#include "core/tournament.hpp"
#include "core/tslu.hpp"
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
BENCHMARK_TEMPLATE(BM_lu_panel, 0)->Name("BM_getf2_panel")->Arg(2000)->Arg(10000);
BENCHMARK_TEMPLATE(BM_lu_panel, 1)->Name("BM_rgetf2_panel")->Arg(2000)->Arg(10000);

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
