// Ablation: the Section V future-work extension — trailing-matrix updates
// on column super-blocks B = g*b. Larger B means fewer, larger BLAS-3 tasks
// (less scheduling overhead, better gemm shape) but less parallelism.
// Also ablates the look-ahead-of-1 priority policy.
#include "bench_common.hpp"

namespace {

camult::bench::Competitor calu_variant(camult::idx b, camult::idx tr,
                                       camult::idx group, bool lookahead) {
  using namespace camult;
  return {"CALU",
          [b, tr, group, lookahead](const Matrix& a, int threads) {
            Matrix w = a;
            core::CaluOptions o;
            o.b = b;
            o.tr = tr;
            o.num_threads = threads;
            o.update_cols_per_task = group;
            o.lookahead = lookahead;
            auto r = core::calu_factor(w.view(), o);
            return bench::RunArtifacts{std::move(r.trace),
                                       std::move(r.edges),
                                       std::move(r.sched)};
          }};
}

}  // namespace

int main() {
  using namespace camult;
  using bench::Table;

  const std::vector<idx> sizes =
      bench::env_idx_list("CAMULT_BENCH_SQUARE_SIZES", {500, 1000, 1500});
  const int cores = 8;
  bench::print_mode_banner("Ablation: update column blocking B = g*b", cores);

  Table t({"m=n", "B=b", "B=2b", "B=4b", "B=all", "no-lookahead(B=b)"});
  for (idx n : sizes) {
    Matrix a = random_matrix(n, n, 600 + n);
    const idx b = std::min<idx>(n, 100);
    const double flops = bench::lu_flops(n, n);
    auto run = [&](const bench::Competitor& c) {
      return bench::measure(
                 [&](int threads) { return c.run(a, threads); }, flops, cores)
          .gflops;
    };
    t.row().cell(static_cast<long long>(n));
    t.cell(run(calu_variant(b, 4, 1, true)));
    t.cell(run(calu_variant(b, 4, 2, true)));
    t.cell(run(calu_variant(b, 4, 4, true)));
    t.cell(run(calu_variant(b, 4, 1 << 20, true)));
    t.cell(run(calu_variant(b, 4, 1, false)));
  }
  t.print("Ablation: trailing-update blocking and look-ahead (GFlop/s)",
          bench::csv_path("ablation_update_block"));
  bench::JsonReport rep("ablation_update_block", 8);
  rep.add_table(t);
  rep.write();
  return 0;
}
