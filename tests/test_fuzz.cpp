// Randomized property tests ("fuzz"): many random (shape, blocking, tree,
// thread-count) configurations, each checked against the library's own
// invariants and reference implementations. Seeds are fixed so failures are
// reproducible; the configuration is printed on failure.
#include <gtest/gtest.h>

#include <random>

#include "blas/blas.hpp"
#include "common/test_utils.hpp"
#include "core/calu.hpp"
#include "core/caqr.hpp"
#include "core/tslu.hpp"
#include "lapack/lapack.hpp"
#include "matrix/norms.hpp"
#include "matrix/random.hpp"
#include "runtime/task_graph.hpp"
#include "sim/sim_scheduler.hpp"

namespace camult {
namespace {

using camult::test::kResidualThreshold;

TEST(Fuzz, CaluRandomConfigs) {
  std::mt19937_64 gen(20260704);
  for (int trial = 0; trial < 30; ++trial) {
    const idx m = 8 + static_cast<idx>(gen() % 400);
    const idx n = 1 + static_cast<idx>(gen() % 200);
    const idx b = 1 + static_cast<idx>(gen() % 40);
    const idx tr = 1 + static_cast<idx>(gen() % 8);
    const int threads = static_cast<int>(gen() % 5);  // 0..4
    const auto tree = static_cast<core::ReductionTree>(gen() % 3);
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << ": m=" << m << " n=" << n
                 << " b=" << b << " tr=" << tr << " threads=" << threads
                 << " tree=" << core::reduction_tree_name(tree));

    Matrix a = random_matrix(m, n, 5000 + trial);
    Matrix lu = a;
    core::CaluOptions o;
    o.b = b;
    o.tr = tr;
    o.tree = tree;
    o.num_threads = threads;
    o.record_trace = false;
    o.update_cols_per_task = 1 + static_cast<idx>(gen() % 3);
    core::CaluResult res = core::calu_factor(lu.view(), o);
    EXPECT_EQ(res.info, 0);
    EXPECT_LT(lapack::lu_residual(a, lu, res.ipiv), kResidualThreshold);
  }
}

TEST(Fuzz, CaqrRandomConfigs) {
  std::mt19937_64 gen(42424242);
  for (int trial = 0; trial < 30; ++trial) {
    const idx m = 8 + static_cast<idx>(gen() % 400);
    const idx n = 1 + static_cast<idx>(gen() % 200);
    const idx b = 1 + static_cast<idx>(gen() % 40);
    const idx tr = 1 + static_cast<idx>(gen() % 8);
    const int threads = static_cast<int>(gen() % 5);
    const auto tree = static_cast<core::ReductionTree>(gen() % 3);
    const bool structured = (gen() % 2) == 0;
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << ": m=" << m << " n=" << n
                 << " b=" << b << " tr=" << tr << " threads=" << threads
                 << " tree=" << core::reduction_tree_name(tree)
                 << " structured=" << structured);

    Matrix a = random_matrix(m, n, 6000 + trial);
    Matrix fact = a;
    core::CaqrOptions o;
    o.b = b;
    o.tr = tr;
    o.tree = tree;
    o.num_threads = threads;
    o.structured_nodes = structured;
    o.record_trace = false;
    core::CaqrResult res = core::caqr_factor(fact.view(), o);
    EXPECT_LT(core::caqr_residual(a, fact, res), kResidualThreshold);
  }
}

TEST(Fuzz, TsluPivotsAlwaysValidPermutation) {
  std::mt19937_64 gen(777);
  for (int trial = 0; trial < 25; ++trial) {
    const idx b = 1 + static_cast<idx>(gen() % 24);
    const idx m = b + static_cast<idx>(gen() % 300);
    const idx tr = 1 + static_cast<idx>(gen() % 10);
    SCOPED_TRACE(::testing::Message() << "m=" << m << " b=" << b
                                      << " tr=" << tr);
    Matrix a = random_matrix(m, b, 7000 + trial);
    PivotVector ipiv;
    core::TsluOptions o;
    o.tr = tr;
    core::tslu_factor(a.view(), ipiv, o);
    ASSERT_EQ(static_cast<idx>(ipiv.size()), b);
    Permutation perm = ipiv_to_permutation(ipiv, m);
    EXPECT_TRUE(is_valid_permutation(perm));
  }
}

TEST(Fuzz, RandomDagsExecuteExactlyOnce) {
  // Random DAGs on the real runtime: every task runs exactly once and never
  // before its dependencies.
  std::mt19937_64 gen(999);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 50 + static_cast<int>(gen() % 200);
    std::vector<std::vector<rt::TaskId>> deps(static_cast<std::size_t>(n));
    for (int i = 1; i < n; ++i) {
      const int ndeps = static_cast<int>(gen() % 4);
      for (int d = 0; d < ndeps; ++d) {
        deps[static_cast<std::size_t>(i)].push_back(
            static_cast<rt::TaskId>(gen() % static_cast<std::uint64_t>(i)));
      }
    }
    std::vector<std::atomic<int>> run_count(static_cast<std::size_t>(n));
    for (auto& c : run_count) c = 0;
    std::vector<std::atomic<bool>> done(static_cast<std::size_t>(n));
    for (auto& d : done) d = false;
    std::atomic<bool> violation{false};

    {
      rt::TaskGraph g({3, false});
      for (int i = 0; i < n; ++i) {
        const auto my_deps = deps[static_cast<std::size_t>(i)];
        g.submit(my_deps, {}, [&, i, my_deps] {
          for (rt::TaskId d : my_deps) {
            if (!done[static_cast<std::size_t>(d)]) violation = true;
          }
          ++run_count[static_cast<std::size_t>(i)];
          done[static_cast<std::size_t>(i)] = true;
        });
      }
      g.wait();
    }
    EXPECT_FALSE(violation) << "trial " << trial;
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(run_count[static_cast<std::size_t>(i)], 1) << "task " << i;
    }
  }
}

TEST(Fuzz, SimAgreesWithGrahamBoundsOnRandomDags) {
  std::mt19937_64 gen(31337);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 30 + static_cast<int>(gen() % 300);
    std::vector<rt::TaskRecord> tasks(static_cast<std::size_t>(n));
    std::vector<rt::TaskGraph::Edge> edges;
    for (int i = 0; i < n; ++i) {
      auto& t = tasks[static_cast<std::size_t>(i)];
      t.id = i;
      t.start_ns = 0;
      t.end_ns = 1 + static_cast<std::int64_t>(gen() % 1000);
      t.priority = static_cast<int>(gen() % 10);
      const int ndeps = static_cast<int>(gen() % 3);
      for (int d = 0; d < ndeps && i > 0; ++d) {
        edges.push_back(
            {static_cast<rt::TaskId>(gen() % static_cast<std::uint64_t>(i)),
             i});
      }
    }
    for (int p : {1, 3, 7}) {
      auto r = sim::simulate(tasks, edges, p);
      const double lower =
          std::max<double>(static_cast<double>(r.critical_path_ns),
                           static_cast<double>(r.total_work_ns) / p);
      EXPECT_GE(static_cast<double>(r.makespan_ns) + 1e-9, lower);
      EXPECT_LE(r.makespan_ns, r.critical_path_ns + r.total_work_ns / p + 1);
    }
  }
}

}  // namespace
}  // namespace camult
