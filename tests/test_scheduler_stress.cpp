// Scheduler stress tests: thousands of tiny tasks through randomized DAGs
// with submission racing execution, on 1–8 worker threads, both on the pool
// a graph builds for itself and on a caller-supplied WorkerPool. Asserts the
// core scheduler contract: every task runs exactly once, dependency edges
// are respected (a predecessor's end never follows its successor's start in
// the recorded trace), exceptions drain the graph and rethrow from wait(),
// and the graph object can be destroyed cleanly right after wait().
//
// This file is the primary ThreadSanitizer target (tools/run_tsan.sh): the
// random DAGs exercise every publication path — inbox staging, the priority
// buckets, the registration/completion handshake, and the pool's sleep/wake
// relay.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/task_graph.hpp"
#include "runtime/worker_pool.hpp"

namespace camult::rt {
namespace {

// Private ("Central" instances): the central priority scheduler on the pool
// the graph builds from num_threads. Shared: the same scheduler on a
// WorkerPool the test owns and the graph attaches to.
enum class PoolMode { Private, Shared };

struct StressParam {
  int threads;
  PoolMode pool;
};

std::string param_name(const testing::TestParamInfo<StressParam>& info) {
  const char* mode = info.param.pool == PoolMode::Shared ? "Shared" : "Central";
  return std::string(mode) + std::to_string(info.param.threads) + "T";
}

class SchedulerStress : public testing::TestWithParam<StressParam> {
 protected:
  TaskGraph::Config config(bool record_trace) {
    TaskGraph::Config cfg;
    cfg.num_threads = GetParam().threads;
    cfg.record_trace = record_trace;
    if (GetParam().pool == PoolMode::Shared) {
      pool_ = std::make_unique<WorkerPool>(
          WorkerPoolConfig{GetParam().threads, false});
      cfg.pool = pool_.get();
    }
    return cfg;
  }

 private:
  std::unique_ptr<WorkerPool> pool_;  // outlives every graph in the body
};

// Busy-wait for ~n LCG steps without tripping C++20 volatile deprecation:
// the volatile sink keeps the loop from being optimized away.
void spin(int n) {
  std::uint64_t acc = 1;
  for (int s = 0; s < n; ++s) {
    acc = acc * 6364136223846793005ull + 1442695040888963407ull;
  }
  volatile std::uint64_t sink = acc;
  (void)sink;
}

// Every task runs exactly once, with up to 4 random backward dependencies
// (some already finished by submission time, racing the workers) and random
// priorities. Submission deliberately overlaps execution: no barriers.
TEST_P(SchedulerStress, RandomDagRunsEveryTaskExactlyOnce) {
  const int threads = GetParam().threads;
  const int n_tasks = 4000;
  std::mt19937 rng(12345u + static_cast<unsigned>(threads));
  std::uniform_int_distribution<int> n_deps_dist(0, 4);
  std::uniform_int_distribution<int> prio_dist(-100, 100);

  std::vector<std::atomic<int>> runs(n_tasks);
  for (auto& r : runs) r.store(0, std::memory_order_relaxed);

  {
    TaskGraph g(config(false));
    std::vector<TaskId> ids;
    ids.reserve(n_tasks);
    for (int i = 0; i < n_tasks; ++i) {
      std::vector<TaskId> deps;
      if (i > 0) {
        std::uniform_int_distribution<int> pick(0, i - 1);
        for (int d = n_deps_dist(rng); d > 0; --d) {
          deps.push_back(ids[static_cast<std::size_t>(pick(rng))]);
        }
      }
      TaskOptions opts;
      opts.priority = prio_dist(rng);
      const int self = i;
      ids.push_back(g.submit(deps, opts, [&runs, self] {
        runs[static_cast<std::size_t>(self)].fetch_add(
            1, std::memory_order_relaxed);
      }));
    }
    g.wait();
    for (int i = 0; i < n_tasks; ++i) {
      ASSERT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
          << "task " << i << " did not run exactly once";
    }
  }  // destructor joins workers with no pending work
}

// With tracing on, every registered edge must be witnessed by the recorded
// timestamps: the predecessor ends before (or when) the successor starts.
TEST_P(SchedulerStress, TraceRespectsEveryEdge) {
  const int threads = GetParam().threads;
  const int n_tasks = 2000;
  std::mt19937 rng(777u + static_cast<unsigned>(threads));
  std::uniform_int_distribution<int> n_deps_dist(0, 3);
  std::uniform_int_distribution<int> prio_dist(0, 10);

  TaskGraph g(config(true));
  std::vector<TaskId> ids;
  ids.reserve(n_tasks);
  std::atomic<std::uint64_t> sink{0};
  for (int i = 0; i < n_tasks; ++i) {
    std::vector<TaskId> deps;
    if (i > 0) {
      std::uniform_int_distribution<int> pick(0, i - 1);
      for (int d = n_deps_dist(rng); d > 0; --d) {
        deps.push_back(ids[static_cast<std::size_t>(pick(rng))]);
      }
    }
    TaskOptions opts;
    opts.priority = prio_dist(rng);
    ids.push_back(g.submit(deps, opts, [&sink] {
      sink.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  g.wait();

  const auto trace = g.trace();
  ASSERT_EQ(trace.size(), static_cast<std::size_t>(n_tasks));
  for (int i = 0; i < n_tasks; ++i) {
    EXPECT_EQ(trace[static_cast<std::size_t>(i)].id, ids[static_cast<std::size_t>(i)]);
  }
  const auto edges = g.edges();
  EXPECT_FALSE(edges.empty());
  for (const auto& e : edges) {
    const auto& pred = trace[static_cast<std::size_t>(e.from)];
    const auto& succ = trace[static_cast<std::size_t>(e.to)];
    ASSERT_LE(pred.end_ns, succ.start_ns)
        << "edge " << e.from << " -> " << e.to
        << " violated: pred ran [" << pred.start_ns << ", " << pred.end_ns
        << "], succ ran [" << succ.start_ns << ", " << succ.end_ns << "]";
  }
}

// Tasks publish plain (non-atomic) values that their successors read. The
// other tests' bodies only touch std::atomic counters, which ThreadSanitizer
// always considers synchronized — a publication path missing its
// acquire/release edge would go unnoticed there. Here every cross-task read
// is of ordinary memory, so TSAN flags any dispatch that does not
// happen-after the predecessor's completion (e.g. a broken sentinel-drop
// short-circuit in submit()). The final serial recompute also proves the
// dependency-ordered dataflow produced the right values.
TEST_P(SchedulerStress, PlainDataFlowsAcrossEdges) {
  const int threads = GetParam().threads;
  const int n_tasks = 3000;
  std::mt19937 rng(4242u + static_cast<unsigned>(threads));
  std::uniform_int_distribution<int> n_deps_dist(0, 4);
  std::uniform_int_distribution<int> prio_dist(-50, 50);

  std::vector<std::uint64_t> value(n_tasks, 0);  // plain memory, no atomics
  std::vector<std::vector<int>> preds(n_tasks);

  {
    TaskGraph g(config(false));
    std::vector<TaskId> ids;
    ids.reserve(n_tasks);
    for (int i = 0; i < n_tasks; ++i) {
      std::vector<TaskId> deps;
      if (i > 0) {
        std::uniform_int_distribution<int> pick(0, i - 1);
        for (int d = n_deps_dist(rng); d > 0; --d) {
          const int p = pick(rng);
          deps.push_back(ids[static_cast<std::size_t>(p)]);
          preds[static_cast<std::size_t>(i)].push_back(p);
        }
      }
      TaskOptions opts;
      opts.priority = prio_dist(rng);
      const int self = i;
      ids.push_back(g.submit(deps, opts, [&value, &preds, self] {
        std::uint64_t v = static_cast<std::uint64_t>(self) + 1;
        for (int p : preds[static_cast<std::size_t>(self)]) {
          v += 0x9e3779b97f4a7c15ull * value[static_cast<std::size_t>(p)];
        }
        value[static_cast<std::size_t>(self)] = v;
      }));
    }
    g.wait();
  }

  // Each slot is written exactly once, so recomputing from the final array
  // reproduces what each task must have read through a correctly ordered
  // dependency edge.
  for (int i = 0; i < n_tasks; ++i) {
    std::uint64_t expect = static_cast<std::uint64_t>(i) + 1;
    for (int p : preds[static_cast<std::size_t>(i)]) {
      expect += 0x9e3779b97f4a7c15ull * value[static_cast<std::size_t>(p)];
    }
    ASSERT_EQ(value[static_cast<std::size_t>(i)], expect)
        << "task " << i << " read a stale or unordered predecessor value";
  }
}

// Hammers the sentinel-drop path in submit(): a producer races to complete
// exactly while its consumer is being registered, so the submission thread
// repeatedly (measured: ~20 times per run) observes unresolved == 1 written
// by the completer's fetch_sub rather than by its own sentinel store, and
// dispatches through the short-circuit. The producer publishes a plain
// value its consumer reads, so that load must be acquire to synchronize
// with the completer's release RMW. Note TSAN alone is not a reliable
// oracle for this one edge: the completing worker's next queue/inbox lock
// usually creates an incidental happens-before that masks a missing
// acquire, which is how the original relaxed-load bug survived a TSAN-clean
// run. The value check below is the hardware-level backstop. Producer spin
// times sweep 0..~1µs so completions land in every phase of the
// registration window regardless of scheduler timing.
TEST_P(SchedulerStress, SentinelDropRacesCompletion) {
  const int threads = GetParam().threads;
  if (threads < 2) return;  // needs a worker racing the submission thread
  const int n_pairs = 4000;
  std::mt19937 rng(99u + static_cast<unsigned>(threads));
  std::uniform_int_distribution<int> spin_dist(0, 256);

  std::vector<std::uint64_t> val(n_pairs, 0);  // plain memory, no atomics
  TaskGraph g(config(false));

  // A pool of long-finished tasks used as padding dependencies: registering
  // them takes the lock-free fast path but still stretches the distance
  // between the producer's registration and the sentinel drop.
  std::vector<TaskId> pad;
  for (int i = 0; i < 4; ++i) pad.push_back(g.submit({}, {}, [] {}));

  for (int i = 0; i < n_pairs; ++i) {
    const int self = i;
    const int pre = spin_dist(rng);
    const int post = spin_dist(rng);
    const TaskId producer = g.submit({}, {}, [&val, self, pre, post] {
      spin(pre);
      val[static_cast<std::size_t>(self)] =
          0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(self) + 1);
      spin(post);
    });
    std::vector<TaskId> deps{producer, pad[0], pad[1], pad[2], pad[3]};
    g.submit(deps, {}, [&val, self] {
      const std::uint64_t got = val[static_cast<std::size_t>(self)];
      const std::uint64_t want =
          0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(self) + 1);
      if (got != want) {
        throw std::runtime_error("consumer " + std::to_string(self) +
                                 " read a stale producer value");
      }
    });
  }
  g.wait();  // rethrows if any consumer saw a stale value
}

// Deep chains interleaved with wide fans: completion-side dispatch (chains)
// races submission-side dispatch (fans) on the same ready structures.
TEST_P(SchedulerStress, ChainsInterleavedWithFans) {
  const int n_chains = 8;
  const int chain_len = 250;
  TaskGraph g(config(false));
  std::vector<std::atomic<int>> progress(n_chains);
  for (auto& p : progress) p.store(0, std::memory_order_relaxed);
  std::atomic<int> fan_runs{0};

  std::vector<TaskId> tail(n_chains, kNoTask);
  for (int step = 0; step < chain_len; ++step) {
    for (int c = 0; c < n_chains; ++c) {
      std::vector<TaskId> deps;
      if (tail[static_cast<std::size_t>(c)] != kNoTask) {
        deps.push_back(tail[static_cast<std::size_t>(c)]);
      }
      const int chain = c;
      const int expect = step;
      tail[static_cast<std::size_t>(c)] =
          g.submit(deps, {}, [&progress, chain, expect] {
            // Chains must advance strictly in order.
            auto& p = progress[static_cast<std::size_t>(chain)];
            int seen = p.load(std::memory_order_relaxed);
            if (seen == expect) p.store(seen + 1, std::memory_order_relaxed);
          });
    }
    // A few independent fan tasks per step keep the queues churning.
    for (int f = 0; f < 2; ++f) {
      g.submit({}, {}, [&fan_runs] {
        fan_runs.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  g.wait();
  for (int c = 0; c < n_chains; ++c) {
    EXPECT_EQ(progress[static_cast<std::size_t>(c)].load(), chain_len)
        << "chain " << c << " lost a step";
  }
  EXPECT_EQ(fan_runs.load(), chain_len * 2);
}

// A throwing task must not kill its worker: the rest of the graph drains,
// and wait() rethrows the first failure by task id.
TEST_P(SchedulerStress, ExceptionsDrainAndRethrow) {
  const int n_tasks = 1000;
  TaskGraph g(config(false));
  std::atomic<int> ran{0};
  for (int i = 0; i < n_tasks; ++i) {
    g.submit({}, {}, [&ran, i] {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i % 100 == 7) throw std::runtime_error("task failed");
    });
  }
  EXPECT_THROW(g.wait(), std::runtime_error);
  // Fast-abort: the first failure makes the rest of the DAG skip, but the
  // graph still drains — every task is accounted for as executed or
  // skipped, and at least the first failing task actually ran.
  const WorkerStats totals = g.stats().totals();
  EXPECT_EQ(totals.tasks_executed + totals.tasks_skipped, n_tasks);
  EXPECT_EQ(totals.tasks_executed, ran.load());
  // Execution order is not submission order (workers race the submitting
  // thread), so the only guaranteed lower bound is the failing task itself.
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), n_tasks);
}

TEST_P(SchedulerStress, ExceptionsRunAllWithoutAbortOnError) {
  // abort_on_error = false restores the pre-fast-abort contract: every
  // task still runs, including the ones after the failures.
  const int n_tasks = 1000;
  TaskGraph::Config cfg = config(false);
  cfg.abort_on_error = false;
  TaskGraph g(cfg);
  std::atomic<int> ran{0};
  for (int i = 0; i < n_tasks; ++i) {
    g.submit({}, {}, [&ran, i] {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i % 100 == 7) throw std::runtime_error("task failed");
    });
  }
  EXPECT_THROW(g.wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), n_tasks);
  EXPECT_EQ(g.stats().totals().tasks_skipped, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SchedulerStress,
    testing::Values(StressParam{1, PoolMode::Private}, StressParam{2, PoolMode::Private},
                    StressParam{4, PoolMode::Private}, StressParam{8, PoolMode::Private},
                    StressParam{1, PoolMode::Shared}, StressParam{2, PoolMode::Shared},
                    StressParam{4, PoolMode::Shared}, StressParam{8, PoolMode::Shared}),
    param_name);

}  // namespace
}  // namespace camult::rt
