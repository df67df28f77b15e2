// test_fault_inject.cpp — the failure-aware runtime: deterministic fault
// injection (FaultInjector), cooperative cancellation (CancelToken), the
// fast-abort drain contract, and the CALU/CAQR drivers under injected
// failures on both private and shared WorkerPools.
//
// The stress tests here are the PR's acceptance harness: hundreds of seeded
// factorizations at a 1% per-task throw rate must all drain cleanly, rethrow
// InjectedFault from the driver, and leave a shared pool reusable; a second
// 200-seed storm drives mixed throw/delay/hang injection through the job
// service with retry, stall watchdog and breakers armed (FaultStorm below),
// including a serial slice that must reproduce bit-for-bit per seed. They
// run under TSAN/ASAN via tools/run_tsan.sh like every other suite.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/test_utils.hpp"
#include "core/calu.hpp"
#include "core/caqr.hpp"
#include "matrix/matrix.hpp"
#include "matrix/random.hpp"
#include "runtime/cancel.hpp"
#include "runtime/fault_inject.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/worker_pool.hpp"
#include "svc/service.hpp"

namespace camult {
namespace {

using rt::FaultConfig;
using rt::FaultInjector;
using rt::InjectedFault;
using rt::TaskGraph;
using rt::TaskId;

// ---- FaultInjector: the decision oracle --------------------------------

TEST(FaultInjector, DecisionsAreDeterministic) {
  FaultConfig cfg;
  cfg.seed = 42;
  cfg.throw_rate = 0.01;
  cfg.delay_rate = 0.05;
  cfg.wake_rate = 0.05;
  FaultInjector a(cfg);
  FaultInjector b(cfg);
  int throws = 0, delays = 0, wakes = 0;
  for (TaskId id = 0; id < 10000; ++id) {
    const auto d = a.decide(id);
    EXPECT_EQ(d, b.decide(id)) << "id " << id;
    EXPECT_EQ(d, a.decide(id)) << "repeat call diverged, id " << id;
    throws += d == FaultInjector::Action::Throw;
    delays += d == FaultInjector::Action::Delay;
    wakes += d == FaultInjector::Action::SpuriousWake;
  }
  // Rates are loose (hash-uniform over 10k ids): just demand each action
  // actually occurs and none dominates far beyond its probability.
  EXPECT_GT(throws, 0);
  EXPECT_LT(throws, 500);
  EXPECT_GT(delays, 0);
  EXPECT_GT(wakes, 0);

  FaultConfig other = cfg;
  other.seed = 43;
  FaultInjector c(other);
  bool differs = false;
  for (TaskId id = 0; id < 10000 && !differs; ++id) {
    differs = c.decide(id) != a.decide(id);
  }
  EXPECT_TRUE(differs) << "seed change did not change the decision pattern";
}

TEST(FaultInjector, RatesAreThresholdsAndTargetingWins) {
  FaultConfig all;
  all.throw_rate = 1.0;
  FaultInjector always(all);
  for (TaskId id = 0; id < 100; ++id) {
    EXPECT_EQ(always.decide(id), FaultInjector::Action::Throw);
  }

  FaultInjector never(FaultConfig{});
  for (TaskId id = 0; id < 100; ++id) {
    EXPECT_EQ(never.decide(id), FaultInjector::Action::None);
  }

  FaultConfig target;
  target.throw_on_task = 7;
  FaultInjector sniper(target);
  for (TaskId id = 0; id < 100; ++id) {
    EXPECT_EQ(sniper.decide(id), id == 7 ? FaultInjector::Action::Throw
                                         : FaultInjector::Action::None);
  }
  EXPECT_FALSE(sniper.before_task(6));
  try {
    sniper.before_task(7);
    FAIL() << "before_task(7) did not throw";
  } catch (const InjectedFault& f) {
    EXPECT_EQ(f.task(), 7);
  }
  EXPECT_EQ(sniper.injected_throws(), 1);
}

TEST(FaultInjector, FromEnvParsesAndFallsBackOnTypos) {
  ASSERT_EQ(std::getenv("CAMULT_FAULT_SEED"), nullptr)
      << "test binary must run without a global fault env";
  setenv("CAMULT_FAULT_SEED", "123", 1);
  setenv("CAMULT_FAULT_THROW_RATE", "0.25", 1);
  setenv("CAMULT_FAULT_DELAY_RATE", "0.5", 1);
  setenv("CAMULT_FAULT_DELAY_US", "7", 1);
  setenv("CAMULT_FAULT_WAKE_RATE", "0.125", 1);
  FaultConfig cfg = FaultConfig::from_env();
  EXPECT_EQ(cfg.seed, 123u);
  EXPECT_DOUBLE_EQ(cfg.throw_rate, 0.25);
  EXPECT_DOUBLE_EQ(cfg.delay_rate, 0.5);
  EXPECT_EQ(cfg.delay_us, 7);
  EXPECT_DOUBLE_EQ(cfg.wake_rate, 0.125);

  // Typos must fall back to defaults, not take the process down.
  setenv("CAMULT_FAULT_THROW_RATE", "banana", 1);
  setenv("CAMULT_FAULT_DELAY_RATE", "1.5", 1);  // out of [0, 1]
  setenv("CAMULT_FAULT_DELAY_US", "-3", 1);
  cfg = FaultConfig::from_env();
  EXPECT_DOUBLE_EQ(cfg.throw_rate, 0.01);
  EXPECT_DOUBLE_EQ(cfg.delay_rate, 0.0);
  EXPECT_EQ(cfg.delay_us, 100);

  // Unset seed disarms everything regardless of the other knobs.
  unsetenv("CAMULT_FAULT_SEED");
  cfg = FaultConfig::from_env();
  EXPECT_EQ(cfg.seed, 0u);
  EXPECT_DOUBLE_EQ(cfg.throw_rate, 0.0);

  unsetenv("CAMULT_FAULT_THROW_RATE");
  unsetenv("CAMULT_FAULT_DELAY_RATE");
  unsetenv("CAMULT_FAULT_DELAY_US");
  unsetenv("CAMULT_FAULT_WAKE_RATE");
}

// ---- Hang injection and retry salts --------------------------------------

TEST(FaultInjector, HangActionIsDecidedSleptAndCounted) {
  FaultConfig cfg;
  cfg.hang_on_task = 3;
  cfg.hang_ms = 20;
  FaultInjector inj(cfg);
  for (TaskId id = 0; id < 10; ++id) {
    EXPECT_EQ(inj.decide(id), id == 3 ? FaultInjector::Action::Hang
                                      : FaultInjector::Action::None);
  }
  // A hang ignores a fired CancelToken by design — that is the fault the
  // stall watchdog exists to detect.
  rt::CancelToken fired;
  fired.request_cancel();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(inj.before_task(3, 0, &fired));
  const auto slept = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(slept.count(), 15);
  EXPECT_EQ(inj.injected_hangs(), 1);
  EXPECT_EQ(inj.injected_delays(), 0);

  // Rate-based hangs share the single decision draw with the other actions.
  FaultConfig all;
  all.seed = 5;
  all.hang_rate = 1.0;
  all.hang_ms = 1;
  FaultInjector saturated(all);
  for (TaskId id = 0; id < 16; ++id) {
    EXPECT_EQ(saturated.decide(id), FaultInjector::Action::Hang);
  }
}

TEST(FaultInjector, SaltZeroMatchesUnsaltedAndDistinctSaltsDecorrelate) {
  FaultConfig cfg;
  cfg.seed = 42;
  cfg.throw_rate = 0.2;
  cfg.delay_rate = 0.2;
  cfg.hang_rate = 0.1;
  FaultInjector inj(cfg);
  bool differs = false;
  for (TaskId id = 0; id < 512; ++id) {
    // Salt 0 IS the unsalted stream (the service's attempt-1 contract:
    // fault-free behaviour stays bitwise PR 7).
    EXPECT_EQ(inj.decide(id), inj.decide(id, 0)) << "id " << id;
    differs |= inj.decide(id, 1) != inj.decide(id, 0);
  }
  EXPECT_TRUE(differs) << "salt 1 replayed salt 0's decisions";

  // Snipers ignore the salt: a deterministic single-point failure must
  // stay deterministic across retries.
  FaultConfig t;
  t.throw_on_task = 5;
  FaultInjector sniper(t);
  EXPECT_EQ(sniper.decide(5, 99), FaultInjector::Action::Throw);
  FaultConfig h;
  h.hang_on_task = 6;
  FaultInjector hsniper(h);
  EXPECT_EQ(hsniper.decide(6, 99), FaultInjector::Action::Hang);
}

TEST(FaultInjector, InjectedDelayIsCancelAware) {
  FaultConfig cfg;
  cfg.seed = 1;
  cfg.delay_rate = 1.0;
  cfg.delay_us = 200000;  // 200 ms if it ran to completion
  FaultInjector inj(cfg);

  // Already-fired token: the delay is skipped outright.
  rt::CancelToken fired;
  fired.request_cancel();
  auto t0 = std::chrono::steady_clock::now();
  inj.before_task(0, 0, &fired);
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
  EXPECT_LT(ms, 50);

  // Fired mid-sleep: abandoned at the next ~0.5 ms slice boundary.
  rt::CancelToken token;
  std::thread firer([token]() mutable {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token.request_cancel();
  });
  t0 = std::chrono::steady_clock::now();
  inj.before_task(1, 0, &token);
  ms = std::chrono::duration_cast<std::chrono::milliseconds>(
           std::chrono::steady_clock::now() - t0)
           .count();
  firer.join();
  EXPECT_LT(ms, 100);
  EXPECT_EQ(inj.injected_delays(), 2);
}

TEST(FaultInjector, FromEnvNamesEachMalformedVariableOnStderr) {
  ASSERT_EQ(std::getenv("CAMULT_FAULT_SEED"), nullptr)
      << "test binary must run without a global fault env";
  setenv("CAMULT_FAULT_SEED", "7", 1);
  setenv("CAMULT_FAULT_THROW_RATE", "banana", 1);
  setenv("CAMULT_FAULT_HANG_RATE", "2.0", 1);  // out of [0, 1]
  setenv("CAMULT_FAULT_HANG_MS", "-5", 1);
  testing::internal::CaptureStderr();
  FaultConfig cfg = FaultConfig::from_env();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("CAMULT_FAULT_THROW_RATE"), std::string::npos) << err;
  EXPECT_NE(err.find("banana"), std::string::npos) << err;
  EXPECT_NE(err.find("CAMULT_FAULT_HANG_RATE"), std::string::npos) << err;
  EXPECT_NE(err.find("CAMULT_FAULT_HANG_MS"), std::string::npos) << err;
  // The typos fell back instead of disarming the whole config.
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_DOUBLE_EQ(cfg.throw_rate, 0.01);
  EXPECT_DOUBLE_EQ(cfg.hang_rate, 0.0);
  EXPECT_EQ(cfg.hang_ms, 100);

  // A clean environment parses silently.
  setenv("CAMULT_FAULT_THROW_RATE", "0.25", 1);
  setenv("CAMULT_FAULT_HANG_RATE", "0.5", 1);
  setenv("CAMULT_FAULT_HANG_MS", "12", 1);
  testing::internal::CaptureStderr();
  cfg = FaultConfig::from_env();
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_DOUBLE_EQ(cfg.hang_rate, 0.5);
  EXPECT_EQ(cfg.hang_ms, 12);

  unsetenv("CAMULT_FAULT_SEED");
  unsetenv("CAMULT_FAULT_THROW_RATE");
  unsetenv("CAMULT_FAULT_HANG_RATE");
  unsetenv("CAMULT_FAULT_HANG_MS");
}

// ---- TaskGraph under injection -----------------------------------------

// 400 independent tasks at a 5% throw rate under `seed`, on 4 threads of
// the graph's own pool (pool == nullptr) or of `pool`.
void faulted_independent_run(std::uint64_t seed, rt::WorkerPool* pool) {
  FaultConfig fc;
  fc.seed = seed;
  fc.throw_rate = 0.05;
  FaultInjector inj(fc);
  TaskGraph::Config cfg;
  cfg.num_threads = 4;
  cfg.record_trace = false;
  cfg.pool = pool;
  cfg.fault = &inj;
  TaskGraph g(cfg);
  std::atomic<int> ran{0};
  const int n_tasks = 400;
  for (int i = 0; i < n_tasks; ++i) {
    g.submit({}, {}, [&ran] { ran.fetch_add(1); });
  }
  bool threw = false;
  try {
    g.wait();
  } catch (const InjectedFault&) {
    threw = true;
  }
  const auto totals = g.stats().totals();
  EXPECT_EQ(totals.tasks_executed + totals.tasks_skipped, n_tasks);
  EXPECT_EQ(totals.tasks_executed, ran.load() + inj.injected_throws());
  EXPECT_EQ(threw, inj.injected_throws() > 0);
  // 0.05 over 400 independent ids: some seed-dependent set of tasks must
  // have been hit (P(none) ~ 1e-9 per seed).
  EXPECT_TRUE(threw) << "seed " << seed;
}

TEST(FaultedGraph, DrainsAndRethrowsAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    faulted_independent_run(seed, nullptr);
  }
}

TEST(FaultedGraph, DrainsAndRethrowsAcrossSeedsOnSharedPool) {
  // One pool serves every faulted graph in turn, then a clean one: no
  // failure may leave a worker wedged or a task behind.
  rt::WorkerPool pool(rt::WorkerPoolConfig{4, false});
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    faulted_independent_run(seed, &pool);
  }
  TaskGraph::Config cfg;
  cfg.record_trace = false;
  cfg.pool = &pool;
  TaskGraph g(cfg);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) g.submit({}, {}, [&ran] { ran.fetch_add(1); });
  g.wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(FaultedGraph, TargetedFailureFastAbortsTheChain) {
  FaultConfig fc;
  fc.throw_on_task = 0;
  FaultInjector inj(fc);
  TaskGraph::Config cfg;
  cfg.num_threads = 2;
  cfg.record_trace = false;
  cfg.fault = &inj;
  TaskGraph g(cfg);
  std::atomic<int> ran{0};
  TaskId prev = rt::kNoTask;
  for (int i = 0; i < 64; ++i) {
    std::vector<TaskId> deps;
    if (prev != rt::kNoTask) deps.push_back(prev);
    prev = g.submit(deps, {}, [&ran] { ran.fetch_add(1); });
  }
  EXPECT_THROW(g.wait(), InjectedFault);
  const auto totals = g.stats().totals();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(totals.tasks_executed, 1);  // the throwing head
  EXPECT_EQ(totals.tasks_skipped, 63);
  EXPECT_TRUE(g.aborted());
}

TEST(FaultedGraph, DelaysAndSpuriousWakesAreHarmless) {
  FaultConfig fc;
  fc.seed = 7;
  fc.delay_rate = 0.2;
  fc.delay_us = 50;
  fc.wake_rate = 0.2;
  FaultInjector inj(fc);
  TaskGraph::Config cfg;
  cfg.num_threads = 4;
  cfg.record_trace = false;
  cfg.fault = &inj;
  TaskGraph g(cfg);
  std::atomic<long> sum{0};
  const int n_tasks = 200;
  for (int i = 0; i < n_tasks; ++i) {
    g.submit({}, {}, [&sum, i] { sum.fetch_add(i); });
  }
  g.wait();
  EXPECT_EQ(sum.load(), static_cast<long>(n_tasks) * (n_tasks - 1) / 2);
  EXPECT_EQ(g.stats().totals().tasks_executed, n_tasks);
  EXPECT_GT(inj.injected_delays(), 0);
  EXPECT_GT(inj.injected_wakes(), 0);
  EXPECT_EQ(inj.injected_throws(), 0);
}

// ---- CancelToken --------------------------------------------------------

TEST(Cancel, TokenSkipsRemainingWorkAndWaitThrows) {
  rt::CancelToken token;
  TaskGraph::Config cfg;
  cfg.num_threads = 2;
  cfg.record_trace = false;
  cfg.cancel = token;
  TaskGraph g(cfg);
  std::atomic<int> ran{0};
  const TaskId head = g.submit({}, {}, [token] { token.request_cancel(); });
  for (int i = 0; i < 100; ++i) {
    g.submit({head}, {}, [&ran] { ran.fetch_add(1); });
  }
  EXPECT_THROW(g.wait(), rt::CancelledError);
  EXPECT_EQ(ran.load(), 0);
  const auto totals = g.stats().totals();
  EXPECT_EQ(totals.tasks_executed, 1);
  EXPECT_EQ(totals.tasks_skipped, 100);
  EXPECT_TRUE(token.cancelled());
}

TEST(Cancel, WorksInInlineMode) {
  rt::CancelToken token;
  TaskGraph::Config cfg;
  cfg.num_threads = 0;
  cfg.record_trace = false;
  cfg.cancel = token;
  TaskGraph g(cfg);
  bool after_ran = false;
  g.submit({}, {}, [token] { token.request_cancel(); });
  g.submit({}, {}, [&after_ran] { after_ran = true; });
  EXPECT_THROW(g.wait(), rt::CancelledError);
  EXPECT_FALSE(after_ran);
  EXPECT_EQ(g.stats().totals().tasks_skipped, 1);
}

TEST(Cancel, TaskErrorWinsOverCancellation) {
  rt::CancelToken token;
  TaskGraph::Config cfg;
  cfg.num_threads = 2;
  cfg.record_trace = false;
  cfg.cancel = token;
  TaskGraph g(cfg);
  g.submit({}, {}, [token] {
    token.request_cancel();
    throw std::runtime_error("real failure");
  });
  try {
    g.wait();
    FAIL() << "wait() did not throw";
  } catch (const rt::CancelledError&) {
    FAIL() << "cancel masked the task error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "real failure");
  }
}

// ---- WorkerPool isolation ----------------------------------------------

TEST(FaultedPool, AbortedGraphDoesNotWedgeSiblingsOrPoisonThePool) {
  rt::WorkerPool pool({4});
  FaultConfig fc;
  fc.throw_on_task = 0;
  FaultInjector inj(fc);
  {
    TaskGraph::Config bad_cfg;
    bad_cfg.num_threads = 4;
    bad_cfg.record_trace = false;
    bad_cfg.pool = &pool;
    bad_cfg.fault = &inj;
    TaskGraph bad(bad_cfg);

    TaskGraph::Config good_cfg;
    good_cfg.num_threads = 4;
    good_cfg.record_trace = false;
    good_cfg.pool = &pool;
    TaskGraph good(good_cfg);

    std::atomic<int> bad_ran{0};
    TaskId prev = bad.submit({}, {}, [] {});
    for (int i = 0; i < 40; ++i) {
      prev = bad.submit({prev}, {}, [&bad_ran] { bad_ran.fetch_add(1); });
    }
    std::atomic<int> good_ran{0};
    for (int i = 0; i < 200; ++i) {
      good.submit({}, {}, [&good_ran] { good_ran.fetch_add(1); });
    }
    EXPECT_THROW(bad.wait(), InjectedFault);
    good.wait();  // the sibling must be unaffected by bad's abort
    EXPECT_EQ(good_ran.load(), 200);
    EXPECT_EQ(bad_ran.load(), 0);
  }
  // The pool outlives the aborted graph and still runs fresh work.
  TaskGraph::Config cfg;
  cfg.num_threads = 4;
  cfg.record_trace = false;
  cfg.pool = &pool;
  TaskGraph again(cfg);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    again.submit({}, {}, [&ran] { ran.fetch_add(1); });
  }
  again.wait();
  EXPECT_EQ(ran.load(), 100);
}

// ---- Driver-level stress: CALU / CAQR under a 1% throw rate -------------
//
// The acceptance sweep: >= 200 seeded runs split across CALU/CAQR and
// private/shared pools. Every run must either complete or rethrow
// InjectedFault from the driver after a clean drain; a shared pool must
// stay usable across (and after) the failures.

struct SweepCounts {
  int completed = 0;
  int faulted = 0;
};

template <typename Factor>
SweepCounts faulted_sweep(int runs, std::uint64_t seed0, Factor&& factor) {
  SweepCounts counts;
  for (int r = 0; r < runs; ++r) {
    FaultConfig fc;
    fc.seed = seed0 + static_cast<std::uint64_t>(r);
    fc.throw_rate = 0.01;
    FaultInjector inj(fc);
    Matrix a = random_matrix(64, 64, 1000 + r);
    try {
      factor(a.view(), &inj);
      ++counts.completed;
      EXPECT_EQ(inj.injected_throws(), 0);
    } catch (const InjectedFault&) {
      ++counts.faulted;
      EXPECT_GE(inj.injected_throws(), 1);
    }
  }
  return counts;
}

TEST(FaultedDrivers, SeededCaluSweepOwnedAndPooled) {
  core::CaluOptions opts;
  opts.b = 8;
  opts.tr = 2;
  opts.num_threads = 4;
  opts.record_trace = false;
  const SweepCounts private_pool =
      faulted_sweep(60, 100, [&](MatrixView a, FaultInjector* inj) {
        core::CaluOptions o = opts;
        o.fault = inj;
        (void)core::calu_factor(a, o);
      });
  EXPECT_EQ(private_pool.completed + private_pool.faulted, 60);
  EXPECT_GT(private_pool.faulted, 0);
  EXPECT_GT(private_pool.completed, 0);

  rt::WorkerPool pool({4});
  core::CaluOptions popts = opts;
  popts.pool = &pool;
  const SweepCounts pooled =
      faulted_sweep(60, 200, [&](MatrixView a, FaultInjector* inj) {
        core::CaluOptions o = popts;
        o.fault = inj;
        (void)core::calu_factor(a, o);
      });
  EXPECT_EQ(pooled.completed + pooled.faulted, 60);
  EXPECT_GT(pooled.faulted, 0);
  EXPECT_GT(pooled.completed, 0);

  // After dozens of aborted runs the pool still factors cleanly.
  Matrix a = random_matrix(64, 64, 4242);
  core::CaluResult res = core::calu_factor(a.view(), popts);
  EXPECT_EQ(res.info, 0);
}

TEST(FaultedDrivers, SeededCaqrSweepOwnedAndPooled) {
  core::CaqrOptions opts;
  opts.b = 8;
  opts.tr = 2;
  opts.num_threads = 4;
  opts.record_trace = false;
  const SweepCounts private_pool =
      faulted_sweep(40, 300, [&](MatrixView a, FaultInjector* inj) {
        core::CaqrOptions o = opts;
        o.fault = inj;
        (void)core::caqr_factor(a, o);
      });
  EXPECT_EQ(private_pool.completed + private_pool.faulted, 40);
  EXPECT_GT(private_pool.faulted, 0);
  EXPECT_GT(private_pool.completed, 0);

  rt::WorkerPool pool({4});
  core::CaqrOptions popts = opts;
  popts.pool = &pool;
  const SweepCounts pooled =
      faulted_sweep(40, 400, [&](MatrixView a, FaultInjector* inj) {
        core::CaqrOptions o = popts;
        o.fault = inj;
        (void)core::caqr_factor(a, o);
      });
  EXPECT_EQ(pooled.completed + pooled.faulted, 40);
  EXPECT_GT(pooled.faulted, 0);
  EXPECT_GT(pooled.completed, 0);

  Matrix a = random_matrix(64, 64, 4243);
  core::CaqrResult res = core::caqr_factor(a.view(), popts);
  EXPECT_EQ(res.health.nan_detected, false);
}

TEST(FaultedDrivers, DelayAndWakeInjectionPreservesBitExactResults) {
  Matrix clean = random_matrix(96, 96, 555);
  core::CaluOptions opts;
  opts.b = 16;
  opts.tr = 2;
  opts.num_threads = 4;
  opts.record_trace = false;
  Matrix noisy = clean;
  const core::CaluResult ref = core::calu_factor(clean.view(), opts);

  FaultConfig fc;
  fc.seed = 99;
  fc.delay_rate = 0.15;
  fc.delay_us = 30;
  fc.wake_rate = 0.15;
  FaultInjector inj(fc);
  core::CaluOptions fopts = opts;
  fopts.fault = &inj;
  const core::CaluResult got = core::calu_factor(noisy.view(), fopts);

  EXPECT_EQ(got.info, ref.info);
  EXPECT_EQ(got.ipiv, ref.ipiv);
  EXPECT_EQ(test::max_diff(clean.view(), noisy.view()), 0.0);
  EXPECT_GT(inj.injected_delays() + inj.injected_wakes(), 0);
}

// ---- Fast-abort economics on a real DAG ---------------------------------
//
// Acceptance criterion: killing panel 0's first task of a 32-panel CALU
// must abort the run after executing < 20% of the full DAG. sched_out is
// the escape hatch that lets us observe the executed count even though
// calu_factor throws away its result.

TEST(FaultedDrivers, PanelZeroFailureSkipsMostOfTheDag) {
  core::CaluOptions opts;
  opts.b = 8;
  opts.tr = 2;
  opts.num_threads = 4;
  opts.record_trace = false;

  Matrix a = random_matrix(256, 256, 777);
  rt::SchedulerStats base_sched;
  core::CaluOptions base = opts;
  base.sched_out = &base_sched;
  (void)core::calu_factor(a.view(), base);
  const std::int64_t full = base_sched.totals().tasks_executed;
  ASSERT_GT(full, 100);  // 32 panels: the DAG is genuinely large

  FaultConfig fc;
  fc.throw_on_task = 0;  // panel 0's first tournament leaf
  FaultInjector inj(fc);
  Matrix b = random_matrix(256, 256, 777);
  rt::SchedulerStats fault_sched;
  core::CaluOptions fopts = opts;
  fopts.fault = &inj;
  fopts.sched_out = &fault_sched;
  EXPECT_THROW((void)core::calu_factor(b.view(), fopts), InjectedFault);

  const auto totals = fault_sched.totals();
  EXPECT_EQ(inj.injected_throws(), 1);
  EXPECT_GT(totals.tasks_skipped, 0);
  EXPECT_LT(totals.tasks_executed, full / 5)
      << "fast-abort executed " << totals.tasks_executed << " of " << full;
}

// ---- Mid-batch cancellation ---------------------------------------------
//
// The batch drivers translate a fired CancelToken into per-job results
// (CaluResult/CaqrResult::cancelled) instead of throwing: jobs collected
// before the fire keep their factorization, later jobs come back cancelled,
// and the pool must stay reusable. The single-problem drivers still throw
// (CancelTokenAbortsCalu above); these tests pin the batch contract.

TEST(BatchCancel, PreFiredTokenCancelsWholeCaluBatchInline) {
  core::CaluOptions opts;
  opts.b = 8;
  opts.tr = 2;
  opts.num_threads = 0;  // inline mode: one problem at a time
  opts.record_trace = false;
  opts.cancel.request_cancel();
  std::vector<Matrix> ms;
  std::vector<MatrixView> views;
  for (int i = 0; i < 3; ++i) {
    ms.push_back(random_matrix(48, 48, 9000 + i));
  }
  for (Matrix& m : ms) views.push_back(m.view());
  const std::vector<core::CaluResult> res =
      core::calu_factor_batch(views, opts);
  ASSERT_EQ(res.size(), views.size());
  for (const core::CaluResult& r : res) {
    EXPECT_TRUE(r.cancelled);
    // The submission pump checks the token before every iteration, so a
    // pre-fired token stops it before the first task: nothing ran or was
    // even submitted to be skipped.
    EXPECT_EQ(r.sched.totals().tasks_executed, 0);
    EXPECT_EQ(r.sched.totals().tasks_skipped, 0);
  }
}

TEST(BatchCancel, PreFiredTokenCancelsWholeCaqrBatchInline) {
  core::CaqrOptions opts;
  opts.b = 8;
  opts.tr = 2;
  opts.num_threads = 0;
  opts.record_trace = false;
  opts.cancel.request_cancel();
  std::vector<Matrix> ms;
  std::vector<MatrixView> views;
  for (int i = 0; i < 3; ++i) {
    ms.push_back(random_matrix(64, 32, 9100 + i));
  }
  for (Matrix& m : ms) views.push_back(m.view());
  const std::vector<core::CaqrResult> res =
      core::caqr_factor_batch(views, opts);
  ASSERT_EQ(res.size(), views.size());
  for (const core::CaqrResult& r : res) {
    EXPECT_TRUE(r.cancelled);
    EXPECT_EQ(r.sched.totals().tasks_executed, 0);
  }
}

// Fire the token after the pool has fully drained (detached) the first k
// graphs of the batch. Collection is positional, so detachment order IS
// result order: results [0, k) must be completed factorizations, every
// result must exist (no wedge), and the pool must keep working afterwards.
TEST(BatchCancel, MidBatchCaluCancelKeepsCompletedPrefixAndDrains) {
  rt::WorkerPool pool({4});
  const std::int64_t detached0 = pool.stats().graphs_detached;
  const int n_jobs = 8;
  const int k = 2;

  core::CaluOptions opts;
  opts.b = 8;
  opts.tr = 2;
  opts.pool = &pool;
  opts.num_threads = 4;
  opts.record_trace = false;
  std::vector<Matrix> ms;
  std::vector<MatrixView> views;
  for (int i = 0; i < n_jobs; ++i) {
    ms.push_back(random_matrix(96, 96, 9200 + i));
  }
  for (Matrix& m : ms) views.push_back(m.view());

  std::vector<core::CaluResult> res;
  std::thread collector(
      [&] { res = core::calu_factor_batch(views, opts); });
  while (pool.stats().graphs_detached < detached0 + k) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  opts.cancel.request_cancel();
  collector.join();

  ASSERT_EQ(res.size(), static_cast<std::size_t>(n_jobs));
  int completed = 0;
  for (int i = 0; i < n_jobs; ++i) {
    if (!res[static_cast<std::size_t>(i)].cancelled) {
      ++completed;
      EXPECT_EQ(res[static_cast<std::size_t>(i)].info, 0) << "job " << i;
      EXPECT_FALSE(res[static_cast<std::size_t>(i)].ipiv.empty())
          << "job " << i;
    }
  }
  // The k graphs that detached before the fire were collected uncancelled.
  EXPECT_GE(completed, k);
  for (int i = 0; i < k; ++i) {
    EXPECT_FALSE(res[static_cast<std::size_t>(i)].cancelled) << "job " << i;
  }

  // No wedge: the pool still factors fresh work after the cancelled batch.
  Matrix again = random_matrix(64, 64, 9999);
  core::CaluOptions fresh = opts;
  fresh.cancel = rt::CancelToken();
  EXPECT_EQ(core::calu_factor(again.view(), fresh).info, 0);
}

TEST(BatchCancel, MidBatchCaqrCancelKeepsCompletedPrefixAndDrains) {
  rt::WorkerPool pool({4});
  const std::int64_t detached0 = pool.stats().graphs_detached;
  const int n_jobs = 6;
  const int k = 2;

  core::CaqrOptions opts;
  opts.b = 8;
  opts.tr = 2;
  opts.pool = &pool;
  opts.num_threads = 4;
  opts.record_trace = false;
  std::vector<Matrix> ms;
  std::vector<MatrixView> views;
  for (int i = 0; i < n_jobs; ++i) {
    ms.push_back(random_matrix(128, 48, 9300 + i));
  }
  for (Matrix& m : ms) views.push_back(m.view());

  std::vector<core::CaqrResult> res;
  std::thread collector(
      [&] { res = core::caqr_factor_batch(views, opts); });
  while (pool.stats().graphs_detached < detached0 + k) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  opts.cancel.request_cancel();
  collector.join();

  ASSERT_EQ(res.size(), static_cast<std::size_t>(n_jobs));
  for (int i = 0; i < k; ++i) {
    EXPECT_FALSE(res[static_cast<std::size_t>(i)].cancelled) << "job " << i;
    EXPECT_FALSE(res[static_cast<std::size_t>(i)].iterations.empty())
        << "job " << i;
  }

  Matrix again = random_matrix(64, 32, 9998);
  core::CaqrOptions fresh = opts;
  fresh.cancel = rt::CancelToken();
  EXPECT_FALSE(core::caqr_factor(again.view(), fresh).health.nan_detected);
}

// Regression for the cancel-aware delay path at DAG scale: a cancelled
// graph whose every task would sleep 100 ms must drain in a fraction of
// the 3.2 s the delays would cost uncancelled — tasks not yet started are
// skipped, and in-flight delays abandon at the next ~0.5 ms slice.
TEST(FaultedGraph, CancelledDagWithSaturatedDelaysDrainsFast) {
  FaultConfig fc;
  fc.seed = 3;
  fc.delay_rate = 1.0;
  fc.delay_us = 100000;
  FaultInjector inj(fc);
  rt::CancelToken token;
  TaskGraph::Config cfg;
  cfg.num_threads = 2;
  cfg.record_trace = false;
  cfg.fault = &inj;
  cfg.cancel = token;
  TaskGraph g(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  g.submit({}, {}, [token] { token.request_cancel(); });
  for (int i = 0; i < 64; ++i) {
    g.submit({}, {}, [] {});
  }
  EXPECT_THROW(g.wait(), rt::CancelledError);
  const auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  const auto totals = g.stats().totals();
  EXPECT_EQ(totals.tasks_executed + totals.tasks_skipped, 65);
  EXPECT_GT(totals.tasks_skipped, 0);
  EXPECT_LT(wall.count(), 1500)
      << "injected delays out-slept the cancellation";
}

TEST(FaultedDrivers, CancelTokenAbortsCalu) {
  core::CaluOptions opts;
  opts.b = 8;
  opts.tr = 2;
  opts.num_threads = 4;
  opts.record_trace = false;
  opts.cancel.request_cancel();  // cancelled before the run even starts
  rt::SchedulerStats sched;
  opts.sched_out = &sched;
  Matrix a = random_matrix(128, 128, 888);
  EXPECT_THROW((void)core::calu_factor(a.view(), opts), rt::CancelledError);
  // The pump stops before submitting the first iteration.
  EXPECT_EQ(sched.totals().tasks_executed, 0);
  EXPECT_EQ(sched.totals().tasks_skipped, 0);
}

// ---- Service-level fault storm ------------------------------------------
//
// The self-healing acceptance sweep: 200 seeded storms through the job
// service with mixed throw/delay/hang injection (1–5% rates), retry, stall
// watchdog and per-tenant breakers all armed, jobs spread over both kinds,
// all three QoS classes and two tenants. Every storm must drain — every
// handle terminal, nothing queued, running, or parked in retry backoff —
// and the pool must survive all 200. A serial-dispatch slice is then
// re-run to pin determinism: per-job (status, attempts, backoff) and the
// retry/stall/breaker counters must reproduce bit-for-bit given the seed.

struct StormResult {
  std::vector<svc::JobStatus> status;
  std::vector<int> attempts;
  std::vector<double> backoff_ms;
  std::int64_t retries = 0;
  std::int64_t stalls = 0;
  std::int64_t breaker_opens = 0;
};

StormResult run_storm(rt::WorkerPool& pool, std::uint64_t seed,
                      int max_inflight, bool paced, int hang_ms,
                      int stall_ms) {
  FaultConfig fc;
  fc.seed = rt::splitmix64(seed * 0x9E3779B97F4A7C15ull + 1);
  fc.throw_rate = 0.02;
  fc.delay_rate = 0.05;
  fc.delay_us = 200;
  fc.hang_rate = 0.01;
  fc.hang_ms = hang_ms;
  FaultInjector inj(fc);

  svc::ServiceConfig cfg;
  cfg.pool = &pool;
  cfg.max_inflight = max_inflight;
  cfg.fault = &inj;
  cfg.retry.max_attempts = 2;
  cfg.retry.base = std::chrono::milliseconds(1);
  cfg.retry.cap = std::chrono::milliseconds(2);
  cfg.retry.jitter_seed = seed;
  cfg.breaker.enabled = true;
  cfg.breaker.window = 4;
  cfg.breaker.min_samples = 2;
  cfg.breaker.failure_threshold = 0.5;
  cfg.breaker.open_for = std::chrono::milliseconds(5);
  cfg.stall_timeout = std::chrono::milliseconds(stall_ms);
  svc::Service service(cfg);

  const int n_jobs = 6;
  std::vector<Matrix> mats;
  std::vector<svc::JobHandle> handles;
  mats.reserve(n_jobs);
  for (int i = 0; i < n_jobs; ++i) {
    mats.push_back(random_matrix(
        32, 32, static_cast<unsigned>(seed * 100 + i)));
    svc::JobRequest req;
    req.kind = i % 2 == 0 ? svc::JobKind::CaluFactor
                          : svc::JobKind::CaqrFactor;
    req.a = mats.back().view();
    req.b = 8;
    req.tr = 2;
    req.qos = static_cast<svc::QosClass>(i % 3);
    req.tenant = i % 2 == 0 ? "storm-a" : "storm-b";
    handles.push_back(service.submit(req).handle);
    // Paced storms give earlier jobs time to finish so breakers can open
    // mid-stream and shed later arrivals; the determinism slice submits
    // everything up front so admission decisions cannot depend on timing.
    if (paced) std::this_thread::sleep_for(std::chrono::microseconds(500));
  }

  StormResult res;
  for (const svc::JobHandle& h : handles) {
    const svc::JobOutcome& out = h.wait();
    res.status.push_back(out.status);
    res.attempts.push_back(out.attempts);
    res.backoff_ms.push_back(out.backoff_ms);
  }
  // Handles turning terminal slightly precedes the runner releasing its
  // slot; drain() is the proper "nothing queued, running, or parked"
  // barrier to snapshot stats against.
  service.drain();
  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queued, 0u) << "seed " << seed;
  EXPECT_EQ(stats.inflight, 0) << "seed " << seed;
  EXPECT_EQ(stats.retry_pending, 0u) << "seed " << seed;
  for (const auto& [tenant, qs] : stats.per_tenant) {
    res.retries += qs.retries;
    res.stalls += qs.stalls_detected;
  }
  for (const auto& [tenant, bs] : stats.breakers) {
    res.breaker_opens += bs.opens;
  }
  return res;
}

TEST(FaultStorm, TwoHundredSeededStormsAllDrainThroughTheService) {
  rt::WorkerPool pool({2});
  std::int64_t total_retries = 0, total_stalls = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const StormResult res = run_storm(pool, seed, 2, /*paced=*/true,
                                      /*hang_ms=*/12, /*stall_ms=*/4);
    ASSERT_EQ(res.status.size(), 6u) << "seed " << seed;
    total_retries += res.retries;
    total_stalls += res.stalls;
  }
  // 1–5% rates over 200 storms: the sweep must actually have exercised the
  // machinery it claims to cover.
  EXPECT_GT(total_retries, 0);
  EXPECT_GT(total_stalls, 0);

  // 200 storms later the pool still factors cleanly.
  Matrix a = random_matrix(64, 64, 123456);
  core::CaluOptions opts;
  opts.b = 16;
  opts.tr = 2;
  opts.pool = &pool;
  opts.num_threads = pool.size();
  opts.record_trace = false;
  EXPECT_EQ(core::calu_factor(a.view(), opts).info, 0);
}

TEST(FaultStorm, SerialStormsReproduceBitForBitGivenTheSeed) {
  // One worker + one runner + up-front submission: dispatch order, fault
  // decisions, stall detections, the retry schedule and breaker
  // transitions are all functions of the seed. The hang/timeout margin is
  // wide here (60 ms hangs against a 20 ms timeout) so detection is
  // certain for every injected hang and scheduler-preemption jitter on a
  // loaded single-core host cannot manufacture a borderline extra stall.
  rt::WorkerPool pool({1});
  for (std::uint64_t seed = 3; seed < 24; seed += 6) {
    const StormResult first = run_storm(pool, seed, 1, /*paced=*/false,
                                        /*hang_ms=*/60, /*stall_ms=*/20);
    const StormResult again = run_storm(pool, seed, 1, /*paced=*/false,
                                        /*hang_ms=*/60, /*stall_ms=*/20);
    EXPECT_EQ(first.status, again.status) << "seed " << seed;
    EXPECT_EQ(first.attempts, again.attempts) << "seed " << seed;
    EXPECT_EQ(first.backoff_ms, again.backoff_ms) << "seed " << seed;
    EXPECT_EQ(first.retries, again.retries) << "seed " << seed;
    EXPECT_EQ(first.stalls, again.stalls) << "seed " << seed;
    EXPECT_EQ(first.breaker_opens, again.breaker_opens) << "seed " << seed;
  }
}

}  // namespace
}  // namespace camult
