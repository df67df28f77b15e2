// Scheduler overhead: the paper notes that "for a too large number of
// tasks, the time spent in the scheduling can become significant" (Section
// III). This bench measures the runtime's per-task cost directly — empty
// tasks through inline mode and through the priority queue on a private
// worker pool — for wide (independent) and deep (chained) DAGs, plus the
// dependency-inference cost of the tracker.
//
// The per-task nanosecond table across 1/2/4/8 threads is the acceptance
// gauge for the lock-sharded scheduler: on the wide DAG every worker hits
// the ready structure at once, so it exposes queue contention; the chain
// DAG exposes the wakeup (completion -> successor-ready) latency instead.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "runtime/dep_tracker.hpp"

namespace {

using namespace camult;
using Clock = std::chrono::steady_clock;

double run_graph(int threads, int n_tasks, bool chained) {
  const auto t0 = Clock::now();
  {
    rt::TaskGraph g({threads, false});
    rt::TaskId prev = rt::kNoTask;
    for (int i = 0; i < n_tasks; ++i) {
      std::vector<rt::TaskId> deps;
      if (chained && prev != rt::kNoTask) deps.push_back(prev);
      prev = g.submit(deps, {}, [] {});
    }
    g.wait();
  }
  const auto t1 = Clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

double run_tracker(int n_tasks) {
  rt::DepTracker tracker;
  const auto t0 = Clock::now();
  for (int i = 0; i < n_tasks; ++i) {
    // Typical S-task access pattern: 3 reads + 2 writes on tiles.
    std::vector<rt::BlockAccess> acc = {
        {rt::block_key(i % 64, 0), rt::AccessMode::Read},
        {rt::block_key(i % 64, 1), rt::AccessMode::Read},
        {rt::block_key(0, i % 32), rt::AccessMode::Read},
        {rt::block_key(i % 64, i % 32), rt::AccessMode::ReadWrite},
        {rt::block_key(i % 64 + 1, i % 32), rt::AccessMode::ReadWrite},
    };
    (void)tracker.depends(i, acc);
  }
  const auto t1 = Clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  using bench::Table;
  const int n_tasks =
      static_cast<int>(bench::env_idx("CAMULT_BENCH_TASKS", 200000));
  std::printf("Scheduler overhead, %d empty tasks per configuration\n",
              n_tasks);

  Table t({"configuration", "wide ns/task", "chain ns/task",
           "wide DAG (Mtask/s)", "chain DAG (Mtask/s)"});
  auto row = [&](const char* name, int threads) {
    const double wide = run_graph(threads, n_tasks, false);
    const double chain = run_graph(threads, n_tasks, true);
    t.row().cell(name);
    t.cell(wide / n_tasks * 1e9).cell(chain / n_tasks * 1e9);
    t.cell(n_tasks / wide * 1e-6).cell(n_tasks / chain * 1e-6);
  };
  row("inline (0 threads)", 0);
  for (int threads : {1, 2, 4, 8}) {
    char name[64];
    std::snprintf(name, sizeof(name), "pool, %d thread%s", threads,
                  threads == 1 ? "" : "s");
    row(name, threads);
  }
  t.print("Task throughput", bench::csv_path("scheduler_overhead"));
  bench::JsonReport rep("scheduler_overhead", 8);
  rep.add_table(t);
  rep.write();

  const double tracker_s = run_tracker(n_tasks);
  std::printf("\nDepTracker: %.2f Mtask/s (5 accesses per task)\n",
              n_tasks / tracker_s * 1e-6);
  std::printf(
      "\nContext: a b=100 gemm task is ~100us of work, so overheads below\n"
      "~1us/task (1 Mtask/s) are negligible at the paper's granularity; the\n"
      "cost only matters when b is made very small (many tiny tasks), which\n"
      "is the trade-off the paper describes for choosing b and Tr.\n");
  return 0;
}
