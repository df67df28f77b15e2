// Observability surface: scheduler counters (SchedulerStats), the chrome
// trace-event exporter, and the machine-readable bench report writer.
//
// The counter tests pin the exact values a deterministic single-worker (or
// inline) run must produce.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support/json.hpp"
#include "bench_support/json_report.hpp"
#include "bench_support/runner.hpp"
#include "runtime/chrome_trace.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/trace.hpp"
#include "runtime/worker_pool.hpp"

namespace camult {
namespace {

using bench::JsonValue;

// --- SchedulerStats --------------------------------------------------------

TEST(SchedulerStats, SingleWorkerCentralExactCounts) {
  constexpr int kTasks = 37;
  rt::TaskGraph g({1, true});
  std::atomic<int> ran{0};
  rt::TaskId prev = rt::kNoTask;
  for (int i = 0; i < kTasks; ++i) {
    std::vector<rt::TaskId> deps;
    if (prev != rt::kNoTask) deps.push_back(prev);
    prev = g.submit(deps, {}, [&] { ++ran; });
  }
  g.wait();
  const rt::SchedulerStats s = g.stats();
  ASSERT_EQ(s.workers.size(), 1u);
  const rt::WorkerStats t = s.totals();
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(t.tasks_executed, kTasks);
  // Every executed task was popped from the priority buckets.
  EXPECT_EQ(t.local_pops, kTasks);
  EXPECT_GT(t.inbox_drains, 0);
  // record_trace is on, so busy time is accumulated from the trace stamps.
  EXPECT_GT(t.busy_ns, 0);
}

TEST(SchedulerStats, SharedPoolSingleWorkerExactCounts) {
  // Graphs run one after another on a caller's one-worker pool: each
  // graph's counters start from zero and count only its own tasks.
  constexpr int kTasks = 37;
  rt::WorkerPool pool(rt::WorkerPoolConfig{1, false});
  for (int run = 0; run < 2; ++run) {
    rt::TaskGraph::Config cfg;
    cfg.pool = &pool;
    rt::TaskGraph g(cfg);
    std::atomic<int> ran{0};
    for (int i = 0; i < kTasks; ++i) g.submit({}, {}, [&] { ++ran; });
    g.wait();
    const rt::SchedulerStats s = g.stats();
    ASSERT_EQ(s.workers.size(), 1u);
    const rt::WorkerStats t = s.totals();
    EXPECT_EQ(ran.load(), kTasks) << "run " << run;
    EXPECT_EQ(t.tasks_executed, kTasks) << "run " << run;
    EXPECT_EQ(t.tasks_skipped, 0) << "run " << run;
    EXPECT_EQ(t.local_pops, kTasks) << "run " << run;
  }
}

TEST(SchedulerStats, InlineModeAccountsToWorkerZero) {
  rt::TaskGraph g({0, true});
  for (int i = 0; i < 5; ++i) g.submit({}, {}, [] {});
  g.wait();
  const rt::SchedulerStats s = g.stats();
  ASSERT_EQ(s.workers.size(), 1u);
  EXPECT_EQ(s.workers[0].tasks_executed, 5);
  EXPECT_GT(s.workers[0].busy_ns, 0);
  EXPECT_EQ(s.workers[0].wakeups_sent, 0);  // inline mode never wakes
}

TEST(SchedulerStats, TotalsSumAcrossWorkersAndFoldSubmitWakeups) {
  rt::SchedulerStats s;
  s.workers.resize(2);
  s.workers[0].tasks_executed = 3;
  s.workers[0].wakeups_sent = 1;
  s.workers[1].tasks_executed = 4;
  s.workers[1].local_pops = 7;
  s.submit_wakeups = 5;
  const rt::WorkerStats t = s.totals();
  EXPECT_EQ(t.tasks_executed, 7);
  EXPECT_EQ(t.local_pops, 7);
  EXPECT_EQ(t.wakeups_sent, 6);  // worker relays + submission-side wakeups
}

TEST(SchedulerStats, FoldedIntoTraceStats) {
  rt::TaskGraph g({1, true});
  for (int i = 0; i < 3; ++i) g.submit({}, {}, [] {});
  g.wait();
  const rt::TraceStats st = rt::compute_stats(g.trace(), 1, g.stats());
  EXPECT_EQ(st.sched.totals().tasks_executed, 3);
}

// --- chrome trace export ---------------------------------------------------

std::vector<rt::TaskRecord> tiny_trace() {
  std::vector<rt::TaskRecord> recs(3);
  recs[0].id = 0;
  recs[0].kind = rt::TaskKind::Panel;
  recs[0].worker = 0;
  recs[0].start_ns = 0;
  recs[0].end_ns = 1500;
  recs[0].label = "needs \"escaping\"\nand a \\ backslash";
  recs[1].id = 1;
  recs[1].worker = 1;
  recs[1].start_ns = 1000;
  recs[1].end_ns = 2000;
  recs[2].id = 2;
  recs[2].worker = -1;  // simulated / unknown worker maps to tid 0
  recs[2].start_ns = 2000;
  recs[2].end_ns = 2000;  // zero duration must survive
  return recs;
}

TEST(ChromeTrace, OutputIsValidJsonArray) {
  const auto recs = tiny_trace();
  const std::vector<rt::TaskGraph::Edge> edges = {{0, 1}, {1, 2}};
  std::ostringstream os;
  rt::write_chrome_trace(os, recs, edges);
  const JsonValue root = JsonValue::parse(os.str());
  ASSERT_TRUE(root.is_array());
  int x_events = 0, flow_starts = 0, flow_ends = 0, meta = 0, counters = 0;
  for (const JsonValue& ev : root.array) {
    ASSERT_TRUE(ev.is_object());
    const JsonValue* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is_string());
    if (ph->string == "X") ++x_events;
    if (ph->string == "s") ++flow_starts;
    if (ph->string == "f") ++flow_ends;
    if (ph->string == "M") ++meta;
    if (ph->string == "C") ++counters;
  }
  EXPECT_EQ(x_events, 3);
  EXPECT_EQ(flow_starts, 2);
  EXPECT_EQ(flow_ends, 2);
  EXPECT_GT(meta, 0);
  EXPECT_GT(counters, 0);
}

TEST(ChromeTrace, EscapesLabelsLosslessly) {
  const auto recs = tiny_trace();
  std::ostringstream os;
  rt::write_chrome_trace(os, recs, {});
  const JsonValue root = JsonValue::parse(os.str());
  bool found = false;
  for (const JsonValue& ev : root.array) {
    const JsonValue* ph = ev.find("ph");
    const JsonValue* name = ev.find("name");
    if (ph != nullptr && ph->string == "X" && name != nullptr &&
        name->string.find("escaping") != std::string::npos) {
      // The parsed name must contain the raw quote/newline/backslash again.
      EXPECT_NE(name->string.find("needs \"escaping\"\nand a \\ backslash"),
                std::string::npos);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ChromeTrace, LiveSchedulerRunExports) {
  rt::TaskGraph g({2, true});
  rt::TaskId a = g.submit({}, {.priority = 0, .kind = rt::TaskKind::Panel,
                               .iteration = 0, .label = "root"},
                          [] {});
  g.submit({a}, {.priority = 0, .kind = rt::TaskKind::Update, .iteration = 0,
                 .label = "child"},
           [] {});
  g.wait();
  std::ostringstream os;
  rt::write_chrome_trace(os, g.trace(), g.edges());
  const JsonValue root = JsonValue::parse(os.str());
  ASSERT_TRUE(root.is_array());
  EXPECT_GE(root.array.size(), 2u);
}

TEST(ChromeTrace, FileWriterRejectsBadPath) {
  EXPECT_THROW(
      rt::write_chrome_trace_file("/nonexistent-dir/x/y.json", {}, {}),
      std::runtime_error);
}

// --- JSON bench reports ----------------------------------------------------

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) old_ = old;
    had_old_ = old != nullptr;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string old_;
  bool had_old_ = false;
};

TEST(JsonReport, PathEmptyWithoutEnv) {
  ::unsetenv("CAMULT_BENCH_JSON");
  EXPECT_TRUE(bench::json_report_path("foo").empty());
}

TEST(JsonReport, WritesSchemaValidFile) {
  const std::string dir = testing::TempDir();
  ScopedEnv env("CAMULT_BENCH_JSON", dir);
  bench::JsonReport rep("obs_test", 8, "sim");
  JsonValue& row = rep.new_row();
  row.set("competitor", JsonValue::make_string("CALU Tr=4"));
  row.set("m", JsonValue::make_number(1000));
  row.set("seconds", JsonValue::make_number(0.25));
  ASSERT_TRUE(rep.write());

  std::ifstream in(dir + "/BENCH_obs_test.json");
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const JsonValue root = JsonValue::parse(buf.str());
  ASSERT_TRUE(root.is_object());
  ASSERT_NE(root.find("bench"), nullptr);
  EXPECT_EQ(root.find("bench")->string, "obs_test");
  EXPECT_EQ(root.find("mode")->string, "sim");
  EXPECT_EQ(root.find("cores")->number, 8.0);
  const JsonValue* envv = root.find("env");
  ASSERT_NE(envv, nullptr);
  ASSERT_TRUE(envv->is_object());
  EXPECT_NE(envv->find("git"), nullptr);
  EXPECT_NE(envv->find("compiler"), nullptr);
  EXPECT_NE(envv->find("flags"), nullptr);
  const JsonValue* rows = root.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->is_array());
  ASSERT_EQ(rows->array.size(), 1u);
  EXPECT_EQ(rows->array[0].find("competitor")->string, "CALU Tr=4");
  EXPECT_EQ(rows->array[0].find("m")->number, 1000.0);
}

TEST(JsonReport, NoEnvMeansNoWrite) {
  ::unsetenv("CAMULT_BENCH_JSON");
  bench::JsonReport rep("obs_unwritten", 1, "sim");
  rep.new_row().set("m", JsonValue::make_number(1));
  EXPECT_FALSE(rep.write());
}

TEST(JsonReport, FillMeasurementSetsSchedulerFields) {
  bench::Measurement meas;
  meas.seconds = 2.0;
  meas.gflops = 3.5;
  meas.idle_fraction = 0.25;
  meas.sched.workers.resize(1);
  meas.sched.workers[0].tasks_executed = 11;
  JsonValue row = JsonValue::make_object();
  bench::JsonReport::fill_measurement(row, meas);
  EXPECT_EQ(row.find("seconds")->number, 2.0);
  EXPECT_EQ(row.find("gflops")->number, 3.5);
  EXPECT_EQ(row.find("idle_fraction")->number, 0.25);
  EXPECT_EQ(row.find("tasks")->number, 11.0);
  EXPECT_EQ(row.find("steals"), nullptr);
}

}  // namespace
}  // namespace camult
