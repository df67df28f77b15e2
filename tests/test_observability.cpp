// Observability surface: scheduler counters (SchedulerStats), the chrome
// trace-event exporter, the machine-readable bench report writer, and the
// recorded DAGs of every factorization driver (DagFingerprint).
//
// The counter tests pin the exact values a deterministic single-worker (or
// inline) run must produce.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support/json.hpp"
#include "bench_support/json_report.hpp"
#include "baseline/blocked.hpp"
#include "bench_support/runner.hpp"
#include "core/calu.hpp"
#include "core/caqr.hpp"
#include "matrix/random.hpp"
#include "runtime/chrome_trace.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/trace.hpp"
#include "runtime/worker_pool.hpp"
#include "tiled/tile_cholesky.hpp"
#include "tiled/tile_lu.hpp"
#include "tiled/tile_qr.hpp"

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

// --- DAG fingerprints -------------------------------------------------------
//
// Each case records its DAG in inline mode and hashes every task's (id,
// label, kind, iteration, priority) in id order plus the sorted edge list.
// The constants pin the DAGs the drivers submit: a change to how tasks and
// their block accesses reach the graph must leave every one unchanged. DAG
// shape depends on neither the kernel nor the matrix values.

std::uint64_t dag_fingerprint(const std::vector<rt::TaskRecord>& trace,
                              std::vector<rt::TaskGraph::Edge> edges) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a, byte by byte
  auto mix = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const rt::TaskRecord& r : trace) {
    mix(r.id);
    mix(static_cast<std::int64_t>(r.label.size()));
    for (char c : r.label) mix(static_cast<unsigned char>(c));
    mix(static_cast<std::int64_t>(r.kind));
    mix(r.iteration);
    mix(r.priority);
  }
  std::sort(edges.begin(), edges.end(), [](const auto& x, const auto& y) {
    return x.from != y.from ? x.from < y.from : x.to < y.to;
  });
  for (const rt::TaskGraph::Edge& e : edges) {
    mix(e.from);
    mix(e.to);
  }
  return h;
}

struct DagCase {
  const char* name;
  std::uint64_t expected;
  std::function<std::uint64_t()> run;
};

void expect_fingerprints(const std::vector<DagCase>& cases) {
  for (const DagCase& c : cases) {
    const std::uint64_t fp = c.run();
    EXPECT_EQ(fp, c.expected) << c.name << ": 0x" << std::hex << fp;
  }
}

core::CaluOptions fp_calu(core::ReductionTree tree, idx tr, idx window) {
  core::CaluOptions o;
  o.b = 16;
  o.tr = tr;
  o.tree = tree;
  o.window = window;
  o.num_threads = 0;
  o.record_trace = true;
  return o;
}

std::uint64_t calu_fp(idx m, idx n, const core::CaluOptions& o) {
  Matrix a = random_matrix(m, n, 1601);
  const core::CaluResult r = core::calu_factor(a.view(), o);
  return dag_fingerprint(r.trace, r.edges);
}

std::uint64_t caqr_fp(core::ReductionTree tree, idx window, bool structured) {
  core::CaqrOptions o;
  o.b = 16;
  o.tr = 4;
  o.tree = tree;
  o.window = window;
  o.structured_nodes = structured;
  o.num_threads = 0;
  o.record_trace = true;
  Matrix a = random_matrix(170, 100, 1602);
  const core::CaqrResult r = core::caqr_factor(a.view(), o);
  return dag_fingerprint(r.trace, r.edges);
}

// CALU and CAQR run 170 x 100 at b = 16: 7 panels, the last 4 columns
// wide, over 11 row blocks, the last ragged.
TEST(DagFingerprint, Calu) {
  using core::ReductionTree;
  expect_fingerprints({
      {"binary tr4", 0x2e9c3d4d1e1364ceull,
       [] { return calu_fp(170, 100, fp_calu(ReductionTree::Binary, 4, 0)); }},
      {"flat tr4", 0x976f1bf5258becb4ull,
       [] { return calu_fp(170, 100, fp_calu(ReductionTree::Flat, 4, 0)); }},
      // Hybrid groups 4 leaves flat, so tr = 8 is the smallest that differs
      // from the flat tree.
      {"hybrid tr8", 0xaf703e2e469cac94ull,
       [] { return calu_fp(170, 100, fp_calu(ReductionTree::Hybrid, 8, 0)); }},
      {"binary tr1", 0x5c823a50dfb2925dull,
       [] { return calu_fp(170, 100, fp_calu(ReductionTree::Binary, 1, 0)); }},
      {"binary tr4 window2", 0x8906651c3fb8d434ull,
       [] { return calu_fp(170, 100, fp_calu(ReductionTree::Binary, 4, 2)); }},
      {"flat tr1 window2", 0x7e42694623bc00a2ull,
       [] { return calu_fp(170, 100, fp_calu(ReductionTree::Flat, 1, 2)); }},
      {"update_cols_per_task 2", 0x4136106a43fe086aull,
       [] {
         core::CaluOptions o = fp_calu(ReductionTree::Binary, 4, 0);
         o.update_cols_per_task = 2;
         return calu_fp(170, 100, o);
       }},
      {"wide 200x330 b32", 0x87c8c3055ccf3ba0ull,
       [] {
         core::CaluOptions o = fp_calu(ReductionTree::Binary, 4, 0);
         o.b = 32;
         return calu_fp(200, 330, o);
       }},
  });
}

TEST(DagFingerprint, Caqr) {
  using core::ReductionTree;
  expect_fingerprints({
      {"flat window0", 0x6bf14673fa69507dull,
       [] { return caqr_fp(ReductionTree::Flat, 0, false); }},
      {"flat window3", 0x594ad05922ac00dull,
       [] { return caqr_fp(ReductionTree::Flat, 3, false); }},
      {"binary structured", 0x2f673f653c2262eull,
       [] { return caqr_fp(ReductionTree::Binary, 0, true); }},
  });
}

TEST(DagFingerprint, TiledAndBlockedBaselines) {
  expect_fingerprints({
      {"tile_lu", 0xd18d2040ba49442eull,
       [] {
         Matrix a = random_matrix(170, 100, 1603);
         tiled::TileLuOptions o;
         o.b = 16;
         o.num_threads = 0;
         const tiled::TileLuResult r = tiled::tile_lu_factor(a.view(), o);
         return dag_fingerprint(r.trace, r.edges);
       }},
      {"tile_qr", 0xe932c8b4e8873349ull,
       [] {
         Matrix a = random_matrix(170, 100, 1604);
         tiled::TileQrOptions o;
         o.b = 16;
         o.num_threads = 0;
         const tiled::TileQrResult r = tiled::tile_qr_factor(a.view(), o);
         return dag_fingerprint(r.trace, r.edges);
       }},
      {"tile_cholesky", 0xa37d3ce7593cde26ull,
       [] {
         Matrix a = random_diagonally_dominant_matrix(100, 1605);
         tiled::TileCholeskyOptions o;
         o.b = 16;
         o.num_threads = 0;
         const tiled::TileCholeskyResult r =
             tiled::tile_cholesky_factor(a.view(), o);
         return dag_fingerprint(r.trace, r.edges);
       }},
      {"blocked_getrf", 0xbf46066f0de0906aull,
       [] {
         Matrix a = random_matrix(170, 100, 1606);
         baseline::BlockedOptions o;
         o.nb = 16;
         o.num_threads = 0;
         const baseline::BlockedLuResult r =
             baseline::blocked_getrf(a.view(), o);
         return dag_fingerprint(r.trace, r.edges);
       }},
      {"blocked_geqrf", 0xe568d649f7605564ull,
       [] {
         Matrix a = random_matrix(170, 100, 1607);
         baseline::BlockedOptions o;
         o.nb = 16;
         o.num_threads = 0;
         const baseline::BlockedQrResult r =
             baseline::blocked_geqrf(a.view(), o);
         return dag_fingerprint(r.trace, r.edges);
       }},
  });
}

}  // namespace
}  // namespace camult
