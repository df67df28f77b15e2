// camult — command-line driver for the library.
//
//   camult info  <A.mtx>
//   camult lu    <A.mtx|random:MxN> [options]      CALU factorization
//   camult qr    <A.mtx|random:MxN> [options]      CAQR factorization
//   camult chol  <A.mtx|random:N>   [options]      tiled Cholesky
//   camult solve <A.mtx> <b.mtx> [-o x.mtx] [options]
//
// Options: -b <block>  -t|--tr <Tr>  -p|--threads <N>  --pool
//          --tree binary|flat|hybrid  -o <out.mtx>
//          --trace-json <path>   write a chrome://tracing / Perfetto trace
// Matrices are Matrix Market files; "random:MxN" generates a seeded
// uniform matrix instead.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "blas/blas.hpp"
#include "core/core.hpp"
#include "lapack/lapack.hpp"
#include "matrix/io.hpp"
#include "matrix/norms.hpp"
#include "matrix/random.hpp"
#include "runtime/chrome_trace.hpp"
#include "runtime/worker_pool.hpp"
#include "tiled/tile_cholesky.hpp"

namespace {

using namespace camult;

struct Args {
  std::string command;
  std::vector<std::string> inputs;
  idx b = 100;
  idx tr = 4;
  int threads = rt::default_num_threads();
  bool use_pool = false;  ///< run on the process-wide persistent WorkerPool
  core::ReductionTree tree = core::ReductionTree::Binary;
  std::string out;
  std::string trace_json;
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: camult <info|lu|qr|chol|solve> <inputs...> "
      "[-b N] [-t Tr] [-p threads] [--pool] [--tree binary|flat|hybrid]\n"
      "       [-o out.mtx] [--trace-json trace.json]\n"
      "inputs are MatrixMarket files or random:MxN\n");
  std::exit(2);
}

// Strict numeric option parsing. atoi/atoll silently turned
// "--threads garbage" into 0 (inline serial mode!) and let negative values
// surface as std::invalid_argument from deep inside TaskGraph; reject both
// here with a proper usage error instead.
long long parse_num(const char* opt, const char* s, long long min_value) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v < min_value) {
    std::fprintf(stderr, "camult: invalid value '%s' for %s (expect integer "
                 ">= %lld)\n", s, opt, min_value);
    usage();
  }
  return v;
}

Args parse(int argc, char** argv) {
  if (argc < 3) usage();
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string s = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (s == "-b") {
      a.b = parse_num("-b", next(), 1);
    } else if (s == "-t" || s == "--tr") {
      a.tr = parse_num("-t/--tr", next(), 1);
    } else if (s == "-p" || s == "--threads") {
      // 0 is legal: inline serial (record) mode.
      a.threads = static_cast<int>(parse_num("-p/--threads", next(), 0));
    } else if (s == "--pool") {
      a.use_pool = true;
    } else if (s == "-o") {
      a.out = next();
    } else if (s == "--trace-json") {
      a.trace_json = next();
    } else if (s == "--tree") {
      const std::string t = next();
      if (t == "binary") a.tree = core::ReductionTree::Binary;
      else if (t == "flat") a.tree = core::ReductionTree::Flat;
      else if (t == "hybrid") a.tree = core::ReductionTree::Hybrid;
      else usage();
    } else if (!s.empty() && s[0] == '-') {
      usage();
    } else {
      a.inputs.push_back(s);
    }
  }
  if (a.inputs.empty()) usage();
  return a;
}

Matrix load(const std::string& spec) {
  if (spec.rfind("random:", 0) == 0) {
    const std::string dims = spec.substr(7);
    const auto x = dims.find('x');
    const std::string mstr = dims.substr(0, x);
    const idx m = parse_num("random:MxN rows", mstr.c_str(), 1);
    const idx n = (x == std::string::npos)
                      ? m
                      : parse_num("random:MxN cols", dims.c_str() + x + 1, 1);
    std::printf("generating random %lld x %lld matrix (seed 1)\n",
                static_cast<long long>(m), static_cast<long long>(n));
    return random_matrix(m, n, 1);
  }
  return read_matrix_market_file(spec);
}

double now_run(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Shared observability tail for lu/qr/chol: scheduler counter summary on
// stdout, plus the chrome://tracing JSON when --trace-json was given.
void report_run(const Args& args, const std::vector<rt::TaskRecord>& trace,
                const std::vector<rt::TaskGraph::Edge>& edges,
                const rt::SchedulerStats& sched) {
  const rt::WorkerStats tot = sched.totals();
  if (tot.tasks_executed > 0) {
    std::printf("scheduler: %lld tasks, %lld wakeups\n",
                static_cast<long long>(tot.tasks_executed),
                static_cast<long long>(tot.wakeups_sent));
  }
  if (!args.trace_json.empty()) {
    rt::write_chrome_trace_file(args.trace_json, trace, edges);
    std::printf("wrote chrome trace to %s (open in ui.perfetto.dev)\n",
                args.trace_json.c_str());
  }
}

// Health diagnostic shared by lu/qr: growth on stdout, interventions on
// stderr. Returns whether the run was degraded, which drives a nonzero
// exit code — scripts must not mistake an Inf-laden or GEPP-salvaged
// factorization for a clean one.
bool report_health(const core::HealthReport& h) {
  std::printf("health: max panel growth = %.3g\n", h.max_growth);
  if (h.nan_detected) {
    std::fprintf(stderr,
                 "health: non-finite entries detected before factoring\n");
  }
  if (h.fallback_panels > 0) {
    std::string list;
    for (idx k : h.fallback_list) {
      if (!list.empty()) list += ", ";
      list += std::to_string(static_cast<long long>(k));
    }
    std::fprintf(stderr,
                 "health: %lld panel(s) fell back to full-panel GEPP [%s]\n",
                 static_cast<long long>(h.fallback_panels), list.c_str());
  }
  return h.degraded();
}

int cmd_info(const Args& args) {
  Matrix a = load(args.inputs[0]);
  std::printf("%lld x %lld\n", static_cast<long long>(a.rows()),
              static_cast<long long>(a.cols()));
  std::printf("||A||_1 = %.6g, ||A||_inf = %.6g, ||A||_F = %.6g\n",
              norm_one(a), norm_inf(a), norm_fro(a));
  if (a.rows() == a.cols()) {
    Matrix lu = a;
    PivotVector ipiv;
    if (lapack::getrf(lu.view(), ipiv) == 0) {
      std::printf("kappa_1 (estimated) = %.3g\n",
                  lapack::gecon(lu, ipiv, norm_one(a)));
    } else {
      std::printf("matrix is singular\n");
    }
  }
  return 0;
}

int cmd_lu(const Args& args) {
  Matrix a = load(args.inputs[0]);
  Matrix lu = a;
  core::CaluOptions o;
  o.b = args.b;
  o.tr = args.tr;
  o.tree = args.tree;
  o.num_threads = args.threads;
  // Per-task trace retention is opt-in: only pay the O(tasks) record
  // buffer when the user asked for the chrome trace.
  o.record_trace = !args.trace_json.empty();
  if (args.use_pool) o.pool = &rt::WorkerPool::process_default();
  core::CaluResult res;
  const double secs = now_run([&] { res = core::calu_factor(lu.view(), o); });
  std::printf("CALU: %lld tasks, %.3f s, info=%lld\n",
              static_cast<long long>(res.sched.totals().tasks_executed),
              secs, static_cast<long long>(res.info));
  report_run(args, res.trace, res.edges, res.sched);
  const bool degraded = report_health(res.health);
  if (res.info == 0) {
    std::printf("scaled residual ||PA-LU|| = %.2f, growth = %.3g\n",
                lapack::lu_residual(a, lu, res.ipiv),
                lapack::pivot_growth(a, lu));
  } else {
    std::fprintf(stderr, "lu: zero pivot at column %lld\n",
                 static_cast<long long>(res.info));
  }
  if (!args.out.empty()) {
    write_matrix_market_file(args.out, lu);
    std::printf("wrote packed LU factors to %s\n", args.out.c_str());
  }
  return res.info == 0 && !degraded ? 0 : 1;
}

int cmd_qr(const Args& args) {
  Matrix a = load(args.inputs[0]);
  Matrix qr = a;
  core::CaqrOptions o;
  o.b = args.b;
  o.tr = args.tr;
  o.tree = args.tree;
  o.num_threads = args.threads;
  o.record_trace = !args.trace_json.empty();
  if (args.use_pool) o.pool = &rt::WorkerPool::process_default();
  core::CaqrResult res;
  const double secs = now_run([&] { res = core::caqr_factor(qr.view(), o); });
  std::printf("CAQR: %lld tasks, %.3f s\n",
              static_cast<long long>(res.sched.totals().tasks_executed),
              secs);
  report_run(args, res.trace, res.edges, res.sched);
  const bool degraded = report_health(res.health);
  std::printf("scaled residual ||A-QR|| = %.2f\n",
              core::caqr_residual(a, qr, res));
  if (!args.out.empty()) {
    write_matrix_market_file(args.out, core::caqr_extract_r(qr, res));
    std::printf("wrote R factor to %s\n", args.out.c_str());
  }
  return degraded ? 1 : 0;
}

int cmd_chol(const Args& args) {
  Matrix a = [&] {
    if (args.inputs[0].rfind("random:", 0) == 0) {
      // SPD: B B^T + n I.
      Matrix b = load(args.inputs[0]);
      if (b.rows() != b.cols()) usage();
      Matrix spd = Matrix::identity(b.rows(), b.rows());
      for (idx i = 0; i < b.rows(); ++i) {
        spd(i, i) = static_cast<double>(b.rows());
      }
      blas::gemm(blas::Trans::NoTrans, blas::Trans::Trans, 1.0, b, b, 1.0,
                 spd.view());
      return spd;
    }
    return load(args.inputs[0]);
  }();
  Matrix chol = a;
  tiled::TileCholeskyOptions o;
  o.b = args.b;
  o.num_threads = args.threads;
  o.record_trace = !args.trace_json.empty();
  tiled::TileCholeskyResult res;
  const double secs =
      now_run([&] { res = tiled::tile_cholesky_factor(chol.view(), o); });
  std::printf("tiled Cholesky: %lld tasks, %.3f s, info=%lld\n",
              static_cast<long long>(res.sched.totals().tasks_executed),
              secs, static_cast<long long>(res.info));
  report_run(args, res.trace, res.edges, res.sched);
  if (res.info == 0) {
    std::printf("scaled residual ||A-LL^T|| = %.2f\n",
                lapack::cholesky_residual(a, chol));
  }
  return res.info == 0 ? 0 : 1;
}

int cmd_solve(const Args& args) {
  if (args.inputs.size() < 2) usage();
  Matrix a = load(args.inputs[0]);
  Matrix b = load(args.inputs[1]);
  if (a.rows() != a.cols() || b.rows() != a.rows()) {
    std::fprintf(stderr, "solve: need square A and conforming b\n");
    return 1;
  }
  Matrix a_orig = a;
  Matrix x = b;
  core::CaluOptions o;
  o.b = args.b;
  o.tr = args.tr;
  o.tree = args.tree;
  o.num_threads = args.threads;
  o.record_trace = false;  // solve reports no trace; don't retain one
  if (args.use_pool) o.pool = &rt::WorkerPool::process_default();
  idx info = 0;
  const double secs =
      now_run([&] { info = core::calu_gesv(a.view(), x.view(), o); });
  if (info != 0) {
    std::fprintf(stderr, "solve: matrix singular at column %lld\n",
                 static_cast<long long>(info));
    return 1;
  }
  std::printf("solved in %.3f s, backward error %.2f (scaled)\n", secs,
              lapack::solve_residual(a_orig, x, b));
  if (!args.out.empty()) {
    write_matrix_market_file(args.out, x);
    std::printf("wrote solution to %s\n", args.out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    if (args.command == "info") return cmd_info(args);
    if (args.command == "lu") return cmd_lu(args);
    if (args.command == "qr") return cmd_qr(args);
    if (args.command == "chol") return cmd_chol(args);
    if (args.command == "solve") return cmd_solve(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
}
