// perfbench — the repository benchmark. One process runs one workload:
//
//   perfbench --workload tall|square|svc --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// and writes the run's spans to .bench_build/spans/. The last stdout line is
// the JSON result; the exit code is 0 only when every operation and check
// passed. README.md describes the workloads and every metric.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "bench.hpp"
#include "blas/kernel.hpp"
#include "factor_bench.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "svc_workload.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload tall|square|svc "
               "--seed N --seconds S --trace 0|1 [--tiny] [--corrupt]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (a == "--corrupt") {
      o.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    std::size_t used = 0;
    try {
      if (a == "--workload") {
        o.workload = v;
        used = v.size();
      } else if (a == "--seed") {
        o.seed = std::stoull(v, &used);
        have_seed = v[0] != '-';
      } else if (a == "--seconds") {
        o.seconds = std::stod(v, &used);
      } else if (a == "--trace") {
        have_trace = v == "0" || v == "1";
        o.trace = v == "1";
        used = v.size();
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != v.size()) usage("invalid value for " + a + ": " + v);
  }
  if (o.workload != "tall" && o.workload != "square" && o.workload != "svc") {
    usage("--workload must be tall, square or svc");
  }
  if (!have_seed) usage("--seed must be a non-negative integer");
  if (!have_trace) usage("--trace must be 0 or 1");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return o;
}

/// Traced-run sanity: every repetition span's self time is non-negative,
/// and a per-name self-time table for the reader.
void check_spans(const Tracer& tracer, Report& report) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> by_name;
  std::map<std::string, std::size_t> count;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "rep") {
      report.check(self[i] >= 0, "a rep span has negative self time");
    }
    auto& [total, self_sum] = by_name[spans[i].name];
    total += spans[i].end_ns - spans[i].start_ns;
    self_sum += self[i];
    ++count[spans[i].name];
  }
  for (const auto& [name, t] : by_name) {
    std::printf("span %-28s count=%-7zu total_ms=%-12.3f self_ms=%.3f\n",
                name.c_str(), count[name], t.first * 1e-6, t.second * 1e-6);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Report report;
  Tracer tracer(opt.trace);
  const char* rev = std::getenv("PERFBENCH_REV");
  report.stamp("workload", opt.workload);
  report.stamp("seed", std::to_string(opt.seed));
  report.stamp("seconds", opt.seconds);
  report.stamp("trace", opt.trace ? 1.0 : 0.0);
  report.stamp("revision", rev != nullptr ? rev : "unknown");
  report.stamp("nproc", online_cpus());
  report.stamp("llc_bytes", static_cast<double>(llc_bytes()));
  report.stamp("kernel", camult::blas::active_kernel().name);
  if (opt.tiny) report.stamp("size", "tiny");
  try {
    if (opt.workload == "svc") {
      run_svc_workload(opt, report, tracer);
    } else {
      run_factor_workload(opt, report, tracer);
    }
    if (opt.trace) {
      check_spans(tracer, report);
      const std::filesystem::path dir = ".bench_build/spans";
      std::filesystem::create_directories(dir);
      const std::string path = (dir / (opt.workload + "-seed" +
                                       std::to_string(opt.seed) + ".json"))
                                   .string();
      report.check(write_spans(path, report.stamp_json(), tracer.spans()),
                   "cannot write " + path);
      std::printf("spans %s (%zu spans)\n", path.c_str(), tracer.spans().size());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  report.print();
  return report.correct() ? 0 : 1;
}
