// check_bench_json — schema validator for the machine-readable artifacts
// this repo emits:
//
//   check_bench_json BENCH_foo.json ...          bench reports
//   check_bench_json --chrome trace.json ...     chrome://tracing JSON
//
// A bench report (written by src/bench_support/json_report.*) must be an
// object {bench, mode, cores, env{git, compiler, flags}, rows[...]} with
// every row an object whose numeric/text fields have the right JSON types.
// A chrome trace must be an array of event objects each carrying a one-char
// "ph" phase plus the fields Perfetto requires for that phase.
//
// Exits 0 when every file validates, 1 with one message per problem
// otherwise. Used by the ctest bench smoke target (see tools/CMakeLists.txt).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support/json.hpp"

namespace {

using camult::bench::JsonValue;

int g_errors = 0;

/// --max-field NAME=VALUE assertions: every report checked must carry at
/// least one row with a numeric NAME, and no row's NAME may exceed VALUE.
/// This is how the CI `window` tier pins peak task-store bytes: a windowed
/// fig6 run whose task store grew past the budget fails the check instead
/// of silently regressing to O(total-DAG) memory.
struct MaxField {
  std::string key;
  double limit = 0.0;
};
std::vector<MaxField> g_max_fields;

void fail(const std::string& file, const std::string& msg) {
  std::fprintf(stderr, "%s: %s\n", file.c_str(), msg.c_str());
  ++g_errors;
}

const JsonValue* need(const std::string& file, const JsonValue& obj,
                      const char* key, JsonValue::Type type,
                      const char* type_name) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    fail(file, std::string("missing key \"") + key + "\"");
    return nullptr;
  }
  if (v->type != type) {
    fail(file, std::string("key \"") + key + "\" is not " + type_name);
    return nullptr;
  }
  return v;
}

bool parse_file(const std::string& path, JsonValue& out) {
  std::ifstream in(path);
  if (!in) {
    fail(path, "cannot open");
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    out = JsonValue::parse(buf.str());
  } catch (const std::exception& e) {
    fail(path, std::string("invalid JSON: ") + e.what());
    return false;
  }
  return true;
}

// --- bench report schema ---------------------------------------------------

void check_row(const std::string& file, const JsonValue& row,
               std::size_t index) {
  const std::string where = "rows[" + std::to_string(index) + "]";
  if (!row.is_object()) {
    fail(file, where + " is not an object");
    return;
  }
  if (row.object.empty()) fail(file, where + " is empty");
  // Typed spot-checks: numeric fields must be JSON numbers, text fields
  // JSON strings. Absent keys are fine (not every bench reports them all).
  static const char* kNumeric[] = {"m",       "n",     "b",
                                   "tr",      "cores", "seconds",
                                   "gflops",  "tasks", "edges",
                                   "idle_fraction",
                                   "critical_path_s", "total_work_s",
                                   "health_max_growth", "fallback_panels",
                                   "flops_per_byte",
                                   "mc", "kc", "nc", "mr", "nr",
                                   // service_load rows (svc job service)
                                   "jobs", "completed", "shed", "rejected",
                                   "p50_ms", "p99_ms", "jobs_per_sec",
                                   // service_resilience rows (self-healing)
                                   "failed", "availability", "unavailability",
                                   "attempts", "retries", "stalls_detected",
                                   "breaker_opens", "goodput_jobs_per_sec",
                                   "p99_inflation",
                                   // sliding-window submission telemetry
                                   "window", "peak_task_store_bytes",
                                   "task_blocks_allocated",
                                   "task_blocks_recycled",
                                   "trace_records_harvested"};
  for (const char* key : kNumeric) {
    if (const JsonValue* v = row.find(key); v != nullptr && !v->is_number()) {
      fail(file, where + "." + key + " is not a number");
    }
  }
  static const char* kText[] = {"competitor", "kernel", "phase", "qos",
                                "tenant"};
  for (const char* key : kText) {
    if (const JsonValue* v = row.find(key); v != nullptr && !v->is_string()) {
      fail(file, where + "." + key + " is not a string");
    }
  }
  if (const JsonValue* v = row.find("nan_detected");
      v != nullptr && !v->is_bool()) {
    fail(file, where + ".nan_detected is not a boolean");
  }
}

void check_report(const std::string& file) {
  JsonValue root;
  if (!parse_file(file, root)) return;
  if (!root.is_object()) {
    fail(file, "report root is not an object");
    return;
  }
  need(file, root, "bench", JsonValue::Type::String, "a string");
  if (const JsonValue* mode =
          need(file, root, "mode", JsonValue::Type::String, "a string");
      mode != nullptr && mode->string != "sim" && mode->string != "real") {
    fail(file, "mode must be \"sim\" or \"real\", got \"" + mode->string +
                   "\"");
  }
  need(file, root, "cores", JsonValue::Type::Number, "a number");
  if (const JsonValue* env =
          need(file, root, "env", JsonValue::Type::Object, "an object");
      env != nullptr) {
    need(file, *env, "git", JsonValue::Type::String, "a string");
    need(file, *env, "compiler", JsonValue::Type::String, "a string");
    need(file, *env, "flags", JsonValue::Type::String, "a string");
  }
  if (const JsonValue* rows =
          need(file, root, "rows", JsonValue::Type::Array, "an array");
      rows != nullptr) {
    if (rows->array.empty()) fail(file, "rows is empty");
    for (std::size_t i = 0; i < rows->array.size(); ++i) {
      check_row(file, rows->array[i], i);
    }
    for (const MaxField& mf : g_max_fields) {
      std::size_t carrying = 0;
      for (std::size_t i = 0; i < rows->array.size(); ++i) {
        const JsonValue& row = rows->array[i];
        if (!row.is_object()) continue;
        const JsonValue* v = row.find(mf.key);
        if (v == nullptr || !v->is_number()) continue;
        ++carrying;
        if (v->number > mf.limit) {
          fail(file, "rows[" + std::to_string(i) + "]." + mf.key + " = " +
                         std::to_string(v->number) + " exceeds --max-field " +
                         "limit " + std::to_string(mf.limit));
        }
      }
      if (carrying == 0) {
        fail(file, "no row carries numeric \"" + mf.key +
                       "\" (--max-field has nothing to assert on)");
      }
    }
  }
}

// --- chrome trace schema ---------------------------------------------------

void check_chrome_event(const std::string& file, const JsonValue& ev,
                        std::size_t index) {
  const std::string where = "events[" + std::to_string(index) + "]";
  if (!ev.is_object()) {
    fail(file, where + " is not an object");
    return;
  }
  const JsonValue* ph = ev.find("ph");
  if (ph == nullptr || !ph->is_string() || ph->string.size() != 1) {
    fail(file, where + ".ph missing or not a one-char string");
    return;
  }
  const char phase = ph->string[0];
  if (phase != 'M' && phase != 'X' && phase != 's' && phase != 'f' &&
      phase != 'C') {
    fail(file, where + ".ph unexpected phase '" + ph->string + "'");
    return;
  }
  auto need_num = [&](const char* key) {
    if (const JsonValue* v = ev.find(key); v == nullptr || !v->is_number()) {
      fail(file, where + "." + key + " missing or not a number");
    }
  };
  auto need_str = [&](const char* key) {
    if (const JsonValue* v = ev.find(key); v == nullptr || !v->is_string()) {
      fail(file, where + "." + key + " missing or not a string");
    }
  };
  need_num("pid");
  need_str("name");
  if (phase != 'M') need_num("ts");
  // Counter events are process-scoped: no tid required.
  if (phase == 'X' || phase == 's' || phase == 'f') need_num("tid");
  if (phase == 'X') need_num("dur");
  if (phase == 's' || phase == 'f') need_num("id");
  if (phase == 'C') {
    if (const JsonValue* a = ev.find("args"); a == nullptr || !a->is_object()) {
      fail(file, where + ".args missing or not an object (counter event)");
    }
  }
}

void check_chrome(const std::string& file) {
  JsonValue root;
  if (!parse_file(file, root)) return;
  if (!root.is_array()) {
    fail(file, "chrome trace root is not an array");
    return;
  }
  if (root.array.empty()) fail(file, "chrome trace has no events");
  bool has_duration = false;
  for (std::size_t i = 0; i < root.array.size(); ++i) {
    check_chrome_event(file, root.array[i], i);
    if (root.array[i].is_object()) {
      if (const JsonValue* ph = root.array[i].find("ph");
          ph != nullptr && ph->is_string() && ph->string == "X") {
        has_duration = true;
      }
    }
  }
  if (!has_duration) fail(file, "chrome trace has no duration (X) events");
}

}  // namespace

int main(int argc, char** argv) {
  bool chrome = false;
  std::vector<std::string> files;
  const char* usage_msg =
      "usage: check_bench_json [--chrome|--report] "
      "[--max-field NAME=VALUE]... file...\n";
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s == "--chrome") {
      chrome = true;
    } else if (s == "--report") {
      chrome = false;
    } else if (s == "--max-field") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s", usage_msg);
        return 2;
      }
      const std::string spec = argv[++i];
      const std::size_t eq = spec.find('=');
      char* end = nullptr;
      const double limit =
          eq == std::string::npos ? 0.0
                                  : std::strtod(spec.c_str() + eq + 1, &end);
      if (eq == std::string::npos || eq == 0 || end == nullptr ||
          *end != '\0' || end == spec.c_str() + eq + 1) {
        std::fprintf(stderr,
                     "check_bench_json: bad --max-field spec '%s' "
                     "(want NAME=VALUE)\n",
                     spec.c_str());
        return 2;
      }
      g_max_fields.push_back({spec.substr(0, eq), limit});
    } else if (!s.empty() && s[0] == '-') {
      std::fprintf(stderr, "%s", usage_msg);
      return 2;
    } else {
      files.push_back(s);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "%s", usage_msg);
    return 2;
  }
  if (!g_max_fields.empty() && chrome) {
    std::fprintf(stderr,
                 "check_bench_json: --max-field applies to --report files\n");
    return 2;
  }
  for (const std::string& f : files) {
    chrome ? check_chrome(f) : check_report(f);
  }
  if (g_errors == 0) {
    std::printf("%zu file%s OK\n", files.size(),
                files.size() == 1 ? "" : "s");
    return 0;
  }
  std::fprintf(stderr, "%d problem%s found\n", g_errors,
               g_errors == 1 ? "" : "s");
  return 1;
}
