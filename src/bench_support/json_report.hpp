// json_report.hpp — machine-readable benchmark reports.
//
// Every bench binary builds a JsonReport and calls write() at the end; when
// CAMULT_BENCH_JSON=<dir> is set this produces <dir>/BENCH_<name>.json with
// the schema
//
//   {
//     "bench":  "<name>",
//     "mode":   "sim" | "real",
//     "cores":  <max cores measured>,
//     "env":    {"git": ..., "compiler": ..., "flags": ...},
//     "rows":   [{"competitor": ..., "m": ..., "n": ..., "b": ..., "tr": ...,
//                 "seconds": ..., "gflops": ..., "idle_fraction": ...,
//                 "tasks": ..., ...}, ...]
//   }
//
// establishing the perf trajectory future PRs regress against. Rows are
// free-form JSON objects; the fields above are the common vocabulary the
// shared figure/table runners emit (tools/check_bench_json.cpp validates the
// envelope plus per-row field types).
#pragma once

#include <string>

#include "bench_support/json.hpp"
#include "bench_support/table.hpp"
#include "runtime/task_graph.hpp"

namespace camult::bench {

struct Measurement;

/// If CAMULT_BENCH_JSON=<dir> is set, the report path <dir>/BENCH_<name>.json;
/// otherwise empty (reports are skipped).
std::string json_report_path(const std::string& name);

/// Build-environment stamp: {"git": ..., "compiler": ..., "flags": ...}.
JsonValue bench_env_info();

class JsonReport {
 public:
  /// `mode` defaults to the measurement protocol in effect ("real" when
  /// CAMULT_BENCH_REAL=1, else "sim").
  explicit JsonReport(std::string bench, int cores = 0,
                      std::string mode = "");

  /// Record the largest core count measured (kept as the report's "cores").
  void observe_cores(int cores);

  /// Append an empty row object and return it for field-by-field filling.
  JsonValue& new_row();

  /// Append one row per table row, keyed by the table headers, preserving
  /// cell types (Real/Int -> number, Text -> string).
  void add_table(const Table& t);

  /// Fill the standard measurement fields of `row` from `m` (seconds,
  /// gflops, idle_fraction, tasks, plus sim bounds when present).
  static void fill_measurement(JsonValue& row, const Measurement& m);

  /// Serialize the full report document.
  void write_to(std::ostream& os) const;

  /// Write to json_report_path(bench). Returns false (and does nothing)
  /// when CAMULT_BENCH_JSON is unset; throws std::runtime_error on I/O
  /// failure.
  bool write() const;

 private:
  std::string bench_;
  JsonValue root_;
};

}  // namespace camult::bench
