#include "bench_support/json_report.hpp"

#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "bench_support/runner.hpp"

#ifndef CAMULT_GIT_REV
#define CAMULT_GIT_REV "unknown"
#endif
#ifndef CAMULT_BUILD_FLAGS
#define CAMULT_BUILD_FLAGS ""
#endif

namespace camult::bench {

std::string json_report_path(const std::string& name) {
  const char* dir = std::getenv("CAMULT_BENCH_JSON");
  if (dir == nullptr || *dir == '\0') return {};
  return std::string(dir) + "/BENCH_" + name + ".json";
}

JsonValue bench_env_info() {
  JsonValue env = JsonValue::make_object();
  env.set("git", JsonValue::make_string(CAMULT_GIT_REV));
#ifdef __VERSION__
  env.set("compiler", JsonValue::make_string(__VERSION__));
#else
  env.set("compiler", JsonValue::make_string("unknown"));
#endif
  env.set("flags", JsonValue::make_string(CAMULT_BUILD_FLAGS));
  return env;
}

JsonReport::JsonReport(std::string bench, int cores, std::string mode)
    : bench_(std::move(bench)) {
  if (mode.empty()) mode = real_mode() ? "real" : "sim";
  root_ = JsonValue::make_object();
  root_.set("bench", JsonValue::make_string(bench_));
  root_.set("mode", JsonValue::make_string(std::move(mode)));
  root_.set("cores", JsonValue::make_number(cores));
  root_.set("env", bench_env_info());
  root_.set("rows", JsonValue::make_array());
}

void JsonReport::observe_cores(int cores) {
  JsonValue* c = root_.find("cores");
  if (static_cast<double>(cores) > c->number) {
    *c = JsonValue::make_number(cores);
  }
}

JsonValue& JsonReport::new_row() {
  JsonValue* rows = root_.find("rows");
  rows->array.push_back(JsonValue::make_object());
  return rows->array.back();
}

void JsonReport::add_table(const Table& t) {
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    JsonValue& row = new_row();
    const auto& cells = t.row_cells(r);
    for (std::size_t c = 0; c < cells.size() && c < t.headers().size(); ++c) {
      const Table::Cell& cell = cells[c];
      switch (cell.type) {
        case Table::CellType::Real:
          row.set(t.headers()[c], JsonValue::make_number(cell.real));
          break;
        case Table::CellType::Int:
          row.set(t.headers()[c], JsonValue::make_number(
                                      static_cast<double>(cell.integer)));
          break;
        case Table::CellType::Text:
          row.set(t.headers()[c], JsonValue::make_string(cell.text));
          break;
      }
    }
  }
}

void JsonReport::fill_measurement(JsonValue& row, const Measurement& m) {
  row.set("seconds", JsonValue::make_number(m.seconds));
  row.set("gflops", JsonValue::make_number(m.gflops));
  row.set("idle_fraction", JsonValue::make_number(m.idle_fraction));
  row.set("tasks", JsonValue::make_number(static_cast<double>(
                       m.sched.totals().tasks_executed)));
  // Task-store / trace memory telemetry (zero for competitors whose
  // drivers predate MemoryStats): the fields the windowed-submission CI
  // tier asserts on.
  row.set("peak_task_store_bytes",
          JsonValue::make_number(
              static_cast<double>(m.mem.peak_task_store_bytes)));
  row.set("task_blocks_allocated",
          JsonValue::make_number(
              static_cast<double>(m.mem.blocks_allocated)));
  row.set("task_blocks_recycled",
          JsonValue::make_number(
              static_cast<double>(m.mem.blocks_recycled)));
  row.set("trace_records_harvested",
          JsonValue::make_number(
              static_cast<double>(m.mem.trace_records_harvested)));
  if (!real_mode()) {
    row.set("critical_path_s", JsonValue::make_number(m.critical_path_s));
    row.set("total_work_s", JsonValue::make_number(m.total_work_s));
  }
}

void JsonReport::write_to(std::ostream& os) const {
  root_.write(os, 2);
  os << '\n';
}

bool JsonReport::write() const {
  const std::string path = json_report_path(bench_);
  if (path.empty()) return false;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("JsonReport: cannot open " + path);
  write_to(out);
  if (!out) throw std::runtime_error("JsonReport: write failed for " + path);
  return true;
}

}  // namespace camult::bench
