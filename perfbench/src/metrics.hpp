// metrics.hpp — the end-to-end metrics every untraced run prints and the
// per-layer probes every traced run prints (README.md lists both).
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "factor_bench.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

/// Stamp the pool size, the shapes and the input size against the LLC.
void stamp_problem(Report& report, int pool_size, const Shape& lu,
                   const Shape& qr, double input_bytes);

/// setup_s, lu_s, qr_s, ops_per_s, op_p50_ms, op_p99_ms and peak_rss_mb.
/// `op_s` holds the latency of every completed operation; `span_s` is the
/// measured wall time they completed in.
void report_end_to_end(Report& report, const std::vector<double>& setup_s,
                       const std::vector<double>& lu_s,
                       const std::vector<double>& qr_s,
                       const std::vector<double>& op_s, double span_s);

/// What the workload's own repetitions contribute to the layer metrics.
struct LayerInputs {
  FactorBench* fb = nullptr;
  double real_lu_s = 0.0;       ///< untraced median calu_factor time
  double real_qr_s = 0.0;       ///< untraced median caqr_factor time
  double trace_overhead = 0.0;  ///< traced / untraced median - 1
  std::vector<double> copy_gbps;
  const RepResult* counted = nullptr;  ///< a repetition run with counting
};

/// Every per-layer metric except the svc ones, measured at the shapes of
/// `in.fb` on its pool.
void report_layers(const LayerInputs& in, Report& report, Tracer& tracer);

}  // namespace perfbench
