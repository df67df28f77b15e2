// svc_workload.hpp — the svc workload (a closed loop of small jobs through
// svc::Service) and the svc-layer probe the other workloads run.
#pragma once

#include "bench.hpp"
#include "factor_bench.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

void run_svc_workload(const Options& opt, Report& report, Tracer& tracer);

/// The svc.* layer metrics at `fb`'s shapes on its pool: one CALU job and
/// one CAQR job submitted to a Service, one after the other, each checked
/// against `fb`'s reference digests.
void svc_probe(FactorBench& fb, Report& report, Tracer& tracer);

}  // namespace perfbench
