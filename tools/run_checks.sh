#!/usr/bin/env sh
# run_checks.sh — the full check ladder, one command. Tiers, in order:
#
#   build   configure + compile the default (Release) tree
#   test    the complete ctest suite (unit + integration + bench smoke;
#           the bench smoke validates BENCH_*.json, including the
#           gemm_kernel report, with tools/check_bench_json)
#   fault   the failure-injection slice alone (ctest -L fault): seeded
#           task faults, cancellation, and fast-abort drain accounting —
#           a quick re-run target when touching the error paths
#   tsan    the ThreadSanitizer concurrency suite (tools/run_tsan.sh):
#           scheduler stress, fault injection + the shared-PackedPanel
#           pipeline
#   svc     the factorization job-service slice: ctest -L svc repeated
#           up to 10 times per test (--repeat until-fail:10, ~10 s; a
#           flake gate for the runner/timer/shutdown handshakes) plus a
#           short bench/service_load run whose BENCH_service_load.json
#           must pass tools/check_bench_json
#   resilience  self-healing smoke: a short bench/service_resilience fault
#           storm (noisy tenant at ~5% injected throw/hang) whose
#           BENCH_service_resilience.json must schema-check AND keep the
#           healthy tenant's unavailability <= 0.01 (availability >= 99%)
#           via check_bench_json --max-field
#   bench   run bench/gemm_kernel at full size and schema-check its
#           BENCH_gemm_kernel.json artifact
#   window  sliding-window DAG submission smoke: a short real-mode windowed
#           fig6 run at reduced m with a small panel width (many panel
#           iterations), then assert via check_bench_json --max-field that
#           the peak task store stayed O(window) — the same run with full
#           DAG submission allocates 3-5 slabs and fails the bound
#
# Usage: tools/run_checks.sh [tier...]      (default: all tiers, in order)
#   e.g. tools/run_checks.sh build test     # skip the sanitizer + bench
# Environment: BUILD_DIR (default build-checks), JOBS (default nproc).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${BUILD_DIR:-"$repo_root/build-checks"}
jobs=${JOBS:-$(nproc 2>/dev/null || echo 4)}
tiers=${*:-"build test fault svc resilience tsan bench window"}

say() { printf '\n== run_checks: %s ==\n' "$*"; }

for tier in $tiers; do
  case "$tier" in
    build)
      say "configure + build ($build_dir)"
      cmake -B "$build_dir" -S "$repo_root"
      cmake --build "$build_dir" -j "$jobs"
      ;;
    test)
      say "ctest suite"
      ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
      ;;
    fault)
      say "fault-injection slice (ctest -L fault)"
      ctest --test-dir "$build_dir" --output-on-failure -L fault
      ;;
    tsan)
      say "ThreadSanitizer suite"
      "$repo_root/tools/run_tsan.sh"
      ;;
    svc)
      say "job-service slice (ctest -L svc x10 + service_load smoke)"
      ctest --test-dir "$build_dir" --output-on-failure -L svc \
        --repeat until-fail:10
      out_dir="$build_dir/checks_svc"
      rm -rf "$out_dir"
      mkdir -p "$out_dir"
      CAMULT_BENCH_JSON="$out_dir" CAMULT_BENCH_SVC_JOBS=24 \
        CAMULT_BENCH_SVC_QUEUE=8 CAMULT_BENCH_SEED=7 \
        "$build_dir/bench/service_load"
      "$build_dir/tools/check_bench_json" "$out_dir/BENCH_service_load.json"
      ;;
    resilience)
      say "self-healing smoke (service_resilience storm + availability gate)"
      out_dir="$build_dir/checks_resilience"
      rm -rf "$out_dir"
      mkdir -p "$out_dir"
      CAMULT_BENCH_JSON="$out_dir" CAMULT_BENCH_SVC_JOBS=40 \
        CAMULT_BENCH_SEED=7 "$build_dir/bench/service_resilience"
      # unavailability is emitted only on healthy-tenant rows, so the bound
      # is exactly "healthy availability >= 0.99" (the noisy tenant is
      # allowed — expected — to fail and trip its breaker).
      "$build_dir/tools/check_bench_json" \
        --max-field unavailability=0.01 \
        "$out_dir/BENCH_service_resilience.json"
      ;;
    bench)
      say "gemm_kernel bench + JSON schema check"
      out_dir="$build_dir/checks_bench"
      rm -rf "$out_dir"
      mkdir -p "$out_dir"
      CAMULT_BENCH_JSON="$out_dir" "$build_dir/bench/gemm_kernel"
      "$build_dir/tools/check_bench_json" "$out_dir/BENCH_gemm_kernel.json"
      ;;
    window)
      say "sliding-window submission smoke (windowed fig6 + peak-memory assertion)"
      out_dir="$build_dir/checks_window"
      rm -rf "$out_dir"
      mkdir -p "$out_dir"
      # m=4096, n=512, b=8 -> 64 panel iterations, ~11k-20k tasks; with
      # window=4 the task store peaks at 2 slabs (~2 MB). Full-DAG
      # submission needs 3-5 slabs, so task_blocks_allocated=2 is a strict
      # windowing regression gate and peak_task_store_bytes backs it with
      # the byte budget the docs quote.
      CAMULT_BENCH_JSON="$out_dir" CAMULT_BENCH_REAL=1 \
        CAMULT_BENCH_M=4096 CAMULT_BENCH_NS=512 CAMULT_BENCH_B=8 \
        CAMULT_BENCH_WINDOW=4 "$build_dir/bench/fig6_lu_tall_m1e6"
      "$build_dir/tools/check_bench_json" \
        --max-field task_blocks_allocated=2 \
        --max-field peak_task_store_bytes=2600000 \
        "$out_dir/BENCH_fig6.json"
      ;;
    *)
      echo "run_checks.sh: unknown tier '$tier'" >&2
      exit 2
      ;;
  esac
done

say "all requested tiers passed ($tiers)"
