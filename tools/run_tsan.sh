#!/usr/bin/env sh
# Build the runtime tests under ThreadSanitizer and run the scheduler's
# concurrency surface: test_runtime (API + wakeup paths),
# test_scheduler_stress (randomized DAGs, submission racing execution,
# 1-8 threads on a private pool), test_observability (the per-worker
# counter instrumentation: single-writer slots racing the stats() reader),
# test_pack_concurrency (one shared
# PackedPanel consumed read-only by many S tasks while other workers pack
# the next panel — the only happens-before is the scheduler's dep edge),
# test_worker_pool (persistent workers rotating between concurrently
# attached DAGs: the attach/detach, park/wake and control-epoch
# handshakes, and the private pool a graph builds and joins for itself),
# test_blas_pack (including the dead-thread_local slab
# pool regression, which under ASAN is a heap use-after-free if pool()
# ever hands back the destroyed pool), test_fault_inject (the
# failure-aware surface: seeded fault injection — throws, delays and
# cancel-oblivious hangs — into hundreds of CALU/CAQR runs, cancellation,
# the fast-abort drain accounting, and the 200-seed service fault storm
# with retry + stall detection + breakers armed — exactly the error paths
# production never exercises until it hurts),
# test_svc (the multi-tenant job service: dispatcher threads racing
# submit/shed/cancel/shutdown over one shared pool, the timer thread
# firing deadlines, retry requeues and heartbeat stall checks against
# running jobs under the service mutex while JobHandles wait and cancel
# under the job's own lock, shutdown finishing or requeueing jobs parked
# in retry backoff, breaker state shared across submitters) and
# test_window (sliding-window DAG
# submission: the submission thread recycling task-store slabs and
# harvesting trace records of retired iterations while workers are
# still completing newer ones), test_blas_trsm_trmm (the Right-side
# trsm/trmm base cases and trsm's row blocks: ragged row-block tails and
# strided sub-views of B, where an off-by-one reads or writes past the
# view) and test_adversarial (the health monitor's input screens: CALU's
# tournament leaves and CAQR's iteration-0 leaf and leaf-update tasks each
# fill their own screen slot on a worker, merged after the graph drains)
# and test_core_tslu (the tournament leaf's chunk loop: ragged last chunks,
# blocks viewed inside a taller panel, and winners read back from earlier
# chunks, where an index slip reads past the block), test_core_tsqr,
# test_core_caqr and test_tpqrt (the TSQR leaf's chunk loop: the TS kernel
# tpqrt/tpmqrt writing V_B in place inside a taller panel, a ragged last
# chunk shorter than the leaf's width, and multi-chunk CAQR leaves applied
# by leaf-update tasks on worker threads, where an off-by-one reads past
# the view), test_tiled and
# test_baseline (the tiled LU/QR/Cholesky and blocked getrf/geqrf
# baselines: their DAGs go through TaskGraph::submit_accessing and its
# dependency tracker while workers complete earlier tasks), and
# test_blas_gemm, test_blas_level2 and test_lapack_qr (the inner-product
# kernel behind gemm(Trans, NoTrans) and gemv(Trans) and the geqr3 built
# on it, and the short-product kernel behind gemm(NoTrans, Trans), whose
# masked row tail runs under geqr3's and tpqrt's C2 -= V2 W^T: masked
# contraction and row tails, fringe tiles and strided views inside taller
# matrices, where an off-by-one reads past the view — ASan catches that,
# the tolerance checks do not), and test_blas_level1 and
# test_lapack_lu (the vectorised pivot search's vector tail, rgetf2's base
# blocks on views inside taller hosts, and the short-product kernel's
# masked row tail under the Schur updates above them, where an off-by-one
# reads past a column), and test_kernel_dispatch (per kernel, four threads
# running gemm and both gemm_packed overloads at once, with no lock on the
# blocking each call reads from its kernel).
# Any reported race fails the run.
#
# Usage: tools/run_tsan.sh [build-dir]        (default: build-tsan)
# Other sanitizers via: SAN=address tools/run_tsan.sh
#                       SAN=undefined tools/run_tsan.sh
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
san=${SAN:-thread}
build_dir=${1:-"$repo_root/build-$san"}

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCAMULT_SANITIZE="$san" \
  -DCAMULT_NATIVE_ARCH=OFF \
  -DCAMULT_BUILD_BENCH=OFF \
  -DCAMULT_BUILD_EXAMPLES=OFF
cmake --build "$build_dir" -j --target test_runtime test_scheduler_stress \
  test_observability test_pack_concurrency test_worker_pool test_blas_pack \
  test_fault_inject test_svc test_window test_blas_trsm_trmm test_adversarial \
  test_core_tslu test_core_tsqr test_core_caqr test_tpqrt test_tiled \
  test_baseline test_blas_gemm test_blas_level2 test_lapack_qr \
  test_blas_level1 test_lapack_lu test_kernel_dispatch

case "$san" in
  thread)
    export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1${TSAN_OPTIONS:+ $TSAN_OPTIONS}"
    ;;
  address)
    export ASAN_OPTIONS="detect_leaks=1${ASAN_OPTIONS:+ $ASAN_OPTIONS}"
    ;;
  undefined)
    export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1${UBSAN_OPTIONS:+ $UBSAN_OPTIONS}"
    ;;
esac

"$build_dir/tests/test_runtime"
"$build_dir/tests/test_scheduler_stress"
"$build_dir/tests/test_observability"
"$build_dir/tests/test_pack_concurrency"
"$build_dir/tests/test_worker_pool"
"$build_dir/tests/test_blas_pack"
"$build_dir/tests/test_fault_inject"
"$build_dir/tests/test_svc"
"$build_dir/tests/test_window"
"$build_dir/tests/test_blas_trsm_trmm"
"$build_dir/tests/test_adversarial"
"$build_dir/tests/test_core_tslu"
"$build_dir/tests/test_core_tsqr"
"$build_dir/tests/test_core_caqr"
"$build_dir/tests/test_tpqrt"
"$build_dir/tests/test_tiled"
"$build_dir/tests/test_baseline"
"$build_dir/tests/test_blas_gemm"
"$build_dir/tests/test_blas_level2"
"$build_dir/tests/test_lapack_qr"
"$build_dir/tests/test_blas_level1"
"$build_dir/tests/test_lapack_lu"
"$build_dir/tests/test_kernel_dispatch"
echo "[$san sanitizer] all scheduler tests passed"
