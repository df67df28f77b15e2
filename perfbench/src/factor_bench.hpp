// factor_bench.hpp — one LU problem and one QR problem on one worker pool:
// the pristine inputs, the scratch they are copied into before every call,
// and the checked repetition every workload is built from.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "matrix/matrix.hpp"
#include "report.hpp"
#include "runtime/worker_pool.hpp"
#include "spans.hpp"

namespace perfbench {

/// One repetition: a pristine-input copy and a calu_factor call, then a copy
/// and a caqr_factor call, each output checked against the first
/// repetition's digest.
struct RepResult {
  double lu_s = 0.0;         ///< calu_factor wall time
  double qr_s = 0.0;         ///< caqr_factor wall time
  double copy_s = 0.0;       ///< both pristine-input copies
  double copy_gbps = 0.0;    ///< copy bytes (read + write) / copy_s
  // Counted only when rep() is asked to (see rep()).
  std::int64_t gemm_bytes = 0;    ///< blas traffic of both calls
  std::int64_t pool_parks = 0;    ///< worker sleep episodes during both calls
  std::int64_t pool_wakeups = 0;  ///< wakes the pool issued during both calls
  camult::core::CaluResult lu;
  camult::core::CaqrResult qr;
};

class FactorBench {
 public:
  /// Generates the inputs from `seed` (one shared input when the shapes are
  /// equal) and starts a pool of `pool_size` workers.
  FactorBench(Shape lu, Shape qr, std::uint64_t seed, int pool_size);

  /// Run one checked repetition. The first one records the reference
  /// digests. `count` sums blas::gemm_traffic over the pool's workers and
  /// takes the pool's park/wake counters around the two calls.
  RepResult rep(Report& report, Tracer& tracer, bool count);

  /// One more repetition whose factors are also held to kResidualBound.
  void residual_check(Report& report, Tracer& tracer);

  /// Corrupt the output of the next LU call before it is checked.
  void corrupt_next() { corrupt_next_ = true; }

  const Shape& lu_shape() const { return lu_; }
  const Shape& qr_shape() const { return qr_; }
  ConstMatrixView lu_input() const { return a_lu_.view(); }
  ConstMatrixView qr_input() const {
    return shared_ ? a_lu_.view() : a_qr_.view();
  }
  /// Scratch the calls factor in place: one buffer per input.
  MatrixView lu_work() { return work_lu_.view(); }
  MatrixView qr_work() { return shared_ ? work_lu_.view() : work_qr_.view(); }
  double input_bytes() const {
    return lu_.bytes() + (shared_ ? 0.0 : qr_.bytes());
  }

  camult::rt::WorkerPool& pool() { return *pool_; }
  camult::core::CaluOptions lu_options();
  camult::core::CaqrOptions qr_options();

  std::uint64_t lu_reference() const { return ref_lu_; }
  std::uint64_t qr_reference() const { return ref_qr_; }

 private:
  /// Copy the pristine input into the scratch view and time it.
  double copy(ConstMatrixView src, MatrixView dst, Tracer& tracer);
  /// Copy, factor and check one problem; false when the call threw.
  bool run_lu(Report& report, Tracer& tracer, RepResult& out);
  bool run_qr(Report& report, Tracer& tracer, RepResult& out);
  void check_lu(Report& report, Tracer& tracer,
                const camult::core::CaluResult& r);
  void check_qr(Report& report, Tracer& tracer,
                const camult::core::CaqrResult& r);

  Shape lu_;
  Shape qr_;
  bool shared_;
  camult::Matrix a_lu_;
  camult::Matrix a_qr_;  ///< empty when shared_
  camult::Matrix work_lu_;
  camult::Matrix work_qr_;  ///< empty when shared_
  std::unique_ptr<camult::rt::WorkerPool> pool_;
  bool have_ref_lu_ = false;
  bool have_ref_qr_ = false;
  std::uint64_t ref_lu_ = 0;
  std::uint64_t ref_qr_ = 0;
  bool corrupt_next_ = false;
};

/// Median wall times of the measured repetitions of one loop.
struct LoopResult {
  std::vector<double> lu_s;
  std::vector<double> qr_s;
  std::vector<double> rep_s;      ///< lu_s + qr_s per repetition
  std::vector<double> copy_gbps;
  double span_s = 0.0;            ///< wall time of the whole loop
  RepResult last;
};

/// Repeat rep() until `seconds` have passed (and at least `min_reps`).
LoopResult rep_loop(FactorBench& fb, Report& report, Tracer& tracer,
                    double seconds, int min_reps, bool count);

/// The tall and square workloads.
void run_factor_workload(const Options& opt, Report& report, Tracer& tracer);

}  // namespace perfbench
