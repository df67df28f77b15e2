// lookahead.hpp — priority bands implementing the look-ahead-of-1 policy
// (paper Section III), shared by CALU and CAQR.
//
// Three disjoint bands, top to bottom:
//   top:  the panel path (P tasks, then L tasks) of iteration k, decreasing
//         in k — the critical path always outranks everything else;
//   mid:  the U/S tasks of column k+1 during iteration k (they unblock
//         panel k+1: the paper's "look-ahead of 1"), decreasing in k;
//   low:  all other trailing updates, ordered by (iteration, column), with
//         each column's U task just above its S tasks.
//
// Slots are derived from (n_panels, n_blocks) so the bands stay disjoint
// and strictly ordered for ANY problem size. The previous fixed scheme,
// `1000000 - (k*1000 + (j-k))`, went negative and scrambled band order once
// k*1000 + (j-k) exceeded 1e6 (reached by e.g. m = 1e6, b = 100 -> 1e4
// panels, well within the paper's tall-skinny regime), and collided between
// different (k, j) pairs once j - k >= 1000.
//
// With `lookahead = false` every task gets priority 0 and the scheduler
// degenerates to dependency + FIFO order (fork-join-like), which is what
// the ablation benches compare against.
#pragma once

#include <cassert>
#include <limits>

#include "matrix/view.hpp"

namespace camult::core {

/// Saturating priority shift. The svc job service layers a whole job's
/// look-ahead bands into its QoS class band by adding a per-class constant
/// to every task priority (CaluOptions/CaqrOptions::priority_bias); the sum
/// clamps at the int range instead of wrapping, so a pathological bias can
/// reorder but never scramble band arithmetic.
inline int biased_priority(int priority, int bias) {
  const long long v =
      static_cast<long long>(priority) + static_cast<long long>(bias);
  if (v > std::numeric_limits<int>::max()) {
    return std::numeric_limits<int>::max();
  }
  if (v < std::numeric_limits<int>::min()) {
    return std::numeric_limits<int>::min();
  }
  return static_cast<int>(v);
}

/// Saturating product of nonnegative band dimensions: a band-slot
/// computation must degrade to "every slot clamps at the ceiling" on
/// overflow, never wrap to a negative (which would scramble band order —
/// the bug class the priority scheme exists to prevent).
inline long long sat_band_mul(long long a, long long b) {
  assert(a >= 0 && b >= 0);
  if (a == 0 || b == 0) return 0;
  constexpr long long kMax = std::numeric_limits<long long>::max();
  if (a > kMax / b) return kMax;
  return a * b;
}

inline long long sat_band_add(long long a, long long b) {
  assert(a >= 0 && b >= 0);
  constexpr long long kMax = std::numeric_limits<long long>::max();
  if (a > kMax - b) return kMax;
  return a + b;
}

/// Iteration-index reuse for windowed submission: with a sliding window of
/// w live iterations, the per-iteration dep-key spaces wrap k modulo
/// ring = w + 2. Safe because iteration k only submits once iteration
/// k - w retired, so the previous owner of slot k % ring — iteration
/// k - w - 2 — is fully retired: its tracker entries resolve to finished
/// tasks (dropped or no-op edges), and no two live iterations ever share a
/// slot (the live span is at most w + 1 < ring). Bounds the tracker's
/// per-iteration key population at O(ring * stride) instead of O(n_panels).
/// A window spanning all n_panels never wraps: every slot is k itself.
struct KeyRing {
  idx ring = 1;  ///< window + 2
  idx slot(idx k) const { return k % ring; }
};

struct LookaheadPriorities {
  idx n_panels = 0;
  idx n_blocks = 0;  ///< column blocks: j ranges over [0, n_blocks)
  bool lookahead = true;

  // Band layout, bottom-up. Every slot is >= 1 and the bands tile
  // [1, top_base() + 2*n_panels] without overlap:
  //   low : (k, j) cell k*n_blocks + j gets {U, S} = {2*(cells - cell),
  //         2*(cells - cell) - 1} in (0, 2*cells]
  //   mid : iteration k gets {U, S} = {mid_base() + 2*(n_panels - k), -1}
  //   top : iteration k gets {P, L} = {top_base() + 2*(n_panels - k), -1}
  long long mid_base() const {
    return sat_band_mul(2, sat_band_mul(static_cast<long long>(n_panels),
                                        static_cast<long long>(n_blocks)));
  }
  long long top_base() const {
    return sat_band_add(mid_base(),
                        sat_band_mul(2, static_cast<long long>(n_panels)));
  }

  int panel(idx k) const {
    if (!lookahead) return 0;
    return clamp_to_int(
        sat_band_add(top_base(), 2 * static_cast<long long>(n_panels - k)));
  }
  int lfactor(idx k) const {
    if (!lookahead) return 0;
    return clamp_to_int(sat_band_add(
                            top_base(),
                            2 * static_cast<long long>(n_panels - k)) -
                        1);
  }
  int ufactor(idx k, idx j) const {
    if (!lookahead) return 0;
    if (j == k + 1) {
      return clamp_to_int(sat_band_add(
          mid_base(), 2 * static_cast<long long>(n_panels - k)));
    }
    return clamp_to_int(2 * (mid_base() / 2 - low_cell(k, j)));
  }
  int update(idx k, idx j) const {
    if (!lookahead) return 0;
    if (j == k + 1) {
      return clamp_to_int(sat_band_add(
                              mid_base(),
                              2 * static_cast<long long>(n_panels - k)) -
                          1);
    }
    return clamp_to_int(2 * (mid_base() / 2 - low_cell(k, j)) - 1);
  }

 private:
  long long low_cell(idx k, idx j) const {
    assert(k >= 0 && k < n_panels);
    assert(j >= 0 && j < n_blocks);
    return static_cast<long long>(k) * static_cast<long long>(n_blocks) +
           static_cast<long long>(j);
  }
  static int clamp_to_int(long long v) {
    // The full band range fits in int for any matrix that fits in memory
    // (overflow needs n_panels * n_blocks > ~5e8 tiles, i.e. exabyte-scale
    // at the paper's b). Past the envelope, SATURATE instead of wrapping:
    // top bands bleed together (degraded look-ahead, like an oversized
    // svc priority_bias — see kQosBandWidth) but stay positive and
    // monotone-ordered; the old assert-only guard wrapped to negative in
    // release builds and scrambled the whole band structure.
    if (v > std::numeric_limits<int>::max()) {
      return std::numeric_limits<int>::max();
    }
    if (v < 1) return 1;
    return static_cast<int>(v);
  }
};

}  // namespace camult::core
