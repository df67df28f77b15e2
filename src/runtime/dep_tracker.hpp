// dep_tracker.hpp — superscalar-style automatic dependency inference.
//
// Algorithms register, for each task, which logical blocks it reads and
// writes. The tracker derives the dependency edges (RAW, WAR, WAW) exactly
// like an out-of-order processor's register renaming stage — this is the
// mechanism behind "the task dependency graph is constructed on the fly"
// in the paper.
#pragma once

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/task.hpp"

namespace camult::rt {

enum class AccessMode : std::uint8_t { Read, Write, ReadWrite };

/// A logical block key. Algorithms typically pack (block row, block col);
/// any scheme works as long as overlapping accesses share a key.
using BlockKey = std::int64_t;

inline BlockKey block_key(idx block_row, idx block_col) {
  // Injective while block_col < 2^24 and block_row < 2^35, which also keeps
  // every tile key below 2^59 — disjoint from the key spaces
  // TaskGraph::key_space places at 2^59 and above. 2^35 block rows exceeds
  // any matrix that fits in memory by orders of magnitude; the assert pins
  // the envelope so a future caller cannot silently alias tiles with
  // tournament/pack keys.
  assert(block_row >= 0 && block_row < (idx{1} << 35));
  assert(block_col >= 0 && block_col < (idx{1} << 24));
  return (block_row << 24) ^ block_col;
}

struct BlockAccess {
  BlockKey key;
  AccessMode mode;
};

/// Append a `mode` access to each tile (i, j), i in [i0, i1).
inline void add_tile_range(std::vector<BlockAccess>& acc, idx i0, idx i1,
                           idx j, AccessMode mode) {
  for (idx i = i0; i < i1; ++i) acc.push_back({block_key(i, j), mode});
}

/// Checked offset k * stride + slot inside one key space: slot < stride,
/// and the offset stays under the 2^59 per-space envelope that keeps the
/// spaces disjoint and below 2^63. Paper-scale runs sit ~13 orders of
/// magnitude below the bound (m = 1e6, b = 4 gives k ~ 2.5e5 and stride ~
/// tr + 1), so a throw always means arithmetic went wrong — silent
/// wraparound would alias keys across iterations and corrupt the DAG.
inline std::int64_t checked_key_offset(idx k, idx stride, idx slot) {
  constexpr std::int64_t kLimit = std::int64_t{1} << 59;
  if (k < 0 || stride <= 0 || slot < 0 || slot >= stride ||
      k > (kLimit - 1 - slot) / stride) {
    throw std::overflow_error(
        "dep-key space overflow: iteration " + std::to_string(k) +
        ", stride " + std::to_string(stride) + ", slot " +
        std::to_string(slot) + " leaves the 2^59 per-space envelope");
  }
  return k * stride + slot;
}

/// A declared dependency-key space for per-iteration algorithm state
/// (tournament slots, pivot decisions, packed blocks, ...): `stride` keys
/// per iteration, key(k, slot) = base + checked_key_offset(k, stride,
/// slot). Obtained from TaskGraph::key_space, which keeps every space it
/// hands out disjoint from the tile keys and from each other.
class KeySpace {
 public:
  KeySpace() = default;
  KeySpace(BlockKey base, idx stride) : base_(base), stride_(stride) {}
  BlockKey key(idx k, idx slot = 0) const {
    return base_ + checked_key_offset(k, stride_, slot);
  }

 private:
  BlockKey base_ = 0;
  idx stride_ = 1;
};

/// One column segment of a trailing update: columns [col0, col0 + cols),
/// covering tile columns [jblk, jend).
struct ColSegment {
  idx col0, cols, jblk, jend;
};

/// The trailing columns right of the panel at column col0 (width jb) of a
/// b-blocked n-column matrix: the rest of the panel's own tile column when
/// the panel is narrower than it, then the tile columns to its right in
/// groups of `group` (values below 1 mean 1).
std::vector<ColSegment> trailing_segments(idx col0, idx jb, idx b, idx n,
                                          idx group = 1);

class DepTracker {
 public:
  /// Compute the dependencies of a task performing `accesses`, then record
  /// the task as the new reader/writer of those blocks. Returns the
  /// deduplicated dependency list.
  std::vector<TaskId> depends(TaskId task,
                              const std::vector<BlockAccess>& accesses);

 private:
  struct BlockState {
    TaskId last_writer = kNoTask;
    std::vector<TaskId> readers_since_write;
  };
  std::unordered_map<BlockKey, BlockState> state_;
};

}  // namespace camult::rt
