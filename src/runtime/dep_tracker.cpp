#include "runtime/dep_tracker.hpp"

#include <algorithm>

namespace camult::rt {

std::vector<TaskId> DepTracker::depends(
    TaskId task, const std::vector<BlockAccess>& accesses) {
  std::vector<TaskId> deps;
  for (const BlockAccess& a : accesses) {
    BlockState& st = state_[a.key];
    const bool reads =
        a.mode == AccessMode::Read || a.mode == AccessMode::ReadWrite;
    const bool writes =
        a.mode == AccessMode::Write || a.mode == AccessMode::ReadWrite;

    if (reads && st.last_writer != kNoTask && st.last_writer != task) {
      deps.push_back(st.last_writer);  // RAW
    }
    if (writes) {
      if (st.last_writer != kNoTask && st.last_writer != task) {
        deps.push_back(st.last_writer);  // WAW
      }
      for (TaskId r : st.readers_since_write) {
        if (r != task) deps.push_back(r);  // WAR
      }
      st.readers_since_write.clear();
      st.last_writer = task;
    } else {
      st.readers_since_write.push_back(task);
    }
  }
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  return deps;
}

std::vector<ColSegment> trailing_segments(idx col0, idx jb, idx b, idx n,
                                          idx group) {
  group = std::max<idx>(1, group);
  const idx kb = col0 / b;
  const idx n_blocks = (n + b - 1) / b;
  const idx block_end = std::min(n, (kb + 1) * b);
  std::vector<ColSegment> segments;
  if (col0 + jb < block_end) {
    segments.push_back({col0 + jb, block_end - (col0 + jb), kb, kb + 1});
  }
  for (idx jblk = kb + 1; jblk < n_blocks; jblk += group) {
    const idx jend = std::min(n_blocks, jblk + group);
    segments.push_back(
        {jblk * b, std::min(n, jend * b) - jblk * b, jblk, jend});
  }
  return segments;
}

}  // namespace camult::rt
