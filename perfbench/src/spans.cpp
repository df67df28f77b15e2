#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "report.hpp"

namespace perfbench {

std::int64_t now_ns() {
  static const auto zero = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - zero)
      .count();
}

int Tracer::begin(std::string name) {
  if (!enabled_ || paused_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({id, current(), std::move(name), now_ns(), 0});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("span closed out of order");
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

int Tracer::add(std::string name, int parent, std::int64_t start_ns,
                std::int64_t end_ns) {
  if (!enabled_ || paused_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({id, parent, std::move(name), start_ns, end_ns});
  return id;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) kids[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return self;
}

bool write_spans(const std::string& path, const std::string& stamp_json,
                 const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"stamp\": %s,\n\"spans\": [\n", stamp_json.c_str());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\": %d, \"parent\": %d, \"name\": %s, \"start_ns\": %lld, "
                 "\"end_ns\": %lld}%s\n",
                 s.id, s.parent, json_string(s.name).c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
