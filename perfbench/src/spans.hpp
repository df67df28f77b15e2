// spans.hpp — the benchmark's own tracer: spans recorded around its calls
// into each camult layer, kept in memory and written out when the run ends.
//
// Every span has an id, a parent id (-1 for the root), a name and
// [start, end) in nanoseconds on the steady clock. A span's self time is its
// duration minus the union of its children's intervals. Only the thread
// that drives the benchmark records spans, so the tracer takes no lock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds since the first call in this process (steady clock).
std::int64_t now_ns();

struct Span {
  int id = -1;
  int parent = -1;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing and every call is a no-op.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// While paused, begin() records nothing and returns -1 (untraced
  /// repetitions inside a traced run).
  void set_paused(bool paused) { paused_ = paused; }

  /// Open a span as a child of the innermost open span; returns its id
  /// (-1 when disabled).
  int begin(std::string name);
  /// Close span `id`, which must be the innermost open span.
  void end(int id);
  /// Record an already finished span with explicit times (phases that a
  /// library output reports, such as a job's queue and run time).
  int add(std::string name, int parent, std::int64_t start_ns,
          std::int64_t end_ns);
  /// Innermost open span, or -1.
  int current() const { return open_.empty() ? -1 : open_.back(); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  bool paused_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: begins on construction, ends on destruction.
class Scope {
 public:
  Scope(Tracer& t, std::string name) : t_(t), id_(t.begin(std::move(name))) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// Self time of every span (indexed by id): duration minus the union of its
/// children's intervals clipped to the span.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Write {"stamp": <stamp_json>, "spans": [...]} to `path`; returns false
/// when the file cannot be written.
bool write_spans(const std::string& path, const std::string& stamp_json,
                 const std::vector<Span>& spans);

}  // namespace perfbench
