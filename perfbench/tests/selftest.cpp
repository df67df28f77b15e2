// selftest.cpp — unit checks of perfbench's statistics, span self times and
// result formatting. Exits nonzero on the first failed check; run it via
// tests/test_perfbench.py or directly from the build tree.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

int g_checks = 0;

void check(bool ok, const char* what, int line) {
  ++g_checks;
  if (!ok) {
    std::fprintf(stderr, "selftest: line %d: %s\n", line, what);
    std::exit(1);
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * (1 + std::fabs(b)); }

template <class F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

using perfbench::Span;

void test_percentile() {
  using perfbench::percentile;
  const std::vector<double> v = {5, 1, 4, 2, 3};
  CHECK(near(perfbench::median(v), 3.0));
  CHECK(near(perfbench::median({4, 1, 3, 2}), 2.5));
  CHECK(near(percentile(v, 0.0), 1.0));
  CHECK(near(percentile(v, 1.0), 5.0));
  CHECK(near(percentile(v, 0.99), 4.96));  // numpy.percentile(v, 99)
  CHECK(near(percentile({7.0}, 0.99), 7.0));
  CHECK(throws([] { percentile({}, 0.5); }));
  CHECK(throws([] { percentile({1.0}, 1.5); }));
  std::vector<double> many;
  for (int i = 1; i <= 1000; ++i) many.push_back(i);
  const double p99 = percentile(many, 0.99);
  CHECK(near(p99, 990.01));
  CHECK(perfbench::count_above(many, p99) == 10);
}

void test_quartiles() {
  // Reference values from Python's statistics.quantiles(v, n=4).
  auto q = perfbench::quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  CHECK(near(q.q1, 2.75) && near(q.q2, 5.5) && near(q.q3, 8.25));
  q = perfbench::quartiles({1, 2});
  CHECK(near(q.q1, 0.75) && near(q.q2, 1.5) && near(q.q3, 2.25));
  q = perfbench::quartiles({5, 1, 4, 2, 3});
  CHECK(near(q.q1, 1.5) && near(q.q2, 3.0) && near(q.q3, 4.5));
  q = perfbench::quartiles({1.5, 1.6, 1.55, 1.58, 1.7, 1.52, 1.61});
  CHECK(near(q.q1, 1.52) && near(q.q2, 1.58) && near(q.q3, 1.61));
  CHECK(near(q.relative_iqr(), (1.61 - 1.52) / 1.58));
  CHECK(throws([] { perfbench::quartiles({1.0}); }));
}

void test_self_times() {
  // root [0,100) with children [10,30) and [20,50) (overlapping, as job
  // spans do) and a child clipped by the parent's end; grandchild inside.
  const std::vector<Span> spans = {
      {0, -1, "root", 0, 100},   {1, 0, "a", 10, 30},
      {2, 0, "b", 20, 50},       {3, 0, "c", 90, 120},
      {4, 1, "a.x", 12, 18},
  };
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  CHECK(self[0] == 100 - 40 - 10);
  CHECK(self[1] == 20 - 6);
  CHECK(self[2] == 30);
  CHECK(self[3] == 30);
  CHECK(self[4] == 6);
}

void test_tracer() {
  perfbench::Tracer off(false);
  CHECK(off.begin("x") == -1);
  off.end(-1);
  CHECK(off.spans().empty());
  perfbench::Tracer t(true);
  {
    perfbench::Scope outer(t, "outer");
    perfbench::Scope inner(t, "inner");
    CHECK(t.current() == inner.id());
    t.set_paused(true);
    CHECK(t.begin("hidden") == -1);
    t.set_paused(false);
  }
  CHECK(t.spans().size() == 2);
  CHECK(t.spans()[1].parent == 0);
  CHECK(t.spans()[0].end_ns >= t.spans()[1].end_ns);
}

void test_report() {
  CHECK(perfbench::json_string("a\"b\\c\n") == "\"a\\\"b\\\\c\\u000a\"");
  CHECK(std::stod(perfbench::json_number(0.1)) == 0.1);
  CHECK(std::stod(perfbench::json_number(1.0 / 3.0)) == 1.0 / 3.0);
  perfbench::Report r;
  CHECK(!r.correct());  // nothing attempted
  r.op(true, "");
  CHECK(r.correct());
  r.metric("x", "s", std::nan(""), 1);  // a non-finite value fails the run
  CHECK(!r.correct());
  perfbench::Report f;
  f.op(true, "");
  f.op(false, "boom");
  CHECK(!f.correct() && f.attempted() == 2 && f.failed() == 1);
  CHECK(f.stamp_json().find("\"error_rate\": 0.5") != std::string::npos);
}

}  // namespace

int main() {
  test_percentile();
  test_quartiles();
  test_self_times();
  test_tracer();
  test_report();
  std::printf("selftest: %d checks passed\n", g_checks);
  return 0;
}
