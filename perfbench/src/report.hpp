// report.hpp — what one benchmark run prints: the stamp describing the
// machine and inputs, every metric with its unit and sample count, the
// operation tally, and the final one-line JSON result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

std::string json_string(const std::string& s);
/// Shortest round-trippable decimal for a finite double.
std::string json_number(double v);
std::string json_array(const std::vector<double>& v);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;
};

class Report {
 public:
  void metric(std::string name, std::string unit, double value,
              std::size_t samples);
  void stamp(std::string key, std::string value);  ///< string entry
  void stamp(std::string key, double value);       ///< number entry
  void stamp_raw(std::string key, std::string json);  ///< preformatted JSON

  /// Tally one operation (a factorization or a job) and its verdict.
  void op(bool ok, const std::string& failure);
  /// A correctness check that is not itself an operation (residual bound,
  /// trace sanity). A failed check makes the run incorrect.
  void check(bool ok, const std::string& failure);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  bool correct() const;
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// {"key": value, ...} of every stamp entry plus each metric's sample
  /// count and the error rate.
  std::string stamp_json() const;
  /// Human-readable lines, then the one-line JSON result, on stdout.
  void print() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> stamp_;  ///< key, JSON
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
  bool checks_ok_ = true;
};

}  // namespace perfbench
