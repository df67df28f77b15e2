#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::domain_error("non-finite metric value");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + json_number(v[i]);
  return s + "]";
}

void Report::metric(std::string name, std::string unit, double value,
                    std::size_t samples) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({std::move(name), std::move(unit), value, samples});
}

void Report::stamp(std::string key, std::string value) {
  stamp_.emplace_back(std::move(key), json_string(value));
}

void Report::stamp(std::string key, double value) {
  stamp_.emplace_back(std::move(key),
                      std::isfinite(value) ? json_number(value) : "null");
}

void Report::stamp_raw(std::string key, std::string json) {
  stamp_.emplace_back(std::move(key), std::move(json));
}

void Report::op(bool ok, const std::string& failure) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(failure);
  }
}

void Report::check(bool ok, const std::string& failure) {
  if (ok) return;
  checks_ok_ = false;
  if (failures_.size() < 20) failures_.push_back(failure);
}

bool Report::correct() const {
  return failed_ == 0 && checks_ok_ && attempted_ > 0;
}

std::string Report::stamp_json() const {
  std::string s = "{";
  for (const auto& [k, v] : stamp_) s += json_string(k) + ": " + v + ", ";
  s += "\"samples\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    s += (i ? ", " : "") + json_string(metrics_[i].name) + ": " +
         std::to_string(metrics_[i].samples);
  }
  const double rate = attempted_ > 0 ? static_cast<double>(failed_) /
                                           static_cast<double>(attempted_)
                                     : 1.0;
  s += "}, \"attempted\": " + std::to_string(attempted_) +
       ", \"failed\": " + std::to_string(failed_) +
       ", \"error_rate\": " + json_number(rate) + "}";
  return s;
}

void Report::print() const {
  std::printf("stamp %s\n", stamp_json().c_str());
  for (const Metric& m : metrics_) {
    std::printf("metric %-32s %16.6g %-8s samples=%zu\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
  for (const std::string& f : failures_) std::printf("FAILED %s\n", f.c_str());
  std::string js = "{\"correct\": ";
  js += correct() ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(attempted_) +
        ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    js += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
          json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
