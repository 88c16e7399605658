#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace mgbench {

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

void Report::add(const std::string& name, const std::string& unit,
                 double sample) {
  Metric& m = metrics_[name];
  m.unit = unit;
  m.samples.push_back(sample);
}

void Report::set_value(const std::string& name, const std::string& unit,
                       double value) {
  Metric& m = metrics_[name];
  m.unit = unit;
  m.has_value = true;
  m.value = value;
}

double Report::value(const std::string& name) const {
  const Metric& m = metrics_.at(name);
  return m.has_value ? m.value : median(m.samples);
}

void Report::set_ratio(const std::string& name, const std::string& num,
                       const std::string& den) {
  set_value(name, "ratio", value(num) / value(den));
  info("ratio." + name, num + "/" + den);
}

void Report::attempt(bool ok, const std::string& what) {
  attempted_ += 1;
  if (ok) return;
  failed_ += 1;
  if (failures_.size() < 8) failures_.push_back(what);
}

double Report::success_frac() const {
  return 1.0 - static_cast<double>(failed_ + missed_) /
                   static_cast<double>(std::max<std::uint64_t>(attempted_, 1));
}

namespace {

std::string quote(const std::string& s) {
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

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    out += (i ? ", " : "") + quote(failures_[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    out += (first ? "" : ", ") + quote(name) + ": {\"unit\": " +
           quote(m.unit) + ", \"value\": " + number(value(name)) +
           ", \"samples\": [";
    for (std::size_t i = 0; i < m.samples.size(); ++i) {
      out += (i ? ", " : "") + number(m.samples[i]);
    }
    out += "]}";
    first = false;
  }
  out += "}, \"info\": {";
  first = true;
  for (const auto& [key, v] : info_) {
    out += (first ? "" : ", ") + quote(key) + ": " + quote(v);
    first = false;
  }
  return out + "}}";
}

}  // namespace mgbench
