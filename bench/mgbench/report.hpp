#pragma once
// Measurement record of one mgbench run: metrics with every sample, the
// correctness tally, and free-form host/run facts.  Serialised as one JSON
// object on stdout; run.py turns it into results.json and the summary line.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mgbench {

using Clock = std::chrono::steady_clock;

// Seconds on the monotonic clock.  CLOCK_MONOTONIC is shared by every process
// on the host, so a child can report absolute timestamps its parent places on
// the same trace timeline.
inline double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v);

// Nearest-rank percentile (q in [0, 1]) of `v`; +inf entries (failed
// requests) sort last, so they count as over any limit.
double percentile(std::vector<double> v, double q);

class Report {
 public:
  // Append one sample of `name`.  The reported value is the median of the
  // samples unless set_value() overrides it.
  void add(const std::string& name, const std::string& unit, double sample);
  void set_value(const std::string& name, const std::string& unit,
                 double value);
  double value(const std::string& name) const;
  // `name` = value(num) / value(den), a ratio printed with its base.  The
  // base is recorded in info as "ratio.<name>" = "<num>/<den>", the one
  // place run.py and compare.py read it from.
  void set_ratio(const std::string& name, const std::string& num,
                 const std::string& den);

  // One checked operation (a solve, a request).  A failed check makes the
  // run incorrect; `what` is kept for the first few failures.
  void attempt(bool ok, const std::string& what);
  // A checked operation whose answer was right but that the service did not
  // deliver within its terms: shed, late, or without a reply.  It counts
  // against success_frac, not against correctness.
  void miss() { missed_ += 1; }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  // 1 - (failed + missed) / attempted: the end-to-end success_frac.
  double success_frac() const;

  void info(const std::string& key, const std::string& value) {
    info_[key] = value;
  }

  std::string to_json() const;

 private:
  struct Metric {
    std::string unit;
    std::vector<double> samples;
    bool has_value = false;
    double value = 0.0;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> info_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t missed_ = 0;
};

}  // namespace mgbench
