#pragma once
// Tail-based trace sampler: decide *after* a request finished whether its
// trace deserves promotion into the retained store (trace.hpp).
//
// The decision combines:
//  * anomalies — shed, deadline-missed, errored, or check-flagged requests
//    are always retained (they are the post-mortems the flight recorder and
//    dashboards exist for);
//  * a streaming p99 latency estimate — a LogHistogram of observed e2e
//    latencies; once enough samples accumulated, anything at or above the
//    p99 bucket is "slow" and retained;
//  * a head-sampling rate — a deterministic hash of the trace id keeps
//    `rate` of ordinary requests so dashboards always have fresh exemplars.
//
// Lock-free: observe() is three relaxed increments, should_retain() reads
// the bucket array.  One sampler per service; tests may construct their own.

#include <cstdint>

#include "sacpp/obs/histogram.hpp"
#include "sacpp/obs/trace.hpp"

namespace sacpp::obs {

class TailSampler {
 public:
  // Latency samples required before the p99 estimate is trusted; below this
  // only anomalies, forced flags, and head samples retain.
  static constexpr std::uint64_t kWarmupCount = 64;

  explicit TailSampler(double head_rate = 0.0) noexcept
      : head_permille_(rate_to_permille(head_rate)) {}

  // Feed one completed request's end-to-end latency.
  void observe(std::uint64_t e2e_ns) noexcept { hist_.observe(e2e_ns); }

  // Streaming p99 threshold: the lower bound of the histogram bucket holding
  // the 99th percentile (conservative — only values at least one full log
  // bucket into the tail count as slow).  0 while warming up.
  std::uint64_t slow_threshold_ns() const noexcept {
    const std::uint64_t total = hist_.count();
    if (total < kWarmupCount) return 0;
    const std::uint64_t target =
        total - total / 100;  // rank of the p99 sample
    std::uint64_t seen = 0;
    for (int i = 0; i < LogHistogram::kBuckets; ++i) {
      seen += hist_.bucket(i);
      if (seen >= target) {
        return i <= 1 ? 1 : (std::uint64_t{1} << (i - 1));
      }
    }
    return 0;
  }

  // The tail decision.  `anomalous` covers shed / deadline-miss / error /
  // wrong-answer / check-flagged outcomes.  Fills `reason` with why the
  // trace should be kept when returning true.
  bool should_retain(std::uint64_t e2e_ns, bool anomalous, std::uint8_t flags,
                     std::uint64_t trace_id, RetainReason* reason) const noexcept {
    if (anomalous) {
      // Caller already knows the precise anomaly; default to kError when it
      // does not overwrite.
      if (reason != nullptr) *reason = RetainReason::kError;
      return true;
    }
    if ((flags & kTraceForced) != 0) {
      if (reason != nullptr) *reason = RetainReason::kFlagged;
      return true;
    }
    const std::uint64_t slow = slow_threshold_ns();
    if (slow != 0 && e2e_ns >= slow) {
      if (reason != nullptr) *reason = RetainReason::kSlow;
      return true;
    }
    if (head_permille_ != 0 && hash_permille(trace_id) < head_permille_) {
      if (reason != nullptr) *reason = RetainReason::kSampled;
      return true;
    }
    return false;
  }

  std::uint64_t observed() const noexcept { return hist_.count(); }

  void reset() noexcept { hist_.clear(); }

 private:
  static std::uint32_t rate_to_permille(double rate) noexcept {
    if (rate <= 0.0) return 0;
    if (rate >= 1.0) return 1000;
    return static_cast<std::uint32_t>(rate * 1000.0 + 0.5);
  }

  // SplitMix64 finalizer: deterministic per-trace sampling, uniform in the
  // low bits even for sequential ids.
  static std::uint32_t hash_permille(std::uint64_t id) noexcept {
    std::uint64_t z = id + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return static_cast<std::uint32_t>(z % 1000);
  }

  LogHistogram hist_;
  const std::uint32_t head_permille_;
};

}  // namespace sacpp::obs
