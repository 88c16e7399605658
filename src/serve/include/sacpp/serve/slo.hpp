#pragma once
// SLO watchdog: rolling burn-rate accounting over the serving stack, exported
// through the Prometheus collector and fed back to the AdmissionQueue as an
// advisory overload signal.
//
// The watchdog keeps a two-epoch rolling window (each epoch is half of
// SloConfig::window_ns): per-priority end-to-end latency histograms plus
// submitted/shed counts rotate through (current, previous) pairs, so every
// reading covers between one and two half-windows of traffic — cheap,
// allocation-free, and immune to unbounded growth.  From the window it
// derives:
//
//   * burn rate per lane  — windowed p99 / the lane's p99 budget (> 1 means
//     the error budget is burning faster than the SLO allows);
//   * shed ratio          — sheds / submissions in the window, not counting
//                           the queue's advisory sheds (its own advice);
//   * queue saturation    — last observed depth / capacity.
//
// overloaded() is a single relaxed atomic load (recomputed on every
// observation), so the AdmissionQueue can consult it on the push path
// without adding a lock: when the watchdog says overloaded, the queue sheds
// incoming LOW-priority work immediately instead of letting it age out in a
// lane that will never drain in budget (graceful-overload feedback, the
// ROADMAP's "production-harden the serving edge" direction).

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "sacpp/common/lockorder.hpp"
#include "sacpp/obs/export.hpp"
#include "sacpp/obs/histogram.hpp"
#include "sacpp/serve/job.hpp"

namespace sacpp::serve {

struct SloConfig {
  // Per-lane p99 end-to-end budgets in ns; 0 disables that lane's burn gate.
  std::int64_t p99_budget_ns[kPriorityLanes] = {0, 0, 0};
  double max_shed_ratio = 0.10;       // window shed fraction before overload
  double max_queue_saturation = 0.90; // depth/capacity before overload
  std::int64_t window_ns = 10'000'000'000;  // full window (two epochs)

  bool any_budget() const noexcept {
    for (std::int64_t b : p99_budget_ns) {
      if (b > 0) return true;
    }
    return false;
  }
};

class SloWatchdog {
 public:
  explicit SloWatchdog(const SloConfig& cfg) : cfg_(cfg) {}

  // One finished (or shed) request.  `e2e_ns` < 0 means no latency sample
  // (sheds settle without executing).  Thread-safe.
  void observe(Priority lane, SolveStatus status, std::int64_t e2e_ns);

  // Latest queue occupancy (sampled on the dispatch path).
  void observe_queue(std::size_t depth, std::size_t capacity);

  // Advisory overload signal: lock-free, recomputed after every observation.
  bool overloaded() const noexcept {
    return overloaded_.load(std::memory_order_relaxed);
  }

  // Windowed p99 (ns) and burn rate (p99 / budget; 0 when the lane has no
  // budget or no samples).
  std::int64_t window_p99_ns(Priority lane) const;
  double burn_rate(Priority lane) const;
  double shed_ratio() const;

  void collect(obs::MetricSink& sink) const;

  // Force an epoch rotation regardless of elapsed time (tests).
  void rotate_now();

  const SloConfig& config() const noexcept { return cfg_; }

 private:
  struct LaneWindow {
    obs::LogHistogram epochs[2];  // current = epoch_index, previous = other
  };

  void maybe_rotate_locked(std::int64_t now);
  void recompute_locked();
  std::int64_t p99_locked(int lane) const;

  SloConfig cfg_;
  mutable TrackedMutex mutex_{"serve.slo"};
  LaneWindow lanes_[kPriorityLanes];
  std::uint64_t submitted_[2] = {0, 0};
  std::uint64_t shed_[2] = {0, 0};
  int epoch_ = 0;
  std::int64_t epoch_start_ns_ = -1;  // primed on first observation
  std::size_t queue_depth_ = 0;
  std::size_t queue_capacity_ = 1;
  std::atomic<bool> overloaded_{false};
};

}  // namespace sacpp::serve
