#pragma once
// SolverService: an in-process MG solve server.
//
// Architecture (docs/serve.md):
//
//   submit() ──► AdmissionQueue (priority lanes, bounded, deadline shed)
//                     │ pop_best under the dispatch lock
//   executor team ◄───┘   E executor threads share a core budget C.
//
// Each executor claims a job together with its gang grant (atomically with
// the core-budget deduction, so concurrent executors can never oversubscribe
// C), then runs the solve on its own thread under a per-job SacConfig
// snapshot (sac::ConfigBinding) and — for gangs > 1 — a private ThreadPool
// bound via sac::RuntimeBinding.  Small jobs therefore batch onto shared
// single-core executors while large jobs get gang-scheduled cores, and two
// concurrent solves with different knobs (stencil engine, folding, MT) are
// fully isolated from each other and from the process-global config().
//
// Observability: every request gets queue/exec/e2e durations fed into the
// obs histograms (Hist::kServeQueueNs/kServeJobNs/kServeE2eNs) plus
// service-local histograms per priority for the snapshot() quantiles; spans
// kPhase("serve_job") mark executions in trace exports; a process collector
// exposes uptime, RSS, active jobs, queue depth, core usage and all
// admission counters through obs::write_prometheus.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sacpp/obs/histogram.hpp"
#include "sacpp/obs/sampler.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/serve/job.hpp"
#include "sacpp/serve/queue.hpp"
#include "sacpp/serve/slo.hpp"

namespace sacpp::sac {
class ThreadPool;
}  // namespace sacpp::sac

namespace sacpp::obs {
class MetricSink;
}  // namespace sacpp::obs

namespace sacpp::serve {

struct ServeConfig {
  // Core budget shared by all concurrent jobs; 0 = hardware concurrency.
  unsigned total_cores = 0;
  // Executor threads (max concurrent jobs); 0 = total_cores.
  unsigned executors = 0;
  std::size_t queue_capacity = 64;
  // Gang policy: per-request `gang` wins (clamped to max_gang); otherwise
  // classes S/W run on 1 core and A/B/C on half the budget.
  unsigned max_gang = 0;  // 0 = total_cores
  // Applied when a request carries no deadline; 0 = unbounded.
  std::int64_t default_deadline_ns = 0;
  // Housekeeping cadence: pool epoch-trim between jobs so a burst's arena
  // pages drain back after the burst passes.  0 disables.
  std::int64_t trim_interval_ns = 250'000'000;
  // Request tracing (obs/trace.hpp).  > 0 mints a TraceContext for every
  // untraced submit; the value is the head-sampling rate (0..1) fed to the
  // tail sampler — anomalies (sheds, errors, deadline misses, slow tail)
  // are retained regardless of it.  0 disables minting; requests that
  // arrive already traced (wire v3) are still honoured.
  double trace_sample = 0.0;
  // SLO budgets driving the watchdog and the queue's overload advisory.
  SloConfig slo;
  // Flight-recorder dump path; non-empty configures the recorder and
  // installs the crash handlers on service start.
  std::string flight_path;
  // Template for per-job config snapshots.  MT fields are overridden per
  // job from the gang grant; stencil_mode from the request.
  sac::SacConfig base;

  ServeConfig();  // base starts from the process config()
};

// Approximate latency summary derived from log-bucketed histograms: each
// quantile is the geometric midpoint of the bucket where the cumulative
// count crosses it, so values are within 2x of truth — fine for p50/p95/p99
// dashboards, not for microsecond comparisons.
struct LatencySummary {
  std::uint64_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

LatencySummary summarize_histogram(const obs::LogHistogram& hist);
double histogram_quantile_ns(const obs::LogHistogram& hist, double q);

struct ServeCounters {
  std::uint64_t submitted = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t wrong_answer = 0;
  std::uint64_t errors = 0;
  std::uint64_t deadline_miss = 0;  // solved but late
  QueueCounters queue;              // accepted/rejected/evicted/shed
};

struct ServerSnapshot {
  ServeCounters counters;
  std::size_t queue_depth = 0;
  unsigned active_jobs = 0;
  unsigned cores_in_use = 0;
  unsigned total_cores = 0;
  double uptime_seconds = 0.0;
  LatencySummary queue_wait;               // admission -> dispatch
  LatencySummary exec;                     // dispatch -> completion
  LatencySummary e2e[kPriorityLanes];      // submit -> completion, per lane
};

class SolverService {
 public:
  explicit SolverService(const ServeConfig& cfg = ServeConfig());
  ~SolverService();  // stop()s if still running

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  // Thread-safe.  The future always resolves: with a solve, or with a shed /
  // rejected / error status.
  std::future<SolveResult> submit(SolveRequest req);

  // Block until no queued and no running jobs remain.
  void drain();

  // drain() with a budget.  On timeout returns false after forcing a
  // flight-recorder dump ("drain-timeout") — the black-box record of what
  // the queue, executors, and lock graph looked like while stuck.
  bool drain_for(std::int64_t timeout_ns);

  // Stop admitting, shed everything still queued (kShedCapacity), finish
  // running jobs, join all threads.  Idempotent.
  void stop();

  ServerSnapshot snapshot() const;
  std::size_t queue_depth() const { return queue_.depth(); }
  unsigned active_jobs() const {
    return active_jobs_.load(std::memory_order_relaxed);
  }

  const ServeConfig& config() const noexcept { return cfg_; }

  // The SLO watchdog backing the queue's overload advisory (burn rates,
  // shed ratio, overloaded flag).
  const SloWatchdog& watchdog() const noexcept { return watchdog_; }

  // Resident set size of this process in bytes (/proc/self/statm); -1 where
  // unavailable.  Exported as the sacpp_serve_rss_bytes gauge.
  static long long rss_bytes();

 private:
  void executor_loop(unsigned slot);
  void housekeeping_loop();
  void run_job(QueuedJob job);
  unsigned resolve_gang(const SolveRequest& req) const;
  std::unique_ptr<sac::ThreadPool> acquire_pool(unsigned gang);
  void release_pool(std::unique_ptr<sac::ThreadPool> pool);
  void collect(obs::MetricSink& sink) const;

  ServeConfig cfg_;
  AdmissionQueue queue_;

  // Dispatch lock: serialises pop_best with the core-budget deduction.
  // All service locks are TrackedMutex so the lock-order analyzer
  // (docs/static_analysis.md) sees their nesting.
  TrackedMutex dispatch_mutex_{"serve.dispatch"};
  unsigned cores_free_ = 0;

  std::atomic<unsigned> active_jobs_{0};
  std::atomic<unsigned> cores_in_use_{0};
  std::atomic<bool> stopping_{false};
  TrackedMutex stop_mutex_{"serve.stop"};
  bool stopped_ = false;

  // Completion signal for drain().
  mutable TrackedMutex done_mutex_{"serve.done"};
  std::condition_variable_any done_cv_;

  // Idle gang pools, reused across jobs of the same width (bounded cache).
  TrackedMutex pools_mutex_{"serve.pools"};
  std::vector<std::unique_ptr<sac::ThreadPool>> idle_pools_;

  // Service-local latency histograms backing snapshot().
  obs::LogHistogram queue_wait_hist_;
  obs::LogHistogram exec_hist_;
  obs::LogHistogram e2e_hist_[kPriorityLanes];

  // Tail-based trace retention and SLO burn-rate accounting.
  obs::TailSampler sampler_;
  SloWatchdog watchdog_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_ok_{0};
  std::atomic<std::uint64_t> wrong_answer_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> deadline_miss_{0};

  std::int64_t start_ns_ = 0;

  std::vector<std::thread> executors_;
  std::thread housekeeper_;
  std::condition_variable_any housekeeping_cv_;
  TrackedMutex housekeeping_mutex_{"serve.housekeeping"};
};

}  // namespace sacpp::serve
