#pragma once
// sacpp_obs: unified runtime telemetry for the whole V-cycle stack.
//
// The paper's Sec. 5-6 analysis is an observability argument — SAC's scaling
// limit is *where time goes*: fixed memory-management and fork/join overheads
// dominating the small grids at the bottom of the MG V-cycle.  This layer
// makes that attribution a first-class run artifact:
//
//  * scoped spans recorded into lock-free per-thread ring buffers
//    (with-loops, parallel-region fork/join, pool alloc/release, V-cycle
//    levels, MG kernels, msg sends) — ring.hpp;
//  * log-bucketed histograms for span durations and allocation sizes —
//    histogram.hpp;
//  * derived parallel metrics per region, aggregated per V-cycle level:
//    per-worker busy/idle time, fork-to-first-work latency, load-imbalance
//    ratio — the numbers behind the paper's Figs. 12-13;
//  * exporters (export.hpp): Chrome trace-event JSON (open in Perfetto, one
//    track per thread) and a Prometheus-style text metrics dump.
//
// Always compiled in, off by default.  The contract with the hot path: every
// instrumentation point costs exactly one relaxed atomic load and one
// predictable branch while disabled (verified by bench/abl_* deltas; see
// docs/observability.md for the overhead budget).  Layering: sacpp_obs
// depends only on sacpp_common; sac/mg/msg record into it, and higher layers
// register counter collectors for the metrics dump (one-way links only).

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "sacpp/obs/histogram.hpp"
#include "sacpp/obs/ring.hpp"

namespace sacpp::obs {

// ---------------------------------------------------------------------------
// Enable flag and clock
// ---------------------------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_enabled;
}

// The one guard every instrumentation point tests (relaxed: a toggle only
// needs to become visible eventually; instrumentation sites tolerate either
// value).
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

// Turn recording on/off (SacConfig::obs / SACPP_OBS route through this).
// Enabling also primes the clock epoch so the first span is not skewed.
void set_enabled(bool on) noexcept;

// Nanoseconds since the process obs epoch (steady clock).
std::int64_t now_ns() noexcept;

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

// Record a completed span on the calling thread's ring and route its
// duration into the kind's histogram.  `name` must have static storage
// duration.  Callers guard with enabled().
void record_span(SpanKind kind, const char* name, std::int64_t start_ns,
                 std::int64_t dur_ns, std::int64_t arg = 0,
                 std::uint64_t id = 0) noexcept;

// Feed a value into one of the byte-valued histograms (callers guard with
// enabled()).
inline void observe(Hist h, std::uint64_t value) noexcept {
  histogram(h).observe(value);
}

// Same, with an exemplar: remember trace_id as the bucket's most recent
// traced sample so the Prometheus dump can link a latency bucket to a
// retained trace (trace_id 0 records no exemplar).
inline void observe(Hist h, std::uint64_t value,
                    std::uint64_t trace_id) noexcept {
  histogram(h).observe(value, trace_id);
}

// Fresh correlation id for a parallel region (links the region span on the
// coordinator to the chunk spans on the workers).
std::uint64_t next_region_id() noexcept;

// RAII span: one relaxed load + branch when disabled, two clock reads and a
// ring push when enabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, const char* name, std::int64_t arg = 0,
             std::uint64_t id = 0) noexcept {
    if (enabled()) [[unlikely]] {
      active_ = true;
      kind_ = kind;
      name_ = name;
      arg_ = arg;
      id_ = id;
      start_ = now_ns();
    }
  }
  ~ScopedSpan() {
    if (active_) [[unlikely]] {
      record_span(kind_, name_, start_, now_ns() - start_, arg_, id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  SpanKind kind_ = SpanKind::kPhase;
  const char* name_ = "";
  std::int64_t arg_ = 0;
  std::uint64_t id_ = 0;
  std::int64_t start_ = 0;
};

// Name the calling thread's track in trace exports ("main", "sac-worker-3",
// "rank-0").  Cheap; safe to call with recording disabled.
void set_thread_name(std::string name);

// ---------------------------------------------------------------------------
// V-cycle level context and derived parallel metrics
// ---------------------------------------------------------------------------
//
// The MT runtime does not know which MG level its parallel regions serve;
// the level scopes in src/mg publish it here (thread-local), and
// parallel_for attributes each region's fork/join metrics to the current
// level.  Level -1 means "outside any level".

int current_level() noexcept;
int set_current_level(int level) noexcept;  // returns the previous level

// One level visit's wall time (LevelScope; feeds the per-level share table
// that replaced the standalone LevelProfiler storage).
void record_level_ns(int level, std::int64_t ns) noexcept;

// One parallel region's fork/join measurement, attributed to `level`.
struct RegionSample {
  int level = -1;
  unsigned participants = 0;
  std::int64_t region_ns = 0;        // fork..join wall time
  std::int64_t busy_total_ns = 0;    // sum of per-worker chunk times
  std::int64_t busy_max_ns = 0;      // slowest worker
  std::int64_t fork_latency_ns = 0;  // fork -> first worker chunk start
};
void record_region_sample(const RegionSample& s) noexcept;

// Per-level aggregate view (sorted by level ascending).
struct LevelMetrics {
  int level = -1;
  double seconds = 0.0;        // attributed wall time (level spans)
  std::uint64_t visits = 0;    // level span count
  std::uint64_t regions = 0;   // parallel regions attributed to this level
  double busy_seconds = 0.0;   // sum of worker busy time
  double idle_seconds = 0.0;   // participants * region wall - busy
  double imbalance = 1.0;      // mean over regions of max_busy / mean_busy
  double fork_latency_seconds = 0.0;  // mean fork-to-first-work latency
};
std::vector<LevelMetrics> level_metrics();

// ---------------------------------------------------------------------------
// Snapshots and reset
// ---------------------------------------------------------------------------

// All spans currently held in one thread's ring.
struct ThreadSpans {
  std::uint32_t tid = 0;     // registration order, stable for the process
  std::string name;          // set_thread_name value or "thread-N"
  std::uint64_t recorded = 0;
  std::uint64_t overwritten = 0;  // oldest-span evictions (ring overflow)
  std::vector<SpanRecord> spans;
};
std::vector<ThreadSpans> snapshot_spans();

// Overwrite-drops (ring overflow) summed across threads; each thread's ring
// holds SACPP_OBS_RING spans (32 Ki by default).  Kept under the historical
// "dropped" name because obs_consolidate.py and the dashboards read
// sacpp_obs_spans_dropped_total.
std::uint64_t total_dropped_spans();

// Drop all recorded telemetry: rings, histograms, level aggregates.  Call at
// a quiescent point (between benchmark phases), not under concurrent
// recording.
void reset();

// Drop only the per-level aggregates (LevelProfiler::reset routes here so a
// benchmark can restart its per-level shares without discarding span rings).
void reset_levels();

}  // namespace sacpp::obs
