#pragma once
// Exporters for sacpp_obs telemetry.
//
//  * write_chrome_trace: Chrome trace-event JSON ("traceEvents" array of
//    complete "X" events plus thread-name metadata), loadable in Perfetto /
//    chrome://tracing with one track per recorded thread.
//  * write_prometheus: text-format metrics dump — counter collectors,
//    histograms with cumulative log buckets, and the per-level parallel
//    metrics (busy/idle/imbalance) behind the paper's Figs. 12-13 analysis.
//  * top_spans / per-level rows: the aggregation behind npb_mg's end-of-run
//    telemetry summary.

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sacpp/obs/obs.hpp"

namespace sacpp::obs {

// -- counter collectors -------------------------------------------------------
//
// Higher layers (sac's RuntimeStats, the pool totals) expose their counters
// to the metrics dump by registering a collector; obs never links upward.

class MetricSink {
 public:
  virtual ~MetricSink() = default;
  // `name` must be a valid Prometheus metric name (snake_case, no braces).
  virtual void counter(std::string_view name, double value,
                       std::string_view help) = 0;
  virtual void gauge(std::string_view name, double value,
                     std::string_view help) = 0;
};

using Collector = std::function<void(MetricSink&)>;

// Register a collector for the lifetime of the process (idempotence is the
// caller's job; sac registers exactly once from config()).
void register_collector(Collector collector);

// -- exporters ---------------------------------------------------------------

// Chrome trace-event JSON of every span currently held in the rings.
void write_chrome_trace(std::ostream& out);

// Prometheus-style text dump: collectors, histograms, per-level metrics,
// dropped-span counter.
void write_prometheus(std::ostream& out);

// Convenience: write either artifact to a file path (no-op when empty).
// Returns false (with no file left behind half-written guarantees) when the
// file cannot be opened.
bool write_chrome_trace_file(const std::string& path);
bool write_prometheus_file(const std::string& path);

// `s` escaped for the inside of a JSON string (quote, backslash, control
// characters): the one escaper of every obs JSON writer — the Chrome trace,
// the retained-trace export and the flight recorder's dump.
std::string json_escape(std::string_view s);

// -- summary aggregation ------------------------------------------------------

// Spans aggregated by name across all rings, sorted by total time
// descending, truncated to `limit`.
struct SpanTotal {
  const char* name = "";
  SpanKind kind = SpanKind::kPhase;
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
};
std::vector<SpanTotal> top_spans(std::size_t limit);

}  // namespace sacpp::obs
