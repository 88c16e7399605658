#include "sacpp/obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>

#include "sacpp/obs/trace.hpp"

namespace sacpp::obs {

// ---------------------------------------------------------------------------
// Collectors
// ---------------------------------------------------------------------------

namespace {

struct CollectorList {
  std::mutex mutex;
  std::vector<Collector> collectors;
};

CollectorList& collector_list() {
  static CollectorList* l = new CollectorList;  // immortal
  return *l;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void register_collector(Collector collector) {
  CollectorList& l = collector_list();
  std::lock_guard<std::mutex> lock(l.mutex);
  l.collectors.push_back(std::move(collector));
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON
// ---------------------------------------------------------------------------

void write_chrome_trace(std::ostream& out) {
  const std::vector<ThreadSpans> threads = snapshot_spans();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",";
    first = false;
  };

  sep();
  out << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"sacpp\"}}";
  for (const ThreadSpans& t : threads) {
    sep();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << t.tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << json_escape(t.name) << "\"}}";
  }

  char buf[96];
  for (const ThreadSpans& t : threads) {
    for (const SpanRecord& s : t.spans) {
      sep();
      // Timestamps are microseconds (Chrome's unit); keep ns resolution with
      // three decimals.
      std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(s.start_ns) / 1e3);
      out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << t.tid << ",\"ts\":" << buf;
      std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(s.dur_ns) / 1e3);
      out << ",\"dur\":" << buf << ",\"cat\":\"" << span_kind_name(s.kind)
          << "\",\"name\":\"" << json_escape(s.name) << "\",\"args\":{\"arg\":"
          << s.arg;
      if (s.id != 0) out << ",\"region\":" << s.id;
      if (s.trace != 0) out << ",\"trace_id\":\"" << s.trace << "\"";
      out << "}}";
    }
  }
  out << "]}\n";
}

// ---------------------------------------------------------------------------
// Prometheus text format
// ---------------------------------------------------------------------------

namespace {

class TextSink final : public MetricSink {
 public:
  explicit TextSink(std::ostream& out) : out_(out) {}
  void counter(std::string_view name, double value,
               std::string_view help) override {
    emit(name, value, help, "counter");
  }
  void gauge(std::string_view name, double value,
             std::string_view help) override {
    emit(name, value, help, "gauge");
  }

 private:
  void emit(std::string_view name, double value, std::string_view help,
            const char* type) {
    out_ << "# HELP " << name << " " << help << "\n";
    out_ << "# TYPE " << name << " " << type << "\n";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ << name << " " << buf << "\n";
  }
  std::ostream& out_;
};

void write_histogram(std::ostream& out, Hist h) {
  const LogHistogram& hist = histogram(h);
  if (hist.count() == 0) return;
  const char* name = hist_name(h);
  out << "# HELP " << name << " " << hist_help(h) << "\n";
  out << "# TYPE " << name << " histogram\n";
  std::uint64_t cumulative = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t n = hist.bucket(i);
    if (n == 0) continue;
    cumulative += n;
    out << name << "_bucket{le=\"" << LogHistogram::bucket_upper(i) << "\"} "
        << cumulative;
    // OpenMetrics exemplar: the bucket's most recent traced sample, linking
    // a latency bucket back to a retained trace id.
    const std::uint64_t ex = hist.exemplar_trace(i);
    if (ex != 0) {
      out << " # {trace_id=\"" << ex << "\"} " << hist.exemplar_value(i);
    }
    out << "\n";
  }
  out << name << "_bucket{le=\"+Inf\"} " << hist.count() << "\n";
  out << name << "_sum " << hist.sum() << "\n";
  out << name << "_count " << hist.count() << "\n";
}

void write_level_metric(std::ostream& out, const char* name, const char* help,
                        const std::vector<LevelMetrics>& levels,
                        double (*get)(const LevelMetrics&)) {
  out << "# HELP " << name << " " << help << "\n";
  out << "# TYPE " << name << " gauge\n";
  char buf[64];
  for (const LevelMetrics& m : levels) {
    std::snprintf(buf, sizeof(buf), "%.17g", get(m));
    out << name << "{level=\"" << m.level << "\"} " << buf << "\n";
  }
}

}  // namespace

void write_prometheus(std::ostream& out) {
  // Registered counter collectors (RuntimeStats, pool totals, ...).
  {
    TextSink sink(out);
    CollectorList& l = collector_list();
    std::vector<Collector> collectors;
    {
      std::lock_guard<std::mutex> lock(l.mutex);
      collectors = l.collectors;
    }
    for (const Collector& c : collectors) c(sink);
  }

  // Span bookkeeping.  The historical dropped name stays as an alias of
  // overwrites (ring overflow) for obs_consolidate.py.
  {
    std::uint64_t recorded = 0;
    std::uint64_t overwritten = 0;
    const auto threads = snapshot_spans();
    for (const ThreadSpans& t : threads) {
      recorded += t.recorded;
      overwritten += t.overwritten;
    }
    TextSink sink(out);
    sink.counter("sacpp_obs_spans_recorded_total",
                 static_cast<double>(recorded), "spans recorded (all threads)");
    sink.counter("sacpp_obs_spans_dropped_total",
                 static_cast<double>(overwritten),
                 "spans evicted by ring overflow (alias of overwritten)");
    sink.counter("sacpp_obs_spans_overwritten_total",
                 static_cast<double>(overwritten),
                 "spans evicted by ring overflow");
    sink.gauge("sacpp_obs_threads", static_cast<double>(threads.size()),
               "threads registered with the telemetry layer");
    sink.counter("sacpp_obs_traces_retained_total",
                 static_cast<double>(retained_trace_count()),
                 "request traces currently promoted to the retained store");
    sink.counter("sacpp_obs_traces_evicted_total",
                 static_cast<double>(evicted_trace_count()),
                 "retained traces evicted by the store's FIFO bound");
  }

  // Histograms.
  for (int i = 0; i < static_cast<int>(Hist::kCount); ++i) {
    write_histogram(out, static_cast<Hist>(i));
  }

  // Per-level parallel metrics (the Figs. 12-13 attribution).
  const std::vector<LevelMetrics> levels = level_metrics();
  if (!levels.empty()) {
    write_level_metric(out, "sacpp_level_seconds",
                       "wall time attributed to this V-cycle level", levels,
                       [](const LevelMetrics& m) { return m.seconds; });
    write_level_metric(out, "sacpp_level_visits",
                       "level span count", levels, [](const LevelMetrics& m) {
                         return static_cast<double>(m.visits);
                       });
    write_level_metric(out, "sacpp_level_parallel_regions",
                       "parallel regions attributed to this level", levels,
                       [](const LevelMetrics& m) {
                         return static_cast<double>(m.regions);
                       });
    write_level_metric(out, "sacpp_level_busy_seconds",
                       "sum of per-worker busy time", levels,
                       [](const LevelMetrics& m) { return m.busy_seconds; });
    write_level_metric(out, "sacpp_level_idle_seconds",
                       "participants * region wall time minus busy time",
                       levels,
                       [](const LevelMetrics& m) { return m.idle_seconds; });
    write_level_metric(
        out, "sacpp_level_imbalance",
        "mean per-region load imbalance (max worker busy / mean worker busy)",
        levels, [](const LevelMetrics& m) { return m.imbalance; });
    write_level_metric(out, "sacpp_level_fork_latency_seconds",
                       "mean fork-to-first-work latency", levels,
                       [](const LevelMetrics& m) {
                         return m.fork_latency_seconds;
                       });
  }
}

bool write_chrome_trace_file(const std::string& path) {
  if (path.empty()) return true;
  std::ofstream f(path);
  if (!f) return false;
  write_chrome_trace(f);
  return static_cast<bool>(f);
}

bool write_prometheus_file(const std::string& path) {
  if (path.empty()) return true;
  std::ofstream f(path);
  if (!f) return false;
  write_prometheus(f);
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// Summary aggregation
// ---------------------------------------------------------------------------

std::vector<SpanTotal> top_spans(std::size_t limit) {
  // Span names are static strings, so pointer identity keys the aggregation
  // except across identical literals in different TUs; aggregate by content.
  std::map<std::string_view, SpanTotal> byname;
  for (const ThreadSpans& t : snapshot_spans()) {
    for (const SpanRecord& s : t.spans) {
      SpanTotal& tot = byname[s.name];
      tot.name = s.name;
      tot.kind = s.kind;
      tot.count += 1;
      tot.total_ns += s.dur_ns;
    }
  }
  std::vector<SpanTotal> out;
  out.reserve(byname.size());
  for (const auto& [name, tot] : byname) out.push_back(tot);
  std::sort(out.begin(), out.end(), [](const SpanTotal& a, const SpanTotal& b) {
    return a.total_ns > b.total_ns;
  });
  if (out.size() > limit) out.resize(limit);
  return out;
}

}  // namespace sacpp::obs
