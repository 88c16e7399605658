#include "sacpp/obs/flight.hpp"

#include <atomic>
#include <csignal>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "sacpp/obs/export.hpp"
#include "sacpp/obs/obs.hpp"
#include "sacpp/obs/trace.hpp"

namespace sacpp::obs {

namespace {

// Spans per thread included in a dump; the tail of each ring is the flight
// recorder's "last N seconds" window.
constexpr std::size_t kDumpSpansPerThread = 128;

constexpr std::int64_t kMinDumpIntervalNs = 1'000'000'000;  // 1 s

struct FlightState {
  std::mutex mutex;
  std::string path;
  std::vector<std::pair<std::string, std::function<std::string()>>> providers;
  std::int64_t last_dump_ns = -kMinDumpIntervalNs;
  std::uint64_t dumps = 0;
};

FlightState& flight_state() {
  static FlightState* s = new FlightState;  // immortal
  return *s;
}

void write_dump(std::ostream& out, const char* reason, std::uint64_t seq) {
  out << "{\"reason\":\"" << json_escape(reason == nullptr ? "" : reason)
      << "\",\"dump_seq\":" << seq << ",\"uptime_ns\":" << now_ns();

  out << ",\"threads\":[";
  bool first_thread = true;
  for (const ThreadSpans& t : snapshot_spans()) {
    if (!first_thread) out << ",";
    first_thread = false;
    out << "{\"name\":\"" << json_escape(t.name)
        << "\",\"recorded\":" << t.recorded
        << ",\"overwritten\":" << t.overwritten << ",\"recent_spans\":[";
    const std::size_t n = t.spans.size();
    const std::size_t from =
        n > kDumpSpansPerThread ? n - kDumpSpansPerThread : 0;
    bool first_span = true;
    for (std::size_t i = from; i < n; ++i) {
      const SpanRecord& s = t.spans[i];
      if (!first_span) out << ",";
      first_span = false;
      out << "{\"name\":\"" << json_escape(s.name) << "\",\"kind\":\""
          << span_kind_name(s.kind) << "\",\"start_ns\":" << s.start_ns
          << ",\"dur_ns\":" << s.dur_ns << ",\"arg\":" << s.arg;
      if (s.trace != 0) out << ",\"trace_id\":\"" << s.trace << "\"";
      out << "}";
    }
    out << "]}";
  }
  out << "]";

  // The retained-trace store, in the trace_schema.json shape.
  out << ",\"traces\":";
  write_traces_json(out);

  // Provider state (queue depths, pool occupancy, lock graph, ...).
  std::vector<std::pair<std::string, std::function<std::string()>>> providers;
  {
    FlightState& st = flight_state();
    std::lock_guard<std::mutex> lock(st.mutex);
    providers = st.providers;
  }
  out << ",\"state\":{";
  bool first_provider = true;
  for (const auto& [name, fn] : providers) {
    if (!first_provider) out << ",";
    first_provider = false;
    std::string value;
    try {
      value = fn();
    } catch (...) {
      value = "\"<provider threw>\"";
    }
    out << "\"" << json_escape(name)
        << "\":" << (value.empty() ? "null" : value);
  }
  out << "}}\n";
}

extern "C" void flight_signal_handler(int sig) {
  flight_dump(sig == SIGSEGV   ? "signal-segv"
              : sig == SIGABRT ? "signal-abrt"
              : sig == SIGFPE  ? "signal-fpe"
                               : "signal",
              /*force=*/true);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

void flight_configure(const std::string& path) {
  FlightState& st = flight_state();
  std::lock_guard<std::mutex> lock(st.mutex);
  st.path = path;
}

std::string flight_path() {
  FlightState& st = flight_state();
  std::lock_guard<std::mutex> lock(st.mutex);
  return st.path;
}

void flight_register_provider(const std::string& name,
                              std::function<std::string()> fn) {
  FlightState& st = flight_state();
  std::lock_guard<std::mutex> lock(st.mutex);
  st.providers.emplace_back(name, std::move(fn));
}

bool flight_dump(const char* reason, bool force) {
  std::string path;
  std::uint64_t seq = 0;
  {
    FlightState& st = flight_state();
    std::lock_guard<std::mutex> lock(st.mutex);
    if (st.path.empty()) return false;
    const std::int64_t now = now_ns();
    if (!force && now - st.last_dump_ns < kMinDumpIntervalNs) return false;
    st.last_dump_ns = now;
    st.dumps += 1;
    seq = st.dumps;
    path = st.path;
  }
  // Write outside the state lock: write_dump snapshots rings and retained
  // traces, each with their own locks.
  std::ofstream f(path);
  if (!f) return false;
  write_dump(f, reason, seq);
  return static_cast<bool>(f);
}

void flight_install_signal_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    std::signal(SIGSEGV, flight_signal_handler);
    std::signal(SIGABRT, flight_signal_handler);
    std::signal(SIGFPE, flight_signal_handler);
  });
}

std::uint64_t flight_dump_count() {
  FlightState& st = flight_state();
  std::lock_guard<std::mutex> lock(st.mutex);
  return st.dumps;
}

}  // namespace sacpp::obs
