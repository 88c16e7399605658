#include "sacpp/obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <fstream>
#include <mutex>
#include <ostream>
#include <string_view>

#include "sacpp/obs/export.hpp"
#include "sacpp/obs/obs.hpp"

namespace sacpp::obs {

// ---------------------------------------------------------------------------
// Ids
// ---------------------------------------------------------------------------

std::uint64_t mint_trace_id() noexcept {
  static std::atomic<std::uint64_t> id{0};
  return id.fetch_add(1, std::memory_order_relaxed) + 1;
}

const char* retain_reason_name(RetainReason r) noexcept {
  switch (r) {
    case RetainReason::kSlow: return "slow";
    case RetainReason::kShed: return "shed";
    case RetainReason::kDeadline: return "deadline";
    case RetainReason::kError: return "error";
    case RetainReason::kFlagged: return "flagged";
    case RetainReason::kSampled: return "sampled";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Retained store
// ---------------------------------------------------------------------------

namespace {

struct TraceStore {
  std::mutex mutex;
  std::deque<RetainedTrace> traces;  // FIFO, oldest at front
  std::size_t capacity = 64;
  std::uint64_t evicted = 0;
};

TraceStore& trace_store() {
  static TraceStore* s = new TraceStore;  // immortal, like the span registry
  return *s;
}

}  // namespace

bool retain_trace(const TraceMeta& meta) {
  if (meta.trace_id == 0) return false;
  RetainedTrace t;
  t.meta = meta;
  // Harvest outside the store lock: snapshot_spans takes the registry lock
  // and copies rings, which must not nest under the store mutex.
  for (const ThreadSpans& ts : snapshot_spans()) {
    for (const SpanRecord& s : ts.spans) {
      if (s.trace == meta.trace_id) t.spans.push_back({s, ts.name});
    }
  }
  std::sort(t.spans.begin(), t.spans.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              return a.span.start_ns < b.span.start_ns;
            });
  TraceStore& store = trace_store();
  std::lock_guard<std::mutex> lock(store.mutex);
  for (RetainedTrace& existing : store.traces) {
    if (existing.meta.trace_id == meta.trace_id) {
      existing = std::move(t);  // re-retain: refresh with the fuller harvest
      return true;
    }
  }
  store.traces.push_back(std::move(t));
  while (store.traces.size() > store.capacity) {
    store.traces.pop_front();
    store.evicted += 1;
  }
  return true;
}

void add_trace_span(std::uint64_t trace_id, const SpanRecord& span,
                    const std::string& thread) {
  if (trace_id == 0) return;
  TraceStore& store = trace_store();
  std::lock_guard<std::mutex> lock(store.mutex);
  for (RetainedTrace& t : store.traces) {
    if (t.meta.trace_id != trace_id) continue;
    SpanRecord stamped = span;
    stamped.trace = trace_id;
    t.spans.push_back({stamped, thread});
    return;
  }
}

std::vector<RetainedTrace> retained_traces() {
  TraceStore& store = trace_store();
  std::lock_guard<std::mutex> lock(store.mutex);
  return {store.traces.begin(), store.traces.end()};
}

std::size_t retained_trace_count() {
  TraceStore& store = trace_store();
  std::lock_guard<std::mutex> lock(store.mutex);
  return store.traces.size();
}

std::uint64_t evicted_trace_count() {
  TraceStore& store = trace_store();
  std::lock_guard<std::mutex> lock(store.mutex);
  return store.evicted;
}

void set_retained_trace_capacity(std::size_t capacity) {
  TraceStore& store = trace_store();
  std::lock_guard<std::mutex> lock(store.mutex);
  if (capacity > 0) store.capacity = capacity;
  while (store.traces.size() > store.capacity) {
    store.traces.pop_front();
    store.evicted += 1;
  }
}

void clear_retained_traces() {
  TraceStore& store = trace_store();
  std::lock_guard<std::mutex> lock(store.mutex);
  store.traces.clear();
  store.evicted = 0;
}

// ---------------------------------------------------------------------------
// Stitching validation
// ---------------------------------------------------------------------------

namespace {

bool fail(std::string* why, const char* msg) {
  if (why != nullptr) *why = msg;
  return false;
}

}  // namespace

bool validate_trace(const RetainedTrace& t, bool completed, std::string* why) {
  if (t.meta.trace_id == 0) return fail(why, "trace id is zero");
  const TraceSpan* root = nullptr;
  const TraceSpan* queue = nullptr;
  const TraceSpan* exec = nullptr;
  for (const TraceSpan& s : t.spans) {
    const std::string_view name = s.span.name;
    if (name == kSpanServeE2e) {
      if (root != nullptr) return fail(why, "duplicate serve_e2e root span");
      root = &s;
    } else if (name == kSpanServeQueue) {
      if (queue != nullptr) return fail(why, "duplicate serve_queue span");
      queue = &s;
    } else if (name == kSpanServeExec) {
      if (exec != nullptr) return fail(why, "duplicate serve_job span");
      exec = &s;
    }
  }
  if (root == nullptr) return fail(why, "no serve_e2e root span");
  if (queue == nullptr) return fail(why, "no serve_queue span");
  if (completed && exec == nullptr) return fail(why, "no serve_job span");
  if (!completed && exec != nullptr) {
    return fail(why, "shed trace carries a serve_job span");
  }
  // Containment: every server-side span lives inside the root window.  The
  // client_request / respond spans bracket the server window from the
  // minting side, so they are exempt.
  const std::int64_t slop =
      std::max<std::int64_t>(root->span.dur_ns / 20, 1'000'000);
  const std::int64_t lo = root->span.start_ns - slop;
  const std::int64_t hi = root->span.start_ns + root->span.dur_ns + slop;
  for (const TraceSpan& s : t.spans) {
    const std::string_view name = s.span.name;
    if (name == kSpanClient || name == kSpanRespond) continue;
    if (s.span.start_ns < lo || s.span.start_ns + s.span.dur_ns > hi) {
      return fail(why, "orphan span outside the root window");
    }
  }
  if (completed) {
    const double parts = static_cast<double>(queue->span.dur_ns) +
                         static_cast<double>(exec->span.dur_ns);
    const double whole = static_cast<double>(root->span.dur_ns);
    if (whole > 0 && (parts < 0.95 * whole || parts > 1.05 * whole)) {
      return fail(why, "queue + exec spans do not sum to the root within 5%");
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

void write_traces_json(std::ostream& out) {
  const std::vector<RetainedTrace> traces = retained_traces();
  out << "{\"retained\":" << traces.size()
      << ",\"evicted\":" << evicted_trace_count() << ",\"traces\":[";
  bool first_trace = true;
  for (const RetainedTrace& t : traces) {
    if (!first_trace) out << ",";
    first_trace = false;
    const TraceMeta& m = t.meta;
    // Trace ids are 64-bit; emit as strings so JSON consumers keep precision.
    out << "{\"trace_id\":\"" << m.trace_id << "\""
        << ",\"request_id\":" << m.request_id
        << ",\"reason\":\"" << retain_reason_name(m.reason) << "\""
        << ",\"status\":\"" << json_escape(m.status) << "\""
        << ",\"priority\":" << m.priority
        << ",\"gang\":" << m.gang
        << ",\"flags\":" << static_cast<int>(m.flags)
        << ",\"submit_ns\":" << m.submit_ns
        << ",\"queue_ns\":" << m.queue_ns
        << ",\"exec_ns\":" << m.exec_ns
        << ",\"e2e_ns\":" << m.e2e_ns;
    const double e2e = static_cast<double>(m.e2e_ns);
    const double parts =
        static_cast<double>(m.queue_ns) + static_cast<double>(m.exec_ns);
    out << ",\"decomposition\":{\"queue_ns\":" << m.queue_ns
        << ",\"exec_ns\":" << m.exec_ns
        << ",\"other_ns\":" << (m.e2e_ns - m.queue_ns - m.exec_ns)
        << ",\"coverage\":" << (e2e > 0 ? parts / e2e : 1.0) << "}";
    out << ",\"spans\":[";
    bool first_span = true;
    for (const TraceSpan& s : t.spans) {
      if (!first_span) out << ",";
      first_span = false;
      out << "{\"name\":\"" << json_escape(s.span.name) << "\""
          << ",\"kind\":\"" << span_kind_name(s.span.kind) << "\""
          << ",\"thread\":\"" << json_escape(s.thread) << "\""
          << ",\"start_ns\":" << s.span.start_ns
          << ",\"dur_ns\":" << s.span.dur_ns
          << ",\"arg\":" << s.span.arg;
      if (s.span.id != 0) out << ",\"region\":" << s.span.id;
      out << "}";
    }
    out << "]}";
  }
  out << "]}\n";
}

bool write_traces_file(const std::string& path) {
  if (path.empty()) return true;
  std::ofstream f(path);
  if (!f) return false;
  write_traces_json(f);
  return static_cast<bool>(f);
}

}  // namespace sacpp::obs
