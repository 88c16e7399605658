#pragma once
// Request-scoped tracing over the sacpp_obs span layer (sacpp_obs v2).
//
// A TraceContext is minted by a client (mg_loadgen, npb_mg, or any caller of
// sacpp_serve), carried across the wire in a v3 frame extension
// (serve/wire.hpp), and bound thread-locally wherever work for that request
// runs: the submitting thread, the executor that dispatches it, every
// gang-scheduled pool worker (sac::parallel_for re-binds it alongside the
// config snapshot), and msg::World rank threads.  While a context is bound,
// every span recorded through obs::record_span is stamped with its trace id,
// so one solve yields one stitched tree: client -> queue wait -> dispatch ->
// per-level V-cycle spans -> response write.
//
// Retention is tail-based: the always-on rings stay cheap and lossy; a trace
// is promoted into the bounded retained store only when the request turned
// out interesting — slow (streaming p99, sampler.hpp), shed, deadline-missed,
// errored, or explicitly flagged.  write_traces_json emits the retained set
// in the bench/trace_schema.json format.
//
// Overhead contract: with no context bound the stamp is one thread-local read
// folded into the existing record_span path; with tracing compiled in but
// disabled (trace_id == 0 everywhere) class-W wall time moves <= 1%
// (gated in bench/run_all.sh).

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sacpp/obs/ring.hpp"

namespace sacpp::obs {

// ---------------------------------------------------------------------------
// Context and thread binding
// ---------------------------------------------------------------------------

// Sampling flags carried end-to-end in TraceContext::flags / wire v3.
inline constexpr std::uint8_t kTraceSampled = 0x1;  // head-sampled at mint
inline constexpr std::uint8_t kTraceForced = 0x2;   // client demands retention

struct TraceContext {
  std::uint64_t trace_id = 0;     // 0 = not traced
  std::uint64_t parent_span = 0;  // minting side's root span id, 0 = root
  std::uint8_t flags = 0;
  bool active() const noexcept { return trace_id != 0; }
};

namespace detail {
// constinit: no dynamic initialisation, so no TLS init function call on
// each read (see sac::detail::tl_config).
extern constinit thread_local TraceContext tl_trace;
}

inline const TraceContext& current_trace() noexcept {
  return detail::tl_trace;
}

// Fresh process-unique nonzero trace id.
std::uint64_t mint_trace_id() noexcept;

// Bind `ctx` to the calling thread for the binding's lifetime (executor
// dispatch, pool worker chunks, rank threads).  Restores the previous
// context on destruction, so nested bindings behave like a stack.
class TraceBinding {
 public:
  explicit TraceBinding(const TraceContext& ctx) noexcept
      : prev_(detail::tl_trace) {
    detail::tl_trace = ctx;
  }
  ~TraceBinding() { detail::tl_trace = prev_; }
  TraceBinding(const TraceBinding&) = delete;
  TraceBinding& operator=(const TraceBinding&) = delete;

 private:
  TraceContext prev_;
};

// Canonical span names of the serve decomposition (trace_schema.json keys;
// validate_trace and trace_consolidate.py match on them).
inline constexpr const char* kSpanClient = "client_request";
inline constexpr const char* kSpanServeE2e = "serve_e2e";
inline constexpr const char* kSpanServeQueue = "serve_queue";
inline constexpr const char* kSpanServeExec = "serve_job";
inline constexpr const char* kSpanRespond = "respond";

// ---------------------------------------------------------------------------
// Retained traces (tail-based promotion)
// ---------------------------------------------------------------------------

// Why a trace was promoted out of the rings (stable export strings).
enum class RetainReason : std::uint8_t {
  kSlow,     // above the streaming p99 estimate
  kShed,     // rejected/evicted/deadline-shed before execution
  kDeadline, // executed but finished after its deadline
  kError,    // solver raised, or the answer failed verification
  kFlagged,  // kTraceForced, or a sacpp_check finding during the solve
  kSampled,  // head-sampling rate
};
const char* retain_reason_name(RetainReason r) noexcept;

struct TraceMeta {
  std::uint64_t trace_id = 0;
  std::uint64_t request_id = 0;
  RetainReason reason = RetainReason::kSampled;
  std::string status;          // serve status name ("ok", "shed-capacity", ..)
  int priority = -1;           // serve lane, -1 outside serve
  std::int64_t submit_ns = 0;  // obs clock
  std::int64_t queue_ns = 0;
  std::int64_t exec_ns = 0;
  std::int64_t e2e_ns = 0;
  int gang = 0;
  std::uint8_t flags = 0;
};

// A span harvested from a ring into a retained trace, plus its track name.
struct TraceSpan {
  SpanRecord span;
  std::string thread;
};

struct RetainedTrace {
  TraceMeta meta;
  std::vector<TraceSpan> spans;
};

// Promote the trace: harvest every span currently in any ring stamped with
// meta.trace_id into the bounded retained store (FIFO eviction).  Returns
// false when trace_id is 0.  Retaining the same id again replaces the
// earlier copy (re-harvest after more spans landed).
bool retain_trace(const TraceMeta& meta);

// Append one more span to an already-retained trace — e.g. the client-side
// request span, which completes only after the server retained at job end.
// No-op when the trace is not retained.
void add_trace_span(std::uint64_t trace_id, const SpanRecord& span,
                    const std::string& thread);

std::vector<RetainedTrace> retained_traces();
std::size_t retained_trace_count();
std::uint64_t evicted_trace_count();  // retained then FIFO-evicted
void set_retained_trace_capacity(std::size_t capacity);  // default 64
void clear_retained_traces();

// ---------------------------------------------------------------------------
// Stitching validation
// ---------------------------------------------------------------------------

// A retained serve trace is well-formed when it stitches into exactly one
// tree: exactly one serve_e2e root, exactly one serve_queue child, exactly
// one serve_job child for completed requests (none for sheds), every other
// stamped span inside the root's window, and queue + exec within 5% of the
// root duration for completed requests.  The PCT stitching tests and
// trace_consolidate.py enforce the same rules.
bool validate_trace(const RetainedTrace& t, bool completed, std::string* why);

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

// JSON dump of the retained traces (schema: bench/trace_schema.json).
void write_traces_json(std::ostream& out);
bool write_traces_file(const std::string& path);  // no-op (true) when empty

}  // namespace sacpp::obs
