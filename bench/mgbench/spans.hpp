#pragma once
// In-memory span recorder for the traced (--trace 1) run.
//
// Spans are recorded only from mgbench's own code, around each call into a
// library layer; nothing inside the libraries is instrumented, and the
// libraries' own obs telemetry stays off.  Each span carries a name, start,
// end, parent span and trace id (one trace per solve or request).  At exit
// the spans are written as Chrome trace-event JSON and summarised per span
// name in layers.json, with self time = duration minus the part of the span
// its children cover.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mgbench {

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  std::uint64_t new_trace();

  // Record a finished span with explicit monotonic-clock times (seconds);
  // returns its id, or 0 when disabled.  Used for spans whose endpoints
  // were measured elsewhere (a child process, a reply's server fields).
  std::uint64_t record(const std::string& name, double start_s, double end_s,
                       std::uint64_t parent, std::uint64_t trace);

  // Open a span now; close it with end().  Returns 0 when disabled.
  std::uint64_t begin(const std::string& name, std::uint64_t parent,
                      std::uint64_t trace);
  void end(std::uint64_t id);

  bool write_chrome(const std::string& path) const;
  bool write_layers(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t trace = 0;
    int tid = 0;
  };

  const bool enabled_;
  mutable std::mutex mutex_;  // guards everything below
  std::vector<Span> spans_;
  std::uint64_t next_trace_ = 1;
};

// RAII span around one call into a layer.
class Scope {
 public:
  Scope(Spans& spans, const std::string& name, std::uint64_t parent,
        std::uint64_t trace)
      : spans_(spans), id_(spans.begin(name, parent, trace)) {}
  ~Scope() { spans_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Spans& spans_;
  std::uint64_t id_;
};

}  // namespace mgbench
