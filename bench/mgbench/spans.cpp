#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>
#include <utility>

#include "report.hpp"

namespace mgbench {

namespace {

int thread_index() {
  static std::mutex mutex;
  static std::map<std::thread::id, int> ids;
  const std::lock_guard<std::mutex> lock(mutex);
  const auto it = ids.find(std::this_thread::get_id());
  if (it != ids.end()) return it->second;
  const int id = static_cast<int>(ids.size()) + 1;
  ids.emplace(std::this_thread::get_id(), id);
  return id;
}

}  // namespace

std::uint64_t Spans::new_trace() {
  if (!enabled_) return 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_trace_++;
}

std::uint64_t Spans::record(const std::string& name, double start_s,
                            double end_s, std::uint64_t parent,
                            std::uint64_t trace) {
  if (!enabled_) return 0;
  const int tid = thread_index();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.name = name;
  s.start = start_s;
  s.end = end_s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.trace = trace;
  s.tid = tid;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::uint64_t Spans::begin(const std::string& name, std::uint64_t parent,
                           std::uint64_t trace) {
  if (!enabled_) return 0;
  return record(name, now_s(), -1.0, parent, trace);
}

void Spans::end(std::uint64_t id) {
  if (id == 0) return;
  const double t = now_s();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end = t;
}

bool Spans::write_chrome(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double t0 = 0.0;
  for (const Span& s : spans_) {
    if (t0 == 0.0 || s.start < t0) t0 = s.start;
  }
  std::ofstream f(path, std::ios::trunc);
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const Span& s : spans_) {
    if (s.end < s.start) continue;  // never closed
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"span\": %llu, \"parent\": %llu, \"trace\": %llu}}",
                  first ? "" : ",\n", s.name.c_str(), s.tid,
                  (s.start - t0) * 1e6, (s.end - s.start) * 1e6,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.trace));
    f << buf;
    first = false;
  }
  f << "\n]}\n";
  return f.good();
}

bool Spans::write_layers(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) children[spans_[i].parent].push_back(i);
  }
  struct Layer {
    std::uint64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Layer> layers;
  for (const Span& s : spans_) {
    if (s.end < s.start) continue;
    // Union of the child intervals, clipped to this span.
    std::vector<std::pair<double, double>> cover;
    for (const std::size_t c : children[s.id]) {
      const Span& k = spans_[c];
      if (k.end < k.start) continue;
      const double lo = std::max(k.start, s.start);
      const double hi = std::min(k.end, s.end);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = s.start;
    for (const auto& [lo, hi] : cover) {
      const double from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    Layer& l = layers[s.name];
    l.count += 1;
    l.total += s.end - s.start;
    l.self += (s.end - s.start) - covered;
  }
  double self_sum = 0.0;
  for (const auto& [name, l] : layers) self_sum += l.self;
  std::ofstream f(path, std::ios::trunc);
  f << "{\"self_time_total_s\": " << self_sum << ", \"layers\": {\n";
  bool first = true;
  for (const auto& [name, l] : layers) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s  \"%s\": {\"count\": %llu, \"total_s\": %.9f, "
                  "\"self_s\": %.9f, \"self_share\": %.6f}",
                  first ? "" : ",\n", name.c_str(),
                  static_cast<unsigned long long>(l.count), l.total, l.self,
                  self_sum > 0.0 ? l.self / self_sum : 0.0);
    f << buf;
    first = false;
  }
  f << "\n}}\n";
  return f.good();
}

}  // namespace mgbench
