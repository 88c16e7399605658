#pragma once
// Lock-order analysis pass: turns the happens-before lock graph recorded by
// sacpp::LockRegistry (common/lockorder.hpp) into structured diagnostics,
// and exports the graph through the obs exporters
// (docs/static_analysis.md).
//
// The instrumented locks — the serve dispatch lock, the AdmissionQueue
// mutex, the buffer pool's lock, the msg mailbox/stats/registry locks — record
// an edge A -> B whenever a thread acquires B while holding A.  A cycle in
// the recorded graph is a potential deadlock even if no deadlock fired
// during the run: two threads need only take the participating locks in the
// recorded (opposing) orders at the same time.

#include <string>
#include <vector>

#include "sacpp/check/diagnostics.hpp"

namespace sacpp::check {

// One diagnostic per lock-order cycle found in the registry's recorded
// graph, naming the full lock path ("serve.dispatch -> serve.queue ->
// serve.dispatch").  Empty result == the recorded orders admit a total
// order.
std::vector<Diagnostic> analyze_lock_order();

// Graphviz dump of the recorded lock graph; returns false when the file
// cannot be opened (no-op on an empty path, returning true).
bool write_lock_graph(const std::string& path);

// Register the lock-graph gauges (sacpp_check_lock_classes / _edges /
// _cycles) with the obs metric collectors; idempotent.
void register_lock_collector();

// RAII analysis window: clears previously recorded edges, enables tracing
// (restoring the prior state on destruction), and registers the obs
// collector.  finish() runs analyze_lock_order into the engine.
class LockOrderSession {
 public:
  LockOrderSession();
  ~LockOrderSession();
  LockOrderSession(const LockOrderSession&) = delete;
  LockOrderSession& operator=(const LockOrderSession&) = delete;

  DiagnosticEngine& finish();
  DiagnosticEngine& engine() { return engine_; }

 private:
  DiagnosticEngine engine_;
  bool prev_enabled_;
  bool finished_ = false;
};

}  // namespace sacpp::check
