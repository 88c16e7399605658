#pragma once
// Lock-acquisition-order recording for the concurrency verifier
// (docs/static_analysis.md).
//
// A TrackedMutex is a drop-in std::mutex replacement (BasicLockable +
// Lockable, usable with std::lock_guard / std::unique_lock /
// std::condition_variable_any) that reports every acquisition to the
// process-global LockRegistry.  While tracing is enabled the registry
// maintains a happens-before lock graph: an edge A -> B is recorded whenever
// a thread acquires B while holding A.  A cycle in that graph is a potential
// deadlock — two threads that ever take the participating locks in opposite
// orders can wedge — and is detected *statically from the recorded orders*,
// even if no deadlock fires during the run.
//
// Layering: this lives in sacpp_common (not sacpp_check) so the layers below
// the checker — the buffer pool's lock, msg mailboxes, the serve
// dispatch/queue locks — can instrument their mutexes without a dependency
// cycle.  sacpp_check turns registry cycles into structured Diagnostics
// (sacpp/check/lockorder.hpp) and exports the graph via the obs exporters.
//
// Cost: tracing is off by default; each lock/unlock then pays one relaxed
// atomic load and a predictable branch (the same no-overhead discipline as
// SacConfig::check and obs probes).  While tracing, the holder stack is a
// thread-local vector and edge recording takes one internal (untracked)
// mutex.
//
// Locks sharing a constructor name share one graph node: every msg mailbox
// is "msg.mailbox", every TCP transport's peer table is "net.peer".  The
// graph therefore speaks about lock *classes*; acquiring a second instance
// of a class already held is treated as re-entry on the shared node (no
// edge) — a class whose instances nest must impose its own instance order,
// which a class-level graph cannot check.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace sacpp {

class LockRegistry {
 public:
  static LockRegistry& instance();

  // Id for a lock class name; the same name always returns the same id.
  int register_lock(const std::string& name);

  // Tracing switch.  Enabling mid-run is safe: locks already held when
  // tracing starts simply contribute no edges until released.
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Called by TrackedMutex around the underlying mutex operations.
  void note_acquired(int id);
  void note_released(int id) noexcept;

  struct Edge {
    int from = 0;
    int to = 0;
    std::uint64_t count = 0;  // times the nesting was observed
  };

  std::vector<Edge> edges() const;
  std::size_t edge_count() const;
  std::size_t lock_count() const;
  std::string lock_name(int id) const;

  // Every distinct lock-order cycle found in the recorded graph, as a closed
  // id path (front() == back()).  Empty means the recorded orders admit a
  // total order — no deadlock is possible among the traced locks.
  std::vector<std::vector<int>> find_cycles() const;

  // Graphviz dump of the recorded graph (edge labels carry observation
  // counts; cycle edges are highlighted).
  std::string to_dot() const;

  // Forget recorded edges (lock names/ids persist, held stacks untouched) so
  // independent analysis windows do not bleed into each other.
  void reset_edges();

 private:
  LockRegistry() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;  // guards names_ and edges_ (never tracked)
  std::vector<std::string> names_;
  std::vector<Edge> edges_;
};

// RAII tracing window: enables the registry on construction and restores the
// previous state on destruction (typically wrapped by check::LockOrderSession
// which also runs the cycle analysis).
class LockTraceScope {
 public:
  LockTraceScope()
      : prev_(LockRegistry::instance().enabled()) {
    LockRegistry::instance().set_enabled(true);
  }
  ~LockTraceScope() { LockRegistry::instance().set_enabled(prev_); }
  LockTraceScope(const LockTraceScope&) = delete;
  LockTraceScope& operator=(const LockTraceScope&) = delete;

 private:
  bool prev_;
};

// std::mutex with acquisition-order recording.  Satisfies Lockable, so it
// composes with the standard guards and std::condition_variable_any.
class TrackedMutex {
 public:
  explicit TrackedMutex(const char* name)
      : id_(LockRegistry::instance().register_lock(name)) {}

  TrackedMutex(const TrackedMutex&) = delete;
  TrackedMutex& operator=(const TrackedMutex&) = delete;

  void lock() {
    mutex_.lock();
    LockRegistry::instance().note_acquired(id_);
  }

  bool try_lock() {
    if (!mutex_.try_lock()) return false;
    LockRegistry::instance().note_acquired(id_);
    return true;
  }

  void unlock() {
    LockRegistry::instance().note_released(id_);
    mutex_.unlock();
  }

  int id() const noexcept { return id_; }

 private:
  std::mutex mutex_;
  int id_;
};

}  // namespace sacpp
