#pragma once
// Runtime counters of the SAC array system.
//
// The paper's scalability analysis hinges on the cost of dynamic memory
// management on small grids; these counters make that cost observable
// (tests assert on them, bench/abl_memory reports them, and the machine
// model's per-operation overhead constant is motivated by them).  The
// sacpp_obs metrics dump exports them (config.cpp registers the collector),
// so one run artifact carries the whole memory-management story.

#include <atomic>
#include <cstdint>

namespace sacpp::sac {

// A relaxed-atomic counter that behaves like a plain uint64_t field
// (copyable, +=, implicit read).  Used for the counters that worker threads
// mutate: the pool serves worker-side allocations (stencil scratch rows), so
// pool hit/miss/return increments can race with the coordinator.  Relaxed is
// enough — these are statistics, not synchronisation.
class RelaxedCounter {
 public:
  RelaxedCounter(std::uint64_t v = 0) noexcept : v_(v) {}  // NOLINT(*-explicit-*)
  RelaxedCounter(const RelaxedCounter& o) noexcept : v_(o.load()) {}
  RelaxedCounter& operator=(const RelaxedCounter& o) noexcept {
    v_.store(o.load(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(std::uint64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator+=(std::uint64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }
  std::uint64_t fetch_add(std::uint64_t d) noexcept {
    return v_.fetch_add(d, std::memory_order_relaxed);
  }
  // Approximate increment for per-row hot paths: a plain load+store pair
  // instead of a locked read-modify-write (~3x cheaper on x86).  Concurrent
  // writers may lose counts; callers must only use this where the tally is
  // advisory (the jit dispatch counters), never where tests or control
  // logic need every event.
  void bump() noexcept {
    v_.store(v_.load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
  }
  operator std::uint64_t() const noexcept { return load(); }  // NOLINT(*-explicit-*)
  std::uint64_t load() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_;
};

// Every counter is a RelaxedCounter: since the serving subsystem
// (docs/serve.md) runs multiple solves concurrently, each job's executor
// thread is a coordinating thread of its own, so even the counters that a
// single-solve process mutates "only on the coordinator" (with_loops,
// allocations, ...) are now incremented from many threads at once.  Relaxed
// is enough — these are statistics, not synchronisation — and the copy
// constructor gives a consistent-enough snapshot for deltas.
struct RuntimeStats {
  RelaxedCounter allocations;          // fresh buffers allocated
  RelaxedCounter releases;             // buffers freed (refcount reached 0)
  RelaxedCounter bytes_allocated;      // total bytes of fresh buffers
  RelaxedCounter reuses;               // buffers stolen via uniqueness reuse
  RelaxedCounter copies_on_write;      // deep copies forced by shared buffers
  RelaxedCounter with_loops;           // with-loop executions
  RelaxedCounter elements;             // generator elements processed
  RelaxedCounter parallel_regions;     // with-loops run multithreaded
  RelaxedCounter pool_hits;            // buffers served from the BufferPool
  RelaxedCounter pool_misses;          // pooled allocations the system served
  RelaxedCounter pool_returns;         // buffers recycled into the pool
  // Output rows computed through the kPlanes shared plane-sum path
  // (docs/stencil.md): each counted row reused its u1/u2 partial sums across
  // the whole k inner loop.
  RelaxedCounter stencil_rows_reused;
  // Rows dispatched through a vectorized (kSimd / kJit) backend's row
  // primitives (docs/backends.md).  Zero under kScalar, so tests and the
  // obs export can tell which engine a run actually used.
  RelaxedCounter backend_simd_rows;
  // The kJit engine (docs/jit.md).  kernel/fallback tally per row-primitive
  // call: a call is a kernel call when the compiled kernel for its shape was
  // ready (an in-memory cache hit), a fallback call when the row ran on the
  // SIMD engine instead (kernel still compiling, row too short to pay for
  // dispatch, or no usable host compiler).
  RelaxedCounter jit_kernel_calls;
  RelaxedCounter jit_compiles;       // kernels built by the host toolchain
  RelaxedCounter jit_compile_fails;  // failed builds (engine degrades)
  RelaxedCounter jit_disk_hits;      // kernels dlopen'd straight from disk
  RelaxedCounter jit_fallback_calls;
};

// Mutable access to the process-global counters.
RuntimeStats& stats();

// Reset all counters to zero (benchmark phases call this between sections).
// Safe against concurrent increments in the data-race sense (every field is
// atomic), but the reset is not a transaction across fields: call it at a
// quiescent point when exact cross-counter consistency matters.  A serving
// process should prefer stats_snapshot() deltas over resetting (resetting
// under live jobs silently truncates their tallies).
void reset_stats();

// A plain-value copy of the counters (each field loaded relaxed).  The serve
// layer and benches compute per-phase deltas from two snapshots instead of
// resetting the globals under live traffic.
RuntimeStats stats_snapshot();

}  // namespace sacpp::sac
