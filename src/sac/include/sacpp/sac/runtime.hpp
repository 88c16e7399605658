#pragma once
// The implicit multithreading runtime (SAC's MT backend).
//
// A persistent pool of worker threads executes with-loop index ranges.  The
// coordinating thread partitions the outermost loop dimension into one chunk
// per worker, wakes the pool, participates in the work itself, and waits on
// a completion latch (fork/join, exactly SAC's execution model: one parallel
// region per multithreaded with-loop).
//
// Workers never touch array ownership — they only run loop bodies over
// disjoint element ranges — so the rest of the system needs no locking.

#include <cstdint>
#include <functional>

#include "sacpp/common/shape.hpp"

namespace sacpp::sac {

class ThreadPool {
 public:
  // Spawns `threads` workers (>= 1).  The coordinating thread also works, so
  // `threads == 1` means purely sequential execution without a pool.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const noexcept { return threads_; }

  // Run fn(chunk_begin, chunk_end, worker_id) over [begin, end) split into
  // `thread_count()` contiguous chunks whose starts are aligned down to
  // `align` (so strided generators keep their phase).  Blocks until all
  // chunks completed.  fn must be safe to call concurrently on disjoint
  // ranges.
  void parallel_for(extent_t begin, extent_t end, extent_t align,
                    const std::function<void(extent_t, extent_t, unsigned)>& fn);

 private:
  struct Impl;
  Impl* impl_;
  unsigned threads_;
};

// The runtime serving the calling thread: the thread's bound per-job pool
// when one is installed (RuntimeBinding), else the process-global pool,
// created on first use with the configured thread count
// (SacConfig::mt_threads; 0 = hardware concurrency) and re-created when the
// requested count changes.  The global pool is intended for one coordinator
// at a time; concurrent solves each bind their own pool (docs/serve.md).
ThreadPool& runtime();

// Tear down the global runtime (tests use this to exercise re-creation).
// Does not touch bound per-job pools.
void shutdown_runtime();

namespace runtime_detail {
extern constinit thread_local ThreadPool* tl_pool;  // see detail::tl_config
}  // namespace runtime_detail

// RAII: route the calling thread's with-loops through a private ThreadPool
// instead of the process-global one.  The serve scheduler gives each
// gang-scheduled job its own pool so concurrent solves never contend for
// (or race on) the shared pool's single task slot.  Bindings nest; the pool
// must outlive the binding.
class RuntimeBinding {
 public:
  explicit RuntimeBinding(ThreadPool* pool) noexcept
      : prev_(runtime_detail::tl_pool) {
    runtime_detail::tl_pool = pool;
  }
  ~RuntimeBinding() { runtime_detail::tl_pool = prev_; }
  RuntimeBinding(const RuntimeBinding&) = delete;
  RuntimeBinding& operator=(const RuntimeBinding&) = delete;

 private:
  ThreadPool* prev_;
};

}  // namespace sacpp::sac
