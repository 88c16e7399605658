#pragma once
// Size-class pooled buffer allocator for the V-cycle hot path.
//
// The paper's scaling analysis (Sec. 5/6) pins SAC's parallel limit on
// dynamic memory management whose cost is invariant in grid size and
// therefore dominates the small grids at the bottom of the MG V-cycle.  The
// V-cycle recurs through the same ~12 buffer shapes every iteration, so
// nearly every allocation after the first cycle can be served by recycling
// a previously released block of the same size class instead of calling
// std::aligned_alloc/std::free.
//
// Structure (docs/memory.md):
//  * size classes — block sizes rounded up to whole cache lines; each class
//    has its own LIFO free list, so a recycled block always fits exactly and
//    the most recently released (cache-warm) block goes out first;
//  * one lock — a single mutex covers every free list and the count of live
//    big blocks.  An MG iteration makes only a few dozen alloc/release pairs,
//    so the lock costs little (docs/memory.md has counts and times), and
//    every cached block sits where the double-release screen sees it;
//  * epoch-based trim — released blocks are stamped with the epoch of their
//    release; trim() advances the epoch and frees blocks below 8 MB that sat
//    unused for two full epochs, bounding retained memory without a size
//    heuristic.  An automatic trim runs every kPoolAutoTrimInterval releases;
//  * quiescent release of big blocks — blocks of at least 8 MB (the fine
//    grids of classes A and up) are cached only while some big block is
//    live; releasing the last live one frees every cached big block, so
//    reuse stays inside one solve and nothing big is retained under
//    whatever the process runs next.
//
// Blocks hold exactly pool_block_bytes(payload) bytes.  Blocks below 128 KiB
// (glibc's default mmap threshold) are std::aligned_alloc allocations; from
// there up each block is its own anonymous mapping (mmap/munmap), so its
// pages leave the process when trim or quiescence frees it instead of
// staying in the malloc heap (docs/memory.md); a fresh one reads as zero,
// and allocate() says so.  A block must go back the way it came — into the
// pool when the pool allocated it, to std::free otherwise — so the live
// count of big blocks stays exact; Buffer and ScratchBlock remember which,
// so SacConfig::pool / SACPP_POOL may flip at any time.
//
// Checked mode (SacConfig::check): releasing a block that already sits on a
// free list, or a big block while none is live (it was freed at quiescence),
// records a kPoolDoubleRelease event for the sacpp_check diagnostics instead
// of corrupting the free list.

#include <cstddef>
#include <cstdint>

namespace sacpp::sac {

inline constexpr std::size_t kBufferAlignment = 64;  // one cache line

// Every pool block is allocated with this size: the payload rounded up to a
// whole number of cache lines (also what std::aligned_alloc requires).  The
// rounded size doubles as the size-class key.
constexpr std::size_t pool_block_bytes(std::size_t payload) noexcept {
  if (payload == 0) payload = 1;  // rank-0 arrays still hold one element
  return (payload + kBufferAlignment - 1) / kBufferAlignment *
         kBufferAlignment;
}

// Automatic trim cadence: one epoch advance per this many releases.
inline constexpr std::uint64_t kPoolAutoTrimInterval = 1u << 15;

class BufferPool {
 public:
  // Thread-safe counter snapshot.  hits/misses/returns read the RuntimeStats
  // pool gauges — the pool increments those directly (one relaxed RMW per
  // event, no duplicate bookkeeping), so reset_stats() restarts them;
  // trimmed/drained are pool-internal and monotonic since process start.
  struct Totals {
    std::uint64_t hits = 0;       // allocations served from a free list
    std::uint64_t misses = 0;     // allocations that went to the system
    std::uint64_t returns = 0;    // blocks released into the pool
    std::uint64_t trimmed = 0;    // blocks freed by epoch trim
    std::uint64_t drained = 0;    // blocks freed by drain()
    std::uint64_t big_freed = 0;  // big blocks freed at quiescence
  };

  // The process-global pool.  Never destroyed (it may outlive every static
  // holding an Array); cached blocks stay reachable through it, so leak
  // checkers do not report them, and drain() frees them on demand.
  static BufferPool& instance();

  // Allocate a cache-line aligned block of exactly `bytes` bytes, which must
  // be a pool_block_bytes() value: the size class's most recently released
  // block, else a fresh one from the system.  Returns nullptr only when the
  // system is out of memory.
  //
  // `zeroed`, when given, is set to whether every byte of the block reads
  // as zero: true only for a fresh mapping (a miss from 128 KiB up), false
  // for a recycled or heap block.  It is a fact about the block at
  // allocation, read once by its creator to skip a zero fill that would
  // make every page resident (genarray_const, docs/memory.md).
  void* allocate(std::size_t bytes, bool* zeroed = nullptr);

  // Release a block this pool allocated with `bytes = pool_block_bytes(..)`
  // onto its class's free list; the last live big block is freed instead,
  // with every cached big block.  In checked mode a block already released
  // is reported and dropped.
  void deallocate(void* p, std::size_t bytes) noexcept;

  // Advance the epoch and free every cached block below 8 MB that has sat
  // unused for two full epochs (big blocks are not aged; quiescence frees
  // them).
  void trim();

  // Free every cached block.  Tests and memory-pressure handlers use this.
  void drain();

  Totals totals() const;
  std::uint64_t epoch() const;
  // Bytes cached for reuse on the free lists, big blocks included.
  std::size_t depot_cached_bytes() const;
  // Big blocks allocated through the pool and not yet released.
  std::size_t live_big_blocks() const;

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

 private:
  struct Impl;  // the lock, the free lists and the counters

  BufferPool();
  ~BufferPool() = default;

  // The real alloc/release paths; the public entry points only bracket them
  // with telemetry when obs is enabled, so the untraced path carries no
  // span-object frame cost.
  void* allocate_impl(std::size_t bytes, bool* zeroed);
  void deallocate_impl(void* p, std::size_t bytes) noexcept;

  Impl* impl_;
};

}  // namespace sacpp::sac
