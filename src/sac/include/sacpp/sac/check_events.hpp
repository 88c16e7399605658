#pragma once
// Checked-mode event recording: the instrumentation half of sacpp_check.
//
// When SacConfig::check is on (or the SACPP_CHECK environment variable is
// set), the array system records raw events here: buffer-ownership
// anomalies from Buffer/Array and the chunk intervals of every parallel
// with-loop region from the MT runtime.  The analysis passes live in
// src/check (sacpp_check) and turn snapshots of these records into
// structured diagnostics — recording stays inside sacpp_sac, analysis
// outside, so the link dependency runs one way only.
//
// Cost with checks off: one predictable branch per recording site and one
// relaxed atomic counter per buffer allocation/free; nothing at all on the
// per-element path.  The live-buffer gauge is always on because the ctest
// leak-balance guard asserts on it even in unchecked runs.

#include <atomic>
#include <cstdint>
#include <vector>

#include "sacpp/common/shape.hpp"

namespace sacpp::sac::check_detail {

// -- live buffer gauge (always on) -------------------------------------------

// Allocations minus frees since process start.  Mutated with relaxed atomics
// because msg ranks (threads) legitimately own disjoint arrays.
extern std::atomic<std::int64_t> g_live_buffers;

inline void note_buffer_alloc() noexcept {
  g_live_buffers.fetch_add(1, std::memory_order_relaxed);
}
inline void note_buffer_free() noexcept {
  g_live_buffers.fetch_sub(1, std::memory_order_relaxed);
}
inline std::int64_t live_buffer_count() noexcept {
  return g_live_buffers.load(std::memory_order_relaxed);
}

// -- buffer ownership events --------------------------------------------------

// True while a checked parallel region executes; Buffer ownership operations
// consult it with one relaxed load so the unchecked hot path stays a single
// global-bool test.
extern std::atomic<bool> g_ownership_watch;

inline bool ownership_watch() noexcept {
  return g_ownership_watch.load(std::memory_order_relaxed);
}

enum class BufferEventKind : std::uint8_t {
  kSharedInPlaceWrite,  // raw in-place write while the buffer was aliased
  kForeignOwnershipOp,  // retain/release off the coordinator inside a region
  kPoolDoubleRelease,   // block released into the BufferPool twice
  kViewForcedInRegion,  // copy-free view forced inside a parallel region
};

struct BufferEvent {
  BufferEventKind kind;
  std::uint32_t refs;    // reference count at the event (kPoolDoubleRelease
                         // carries the block's size class in bytes instead,
                         // kViewForcedInRegion 1 when off the coordinator)
  std::uint64_t region;  // active parallel region id (0 = none)
};

// Record an event (checked mode only; callers guard with config().check or
// ownership_watch()).  noexcept: allocation failure inside the log is
// swallowed rather than thrown through Buffer's noexcept paths.
void record_buffer_event(BufferEventKind kind, std::uint32_t refs) noexcept;

// Called from Buffer::retain/release when the ownership watch is active;
// records a kForeignOwnershipOp when the calling thread is not the region's
// coordinating thread.
void note_ownership_op(std::uint32_t refs) noexcept;

// Called from Array when a view is forced while the ownership watch is
// active: forcing rebinds the array's buffer, which the region's other
// participants may be reading.  Records a kViewForcedInRegion.
void note_view_force() noexcept;

// -- parallel-region chunk records --------------------------------------------

struct RegionRecord {
  std::uint64_t region;  // id (1-based; 0 means "no region")
  extent_t begin, end;   // outer-axis iteration space handed to parallel_for
  extent_t align;        // requested chunk-start alignment
};

struct ChunkRecord {
  std::uint64_t region;
  unsigned worker;
  extent_t lo, hi;  // outer-axis interval [lo, hi) assigned to this worker
  bool write;       // write chunk (genarray/modarray) vs read-only (fold)
};

// Region lifecycle, driven by ThreadPool::parallel_for in checked mode.
// Returns the new region id and arms the ownership watch.
std::uint64_t begin_parallel_region(extent_t begin, extent_t end,
                                    extent_t align) noexcept;
void record_chunk(std::uint64_t region, unsigned worker, extent_t lo,
                  extent_t hi, bool write) noexcept;
void end_parallel_region() noexcept;

// -- snapshots for the analysis layer -----------------------------------------

std::vector<BufferEvent> snapshot_buffer_events();
std::vector<RegionRecord> snapshot_region_records();
std::vector<ChunkRecord> snapshot_chunk_records();

// Drop all recorded events (gauge is unaffected: it tracks live buffers).
void clear_check_events();

}  // namespace sacpp::sac::check_detail
