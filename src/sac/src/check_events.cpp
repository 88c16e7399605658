#include "sacpp/sac/check_events.hpp"

#include <mutex>
#include <thread>

namespace sacpp::sac::check_detail {

std::atomic<std::int64_t> g_live_buffers{0};
std::atomic<bool> g_ownership_watch{false};

namespace {

// Event log.  Buffer events can arrive from worker threads (that is exactly
// the anomaly the ownership watch exists to catch), so the log is
// mutex-protected; the mutex is only ever taken in checked mode.
struct EventLog {
  std::mutex mutex;
  std::vector<BufferEvent> buffer_events;
  std::vector<RegionRecord> regions;
  std::vector<ChunkRecord> chunks;
  std::uint64_t region_counter = 0;
  std::uint64_t active_region = 0;
  std::thread::id coordinator;
};

EventLog& log() {
  static EventLog l;
  return l;
}

}  // namespace

void record_buffer_event(BufferEventKind kind, std::uint32_t refs) noexcept {
  try {
    EventLog& l = log();
    std::lock_guard<std::mutex> lock(l.mutex);
    l.buffer_events.push_back(BufferEvent{kind, refs, l.active_region});
  } catch (...) {
    // Out of memory while logging: drop the event rather than throw through
    // Buffer's noexcept ownership paths.
  }
}

void note_ownership_op(std::uint32_t refs) noexcept {
  // Only called while the watch is armed.  Ownership changes on the
  // coordinating thread are the designed-for pattern; anything else violates
  // the runtime's "workers never touch ownership" contract.
  if (std::this_thread::get_id() == log().coordinator) return;
  record_buffer_event(BufferEventKind::kForeignOwnershipOp, refs);
}

void note_view_force() noexcept {
  // Only called while the watch is armed, so a region is running: whichever
  // thread forces, it races the region's readers of the same array.
  const bool foreign = std::this_thread::get_id() != log().coordinator;
  record_buffer_event(BufferEventKind::kViewForcedInRegion, foreign ? 1 : 0);
}

std::uint64_t begin_parallel_region(extent_t begin, extent_t end,
                                    extent_t align) noexcept {
  try {
    EventLog& l = log();
    std::lock_guard<std::mutex> lock(l.mutex);
    const std::uint64_t id = ++l.region_counter;
    l.active_region = id;
    l.coordinator = std::this_thread::get_id();
    l.regions.push_back(RegionRecord{id, begin, end, align});
    g_ownership_watch.store(true, std::memory_order_relaxed);
    return id;
  } catch (...) {
    return 0;
  }
}

void record_chunk(std::uint64_t region, unsigned worker, extent_t lo,
                  extent_t hi, bool write) noexcept {
  try {
    EventLog& l = log();
    std::lock_guard<std::mutex> lock(l.mutex);
    l.chunks.push_back(ChunkRecord{region, worker, lo, hi, write});
  } catch (...) {
  }
}

void end_parallel_region() noexcept {
  EventLog& l = log();
  g_ownership_watch.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(l.mutex);
  l.active_region = 0;
}

std::vector<BufferEvent> snapshot_buffer_events() {
  EventLog& l = log();
  std::lock_guard<std::mutex> lock(l.mutex);
  return l.buffer_events;
}

std::vector<RegionRecord> snapshot_region_records() {
  EventLog& l = log();
  std::lock_guard<std::mutex> lock(l.mutex);
  return l.regions;
}

std::vector<ChunkRecord> snapshot_chunk_records() {
  EventLog& l = log();
  std::lock_guard<std::mutex> lock(l.mutex);
  return l.chunks;
}

void clear_check_events() {
  EventLog& l = log();
  std::lock_guard<std::mutex> lock(l.mutex);
  l.buffer_events.clear();
  l.regions.clear();
  l.chunks.clear();
  l.active_region = 0;
}

}  // namespace sacpp::sac::check_detail
