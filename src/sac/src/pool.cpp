#include "sacpp/sac/pool.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>
#include <map>
#include <mutex>
#include <vector>

#include "sacpp/common/lockorder.hpp"
#include "sacpp/obs/obs.hpp"
#include "sacpp/sac/check_events.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/sac/stats.hpp"

namespace sacpp::sac {

namespace {

// Blocks at or above this size (the top-of-V-cycle grids: 137 MB each at
// class A) are cached only while some big block is live; releasing the last
// live one frees them all.
constexpr std::size_t kBigBlockBytes = std::size_t{8} << 20;

// Blocks at or above this size, glibc's default mmap threshold, are the
// pool's own anonymous mappings rather than heap blocks.  glibc raises its
// dynamic mmap threshold each time it frees a mapped chunk, after which
// blocks of that size come from the brk heap, which it keeps: a trim or a
// quiescent release would then hand nothing back, and the next burst grows
// the heap again.  munmap hands a mapping's pages back whatever ran before.
// Pages satisfy kBufferAlignment.
constexpr std::size_t kMappedBlockBytes = std::size_t{128} << 10;

bool is_big(std::size_t bytes) noexcept { return bytes >= kBigBlockBytes; }

// A fresh block from the system: a mapping, or the heap below
// kMappedBlockBytes.  nullptr when the system is out of memory.
void* acquire_from_system(std::size_t bytes) noexcept {
  if (bytes < kMappedBlockBytes) {
    return std::aligned_alloc(kBufferAlignment, bytes);
  }
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? nullptr : p;
}

// Hand a block back to the system the way it came from it.
void release_to_system(void* p, std::size_t bytes) noexcept {
  if (bytes < kMappedBlockBytes) {
    std::free(p);
  } else {
    ::munmap(p, bytes);
  }
}

struct FreeBlock {
  void* block;
  std::uint64_t epoch;  // pool epoch at release time (trim ages on this)
};

// Size class -> free blocks in release order, most recent last, so a list's
// epochs never decrease.  Ordered by size: the big classes are one tail.
using FreeLists = std::map<std::size_t, std::vector<FreeBlock>>;

// Hand every block on `lists` back to the system; returns how many.
std::uint64_t release_all(const FreeLists& lists) noexcept {
  std::uint64_t n = 0;
  for (const auto& [bytes, list] : lists) {
    for (const FreeBlock& b : list) release_to_system(b.block, bytes);
    n += list.size();
  }
  return n;
}

}  // namespace

struct BufferPool::Impl {
  // One lock covers the free lists, the live big count and the epoch, so a
  // release that finds itself the last live big block frees exactly what
  // is cached, and no block can slip into the cache after that.
  mutable TrackedMutex mutex{"sac.pool"};
  FreeLists lists;
  std::size_t cached_bytes = 0;
  std::size_t live_big = 0;  // big blocks allocated, not yet released
  std::uint64_t epoch = 1;
  // hit/miss/return counting lives in the RuntimeStats pool gauges
  // (stats().pool_*): one relaxed RMW per event, shared with the per-run
  // counters instead of duplicated here.
  std::atomic<std::uint64_t> trimmed{0};
  std::atomic<std::uint64_t> drained{0};
  std::atomic<std::uint64_t> big_freed{0};

  // The class's most recently released block, or nullptr.  Lock held.  An
  // emptied list stays, so a steady-state release never allocates.
  void* pop(std::size_t bytes) noexcept {
    auto it = lists.find(bytes);
    if (it == lists.end() || it->second.empty()) return nullptr;
    void* p = it->second.back().block;
    it->second.pop_back();
    cached_bytes -= bytes;
    return p;
  }

  // Cache a released block.  Lock held.  False when the list could not grow;
  // the caller then hands the block back to the system.
  bool push(void* p, std::size_t bytes) noexcept {
    try {
      lists[bytes].push_back(FreeBlock{p, epoch});
    } catch (...) {
      return false;
    }
    cached_bytes += bytes;
    return true;
  }

  // Whether `p` sits on its class's free list.  Lock held.
  bool cached(void* p, std::size_t bytes) const noexcept {
    auto it = lists.find(bytes);
    return it != lists.end() &&
           std::any_of(it->second.begin(), it->second.end(),
                       [p](const FreeBlock& b) { return b.block == p; });
  }

  // Take every big class off the lists.  Lock held.  Moving the map nodes
  // allocates nothing.
  FreeLists take_big() noexcept {
    FreeLists out;
    for (auto it = lists.lower_bound(kBigBlockBytes); it != lists.end();) {
      cached_bytes -= it->first * it->second.size();
      out.insert(lists.extract(it++));
    }
    return out;
  }
};

BufferPool::BufferPool() : impl_(new Impl) {}

BufferPool& BufferPool::instance() {
  // Intentionally leaked: arrays held in statics may release buffers after
  // every other static is gone, and cached blocks must stay reachable for
  // leak checkers.
  static BufferPool* pool = new BufferPool;
  return *pool;
}

void* BufferPool::allocate(std::size_t bytes, bool* zeroed) {
  if (!obs::enabled()) [[likely]] return allocate_impl(bytes, zeroed);
  const std::int64_t t0 = obs::now_ns();
  void* p = allocate_impl(bytes, zeroed);
  obs::record_span(obs::SpanKind::kPoolAlloc, "pool_alloc", t0,
                   obs::now_ns() - t0, static_cast<std::int64_t>(bytes));
  return p;
}

void* BufferPool::allocate_impl(std::size_t bytes, bool* zeroed) {
  const bool big = is_big(bytes);
  void* p = nullptr;
  bool hit = false;
  {
    std::lock_guard<TrackedMutex> lock(impl_->mutex);
    p = impl_->pop(bytes);
    hit = p != nullptr;
    if (big) {
      // A big miss maps under the lock (only a solve's first big grids do),
      // so the block counts as live from the moment it exists.
      if (!hit) p = acquire_from_system(bytes);
      if (p != nullptr) ++impl_->live_big;
    }
  }
  if (hit) {
    if (zeroed != nullptr) *zeroed = false;
    stats().pool_hits += 1;
    return p;
  }
  stats().pool_misses += 1;
  if (!big) p = acquire_from_system(bytes);
  // mmap hands out zero pages; malloc promises nothing.
  if (zeroed != nullptr) *zeroed = p != nullptr && bytes >= kMappedBlockBytes;
  return p;
}

void BufferPool::deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (!obs::enabled()) [[likely]] return deallocate_impl(p, bytes);
  const std::int64_t t0 = obs::now_ns();
  deallocate_impl(p, bytes);
  obs::record_span(obs::SpanKind::kPoolRelease, "pool_release", t0,
                   obs::now_ns() - t0, static_cast<std::int64_t>(bytes));
}

void BufferPool::deallocate_impl(void* p, std::size_t bytes) noexcept {
  const bool big = is_big(bytes);
  const bool screen = active_config().check;
  bool duplicate = false;
  bool cached = false;     // p went onto its free list
  bool quiescent = false;  // p was the last live big block ...
  FreeLists idle;          // ... and these are every cached big block
  {
    std::lock_guard<TrackedMutex> lock(impl_->mutex);
    // Double-release screen (checked mode): a block already on a free list
    // must not be pushed again (two future allocations would alias), and a
    // big block released while none is live was freed at quiescence.
    // Every cached block sits on one of these lists, so the screen is exact.
    duplicate = screen && ((big && impl_->live_big == 0) ||
                           impl_->cached(p, bytes));
    if (!duplicate) {
      if (big && --impl_->live_big == 0) {
        quiescent = true;
        idle = impl_->take_big();
      } else {
        cached = impl_->push(p, bytes);
      }
    }
  }
  if (duplicate) {
    check_detail::record_buffer_event(
        check_detail::BufferEventKind::kPoolDoubleRelease,
        static_cast<std::uint32_t>(bytes));
    return;
  }
  if (!cached) release_to_system(p, bytes);
  if (quiescent) {
    impl_->big_freed.fetch_add(release_all(idle) + 1,
                               std::memory_order_relaxed);
  }
  const std::uint64_t returned = stats().pool_returns.fetch_add(1) + 1;
  if (returned % kPoolAutoTrimInterval == 0) trim();
}

void BufferPool::trim() {
  std::uint64_t freed = 0;
  {
    std::lock_guard<TrackedMutex> lock(impl_->mutex);
    const std::uint64_t now = ++impl_->epoch;
    const auto big = impl_->lists.lower_bound(kBigBlockBytes);
    for (auto it = impl_->lists.begin(); it != big;) {
      // Epochs never decrease along a list, so the idle blocks are a prefix.
      // A list left empty goes too, so classes no longer in use do not pile
      // up.
      std::vector<FreeBlock>& list = it->second;
      const auto fresh =
          std::find_if(list.begin(), list.end(), [now](const FreeBlock& b) {
            return b.epoch + 2 > now;
          });
      for (auto b = list.begin(); b != fresh; ++b) {
        release_to_system(b->block, it->first);
      }
      const auto n = static_cast<std::size_t>(fresh - list.begin());
      impl_->cached_bytes -= n * it->first;
      freed += n;
      list.erase(list.begin(), fresh);
      it = list.empty() ? impl_->lists.erase(it) : std::next(it);
    }
  }
  impl_->trimmed.fetch_add(freed, std::memory_order_relaxed);
}

void BufferPool::drain() {
  FreeLists idle;
  {
    std::lock_guard<TrackedMutex> lock(impl_->mutex);
    idle.swap(impl_->lists);
    impl_->cached_bytes = 0;
  }
  impl_->drained.fetch_add(release_all(idle), std::memory_order_relaxed);
}

BufferPool::Totals BufferPool::totals() const {
  Totals t;
  t.hits = stats().pool_hits.load();
  t.misses = stats().pool_misses.load();
  t.returns = stats().pool_returns.load();
  t.trimmed = impl_->trimmed.load(std::memory_order_relaxed);
  t.drained = impl_->drained.load(std::memory_order_relaxed);
  t.big_freed = impl_->big_freed.load(std::memory_order_relaxed);
  return t;
}

std::uint64_t BufferPool::epoch() const {
  std::lock_guard<TrackedMutex> lock(impl_->mutex);
  return impl_->epoch;
}

std::size_t BufferPool::depot_cached_bytes() const {
  std::lock_guard<TrackedMutex> lock(impl_->mutex);
  return impl_->cached_bytes;
}

std::size_t BufferPool::live_big_blocks() const {
  std::lock_guard<TrackedMutex> lock(impl_->mutex);
  return impl_->live_big;
}

}  // namespace sacpp::sac
