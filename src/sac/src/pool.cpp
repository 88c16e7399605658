#include "sacpp/sac/pool.hpp"

#include <sys/mman.h>

#include <atomic>
#include <cstdlib>
#include <iterator>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sacpp/common/lockorder.hpp"
#include "sacpp/obs/obs.hpp"
#include "sacpp/sac/check_events.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/sac/stats.hpp"

namespace sacpp::sac {

namespace {

// -- central depot geometry ---------------------------------------------------

constexpr int kShards = 8;

// Size classes hash to shards so threads cycling through different shapes
// contend on different locks; the multiplier spreads the low bits of the
// cache-line count (all size classes share the low 6 zero bits).
int shard_of(std::size_t bytes) noexcept {
  const std::uint64_t lines = static_cast<std::uint64_t>(bytes) >> 6;
  return static_cast<int>((lines * 0x9E3779B97F4A7C15ull) >> 61) &
         (kShards - 1);
}

struct DepotEntry {
  void* block;
  std::uint64_t epoch;  // pool epoch at release time (trim ages on this)
};

struct Shard {
  mutable TrackedMutex mutex{"sac.pool.depot"};
  // size class -> free blocks, most recently released last.
  std::unordered_map<std::size_t, std::vector<DepotEntry>> lists;
  std::size_t cached_bytes = 0;
};

// -- per-thread magazine ------------------------------------------------------

// A magazine caches a handful of blocks per size class with no locking.  The
// V-cycle cycles through ~12 shapes, so a few spare class slots cover the
// whole benchmark; threads that touch more size classes than kSlots fall
// through to the depot for the excess classes.
constexpr int kMagazineSlots = 24;
constexpr int kMagazineDepth = 8;

// Blocks at or above this size (the top-of-V-cycle grids: 137 MB each at
// class A) skip the magazines and are cached only while some big block is
// live; releasing the last live one frees them all (BigBlocks below).
constexpr std::size_t kBigBlockBytes = std::size_t{8} << 20;

struct MagazineSlot {
  std::size_t bytes = 0;
  int n = 0;
  void* blocks[kMagazineDepth];
};

// Big blocks are their own anonymous mappings, not heap blocks: glibc raises
// its dynamic mmap threshold each time it frees a mapped chunk, after which
// blocks of that size come from the brk heap, which it keeps.  munmap hands
// a mapping's pages back whatever ran before.  Pages satisfy
// kBufferAlignment.
void* map_big(std::size_t bytes) noexcept {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? nullptr : p;
}

void unmap_big(void* p, std::size_t bytes) noexcept { ::munmap(p, bytes); }

// Big-block cache.  One lock covers the live count and the cached blocks,
// so a release that finds itself last frees exactly what is cached, and no
// block can slip into the cache after that.  Reuse therefore stays inside
// one solve's lifetime: between solves no big block is retained.
struct BigBlocks {
  mutable TrackedMutex mutex{"sac.pool.big"};
  std::size_t live = 0;  // allocated through the pool, not yet released
  std::vector<std::pair<std::size_t, void*>> cached;  // (bytes, block)
  std::size_t cached_bytes = 0;
};

}  // namespace

// -- pool implementation ------------------------------------------------------

struct BufferPool::Impl {
  // hit/miss/return counting lives in the RuntimeStats pool gauges
  // (stats().pool_*): one relaxed RMW per event, shared with the per-run
  // counters instead of duplicated here.
  Shard shards[kShards];
  BigBlocks big;
  std::atomic<std::uint64_t> epoch{1};
  std::atomic<std::uint64_t> trimmed{0};
  std::atomic<std::uint64_t> drained{0};
  std::atomic<std::uint64_t> big_freed{0};

  // Push to the depot; takes the shard lock.  May throw bad_alloc from the
  // free-list map; callers own the fallback (std::free the block).
  void depot_push(void* p, std::size_t bytes) {
    Shard& s = shards[shard_of(bytes)];
    const std::uint64_t e = epoch.load(std::memory_order_relaxed);
    std::lock_guard<TrackedMutex> lock(s.mutex);
    s.lists[bytes].push_back(DepotEntry{p, e});
    s.cached_bytes += bytes;
  }

  // Pop up to `max` blocks of one size class into `out`.
  int depot_pop(std::size_t bytes, void** out, int max) {
    Shard& s = shards[shard_of(bytes)];
    std::lock_guard<TrackedMutex> lock(s.mutex);
    auto it = s.lists.find(bytes);
    if (it == s.lists.end()) return 0;
    std::vector<DepotEntry>& list = it->second;
    int n = 0;
    while (n < max && !list.empty()) {
      out[n++] = list.back().block;
      list.pop_back();
      s.cached_bytes -= bytes;
    }
    if (list.empty()) s.lists.erase(it);
    return n;
  }

  // Serve a big block from the cache, else from the system; counts it live.
  void* big_acquire(std::size_t bytes, bool* hit) {
    std::lock_guard<TrackedMutex> lock(big.mutex);
    void* p = nullptr;
    for (auto it = big.cached.rbegin(); it != big.cached.rend(); ++it) {
      if (it->first == bytes) {
        p = it->second;
        big.cached.erase(std::next(it).base());
        big.cached_bytes -= bytes;
        break;
      }
    }
    *hit = p != nullptr;
    if (p == nullptr) p = map_big(bytes);
    if (p != nullptr) ++big.live;
    return p;
  }

  // Return a live big block: cache it while others are live, else free it
  // and everything cached.  With `screen` (checked mode) a block already
  // cached is left alone and reported by returning false.
  bool big_release(void* p, std::size_t bytes, bool screen) noexcept {
    std::vector<std::pair<std::size_t, void*>> idle;
    {
      std::lock_guard<TrackedMutex> lock(big.mutex);
      if (screen) {
        // Cached, or released while no big block is live: freed already.
        if (big.live == 0) return false;
        for (const auto& entry : big.cached) {
          if (entry.second == p) return false;
        }
      }
      if (--big.live > 0) {
        try {
          big.cached.emplace_back(bytes, p);
          big.cached_bytes += bytes;
        } catch (...) {
          unmap_big(p, bytes);  // cache growth failed: give the block back
        }
        return true;
      }
      idle.swap(big.cached);
      big.cached_bytes = 0;
    }
    for (const auto& entry : idle) unmap_big(entry.second, entry.first);
    unmap_big(p, bytes);
    big_freed.fetch_add(idle.size() + 1, std::memory_order_relaxed);
    return true;
  }

  bool depot_contains(void* p, std::size_t bytes) const {
    const Shard& s = shards[shard_of(bytes)];
    std::lock_guard<TrackedMutex> lock(s.mutex);
    auto it = s.lists.find(bytes);
    if (it == s.lists.end()) return false;
    for (const DepotEntry& e : it->second) {
      if (e.block == p) return true;
    }
    return false;
  }
};

namespace {

// Set once when the immortal pool is constructed; magazines (which are only
// ever touched from inside pool calls, i.e. after construction) use it to
// flush at thread exit without re-entering instance().
BufferPool::Impl* g_pool_impl = nullptr;

// Thread-local magazine.  Destroyed at thread exit (flushing its blocks to
// the immortal depot); `tl_magazine_dead` guards releases arriving from
// static destructors after that point — those go straight to the depot.
struct Magazine {
  MagazineSlot slots[kMagazineSlots];
  int used = 0;

  ~Magazine() {
    tl_magazine_dead = true;
    for (int i = 0; i < used; ++i) {
      for (int j = 0; j < slots[i].n; ++j) {
        try {
          g_pool_impl->depot_push(slots[i].blocks[j], slots[i].bytes);
        } catch (...) {
          std::free(slots[i].blocks[j]);
        }
      }
      slots[i].n = 0;
    }
  }

  MagazineSlot* find(std::size_t bytes) noexcept {
    for (int i = 0; i < used; ++i) {
      if (slots[i].bytes == bytes) return &slots[i];
    }
    return nullptr;
  }

  MagazineSlot* find_or_claim(std::size_t bytes) noexcept {
    if (MagazineSlot* s = find(bytes)) return s;
    if (used == kMagazineSlots) return nullptr;
    MagazineSlot* s = &slots[used++];
    s->bytes = bytes;
    s->n = 0;
    return s;
  }

  static thread_local bool tl_magazine_dead;
};

thread_local bool Magazine::tl_magazine_dead = false;

Magazine* magazine() {
  if (Magazine::tl_magazine_dead) return nullptr;
  static thread_local Magazine m;
  return &m;
}

}  // namespace

BufferPool::BufferPool() : impl_(new Impl) { g_pool_impl = impl_; }

BufferPool& BufferPool::instance() {
  // Intentionally leaked: arrays held in statics may release buffers after
  // every other static is gone, and cached blocks must stay reachable for
  // leak checkers.
  static BufferPool* pool = new BufferPool;
  return *pool;
}

void* BufferPool::allocate(std::size_t bytes, bool* from_cache) {
  if (!obs::enabled()) [[likely]] return allocate_impl(bytes, from_cache);
  const std::int64_t t0 = obs::now_ns();
  void* p = allocate_impl(bytes, from_cache);
  obs::record_span(obs::SpanKind::kPoolAlloc, "pool_alloc", t0,
                   obs::now_ns() - t0, static_cast<std::int64_t>(bytes));
  return p;
}

void* BufferPool::allocate_impl(std::size_t bytes, bool* from_cache) {
  if (bytes >= kBigBlockBytes) {
    bool hit = false;
    void* p = impl_->big_acquire(bytes, &hit);
    (hit ? stats().pool_hits : stats().pool_misses) += 1;
    if (from_cache != nullptr) *from_cache = hit;
    return p;
  }

  Magazine* mag = magazine();
  if (mag != nullptr) {
    if (MagazineSlot* slot = mag->find(bytes); slot != nullptr && slot->n > 0) {
      stats().pool_hits += 1;
      if (from_cache != nullptr) *from_cache = true;
      return slot->blocks[--slot->n];
    }
  }

  // Magazine empty for this class: refill a batch from the depot so the next
  // few allocations of the same shape stay lock-free.
  void* batch[kMagazineDepth];
  const int want = mag != nullptr ? kMagazineDepth / 2 + 1 : 1;
  const int got = impl_->depot_pop(bytes, batch, want);
  if (got > 0) {
    if (mag != nullptr && got > 1) {
      MagazineSlot* slot = mag->find_or_claim(bytes);
      for (int i = 1; i < got; ++i) {
        if (slot != nullptr && slot->n < kMagazineDepth) {
          slot->blocks[slot->n++] = batch[i];
        } else {
          impl_->depot_push(batch[i], bytes);
        }
      }
    }
    stats().pool_hits += 1;
    if (from_cache != nullptr) *from_cache = true;
    return batch[0];
  }

  stats().pool_misses += 1;
  if (from_cache != nullptr) *from_cache = false;
  return std::aligned_alloc(kBufferAlignment, bytes);
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
  if (bytes >= kBigBlockBytes) {
    if (impl_->big_release(p, bytes, active_config().check)) {
      stats().pool_returns += 1;
    } else {
      check_detail::record_buffer_event(
          check_detail::BufferEventKind::kPoolDoubleRelease,
          static_cast<std::uint32_t>(bytes));
    }
    return;
  }

  Magazine* mag = magazine();

  if (active_config().check) [[unlikely]] {
    // Double-release screen: a block already sitting on a free list must not
    // be pushed again (two future allocations would alias).  Report and
    // drop.  Best effort: other threads' magazines are not scanned.
    bool duplicate = false;
    if (mag != nullptr) {
      if (MagazineSlot* slot = mag->find(bytes)) {
        for (int i = 0; i < slot->n && !duplicate; ++i) {
          duplicate = slot->blocks[i] == p;
        }
      }
    }
    if (!duplicate) duplicate = impl_->depot_contains(p, bytes);
    if (duplicate) {
      check_detail::record_buffer_event(
          check_detail::BufferEventKind::kPoolDoubleRelease,
          static_cast<std::uint32_t>(bytes));
      return;
    }
  }

  const std::uint64_t returned = stats().pool_returns.fetch_add(1) + 1;

  bool cached = false;
  if (mag != nullptr) {
    if (MagazineSlot* slot = mag->find_or_claim(bytes)) {
      if (slot->n == kMagazineDepth) {
        // Overflow: spill the older half to the depot, keeping the most
        // recently released (cache-warm) blocks local.
        const int spill = kMagazineDepth / 2;
        try {
          for (int i = 0; i < spill; ++i) {
            impl_->depot_push(slot->blocks[i], bytes);
          }
        } catch (...) {
          std::free(p);  // depot map allocation failed: give the block back
          return;
        }
        for (int i = spill; i < slot->n; ++i) {
          slot->blocks[i - spill] = slot->blocks[i];
        }
        slot->n -= spill;
      }
      slot->blocks[slot->n++] = p;
      cached = true;
    }
  }
  if (!cached) {
    try {
      impl_->depot_push(p, bytes);
    } catch (...) {
      std::free(p);
      return;
    }
  }

  if (returned % kPoolAutoTrimInterval == 0) trim();
}

void BufferPool::trim() {
  const std::uint64_t now =
      impl_->epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t freed = 0;
  for (Shard& s : impl_->shards) {
    std::lock_guard<TrackedMutex> lock(s.mutex);
    for (auto it = s.lists.begin(); it != s.lists.end();) {
      std::vector<DepotEntry>& list = it->second;
      std::size_t keep = 0;
      for (DepotEntry& e : list) {
        if (e.epoch + 2 <= now) {
          std::free(e.block);
          s.cached_bytes -= it->first;
          ++freed;
        } else {
          list[keep++] = e;
        }
      }
      list.resize(keep);
      it = list.empty() ? s.lists.erase(it) : std::next(it);
    }
  }
  impl_->trimmed.fetch_add(freed, std::memory_order_relaxed);
}

void BufferPool::drain() {
  flush_thread_cache();
  std::uint64_t freed = 0;
  for (Shard& s : impl_->shards) {
    std::lock_guard<TrackedMutex> lock(s.mutex);
    for (auto& [bytes, list] : s.lists) {
      (void)bytes;
      for (DepotEntry& e : list) {
        std::free(e.block);
        ++freed;
      }
    }
    s.lists.clear();
    s.cached_bytes = 0;
  }
  {
    std::lock_guard<TrackedMutex> lock(impl_->big.mutex);
    for (const auto& entry : impl_->big.cached) {
      unmap_big(entry.second, entry.first);
    }
    freed += impl_->big.cached.size();
    impl_->big.cached.clear();
    impl_->big.cached_bytes = 0;
  }
  impl_->drained.fetch_add(freed, std::memory_order_relaxed);
}

void BufferPool::flush_thread_cache() {
  Magazine* mag = magazine();
  if (mag == nullptr) return;
  for (int i = 0; i < mag->used; ++i) {
    MagazineSlot& slot = mag->slots[i];
    for (int j = 0; j < slot.n; ++j) {
      try {
        impl_->depot_push(slot.blocks[j], slot.bytes);
      } catch (...) {
        std::free(slot.blocks[j]);
      }
    }
    slot.n = 0;
  }
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
  return impl_->epoch.load(std::memory_order_relaxed);
}

std::size_t BufferPool::depot_cached_bytes() const {
  std::size_t total = 0;
  for (const Shard& s : impl_->shards) {
    std::lock_guard<TrackedMutex> lock(s.mutex);
    total += s.cached_bytes;
  }
  std::lock_guard<TrackedMutex> lock(impl_->big.mutex);
  return total + impl_->big.cached_bytes;
}

std::size_t BufferPool::live_big_blocks() const {
  std::lock_guard<TrackedMutex> lock(impl_->big.mutex);
  return impl_->big.live;
}

}  // namespace sacpp::sac
