// BufferPool property and stress battery.
//
// The pool hands out raw memory that the whole array system builds on, so
// the tests here are adversarial about the failure modes that matter for an
// allocator: two live allocations aliasing the same block, misaligned
// blocks, counters that drift from reality, cached memory that trim/drain
// fail to release or that big blocks keep after the last one goes, and
// cross-thread recycling races (the multi-threaded tests are run under TSan
// in CI).

#include <gtest/gtest.h>
#include <malloc.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "sacpp/sac/array_lib.hpp"
#include "sacpp/sac/buffer.hpp"
#include "sacpp/sac/check_events.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/sac/pool.hpp"
#include "sacpp/sac/runtime.hpp"
#include "sacpp/sac/stats.hpp"

namespace sacpp::sac {
namespace {

TEST(PoolBlockBytes, RoundsUpToWholeCacheLines) {
  EXPECT_EQ(pool_block_bytes(0), kBufferAlignment);  // rank-0 arrays
  EXPECT_EQ(pool_block_bytes(1), kBufferAlignment);
  EXPECT_EQ(pool_block_bytes(kBufferAlignment), kBufferAlignment);
  EXPECT_EQ(pool_block_bytes(kBufferAlignment + 1), 2 * kBufferAlignment);
  EXPECT_EQ(pool_block_bytes(1000), 1024u);
  for (std::size_t payload : {1u, 63u, 64u, 65u, 4095u, 4096u, 1u << 20}) {
    const std::size_t b = pool_block_bytes(payload);
    EXPECT_GE(b, payload);
    EXPECT_EQ(b % kBufferAlignment, 0u);
    EXPECT_LT(b - (payload == 0 ? 1 : payload), kBufferAlignment);
  }
}

// A live pooled block with the pattern it was stamped with.
struct LiveBlock {
  std::size_t bytes = 0;
  unsigned char stamp = 0;
};

void stamp(void* p, std::size_t bytes, unsigned char value) {
  std::memset(p, value, bytes);
}

bool stamp_intact(const void* p, std::size_t bytes, unsigned char value) {
  const auto* c = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < bytes; ++i) {
    if (c[i] != value) return false;
  }
  return true;
}

// Randomized differential test against a reference map of live intervals:
// a few thousand allocate/release operations over a mix of size classes,
// checking after every step that
//  * every block is cache-line aligned,
//  * no two live blocks overlap (the reference map would catch the pool
//    handing one free-list entry to two callers),
//  * every block still holds the byte pattern stamped at allocation when it
//    is released (catches writes through an aliased recycled block),
//  * the pool's monotonic totals balance the operations performed.
TEST(BufferPool, RandomizedAllocFreeKeepsBlocksDisjointAndIntact) {
  BufferPool& pool = BufferPool::instance();
  pool.drain();

  std::mt19937 rng(0xB0FFE7u);  // fixed seed: deterministic CI failure
  // Size mix: the MG shape ladder lives in the small classes, with a tail
  // of medium and page-plus payloads.
  auto random_payload = [&rng]() -> std::size_t {
    switch (rng() % 8) {
      case 0: return rng() % 2;                     // empty / rank-0
      case 1: return 1 + rng() % 63;                // sub-line
      case 2: case 3: case 4: return 1 + rng() % 4096;
      case 5: case 6: return 1 + rng() % (1u << 16);
      default: return 1 + rng() % (1u << 20);
    }
  };

  const BufferPool::Totals before = pool.totals();
  std::map<std::uintptr_t, LiveBlock> live;  // start address -> block
  std::uint64_t allocs = 0, frees = 0;
  unsigned char next_stamp = 1;

  for (int step = 0; step < 20000; ++step) {
    const bool do_alloc = live.empty() || (live.size() < 64 && rng() % 2 == 0);
    if (do_alloc) {
      const std::size_t bytes = pool_block_bytes(random_payload());
      void* p = pool.allocate(bytes);
      ASSERT_NE(p, nullptr);
      ++allocs;
      const auto addr = reinterpret_cast<std::uintptr_t>(p);
      ASSERT_EQ(addr % kBufferAlignment, 0u) << "misaligned block";

      // Disjointness against every live interval: the predecessor must end
      // at or before addr, and the successor must start at or after the end.
      auto next = live.lower_bound(addr);
      if (next != live.begin()) {
        auto prev = std::prev(next);
        ASSERT_LE(prev->first + prev->second.bytes, addr)
            << "new block overlaps a live block below it";
      }
      if (next != live.end()) {
        ASSERT_GE(next->first, addr + bytes)
            << "new block overlaps a live block above it";
      }

      const unsigned char s = next_stamp++;
      if (next_stamp == 0) next_stamp = 1;
      stamp(p, bytes, s);
      live.emplace(addr, LiveBlock{bytes, s});
    } else {
      auto it = live.begin();
      std::advance(it, rng() % live.size());
      void* p = reinterpret_cast<void*>(it->first);
      ASSERT_TRUE(stamp_intact(p, it->second.bytes, it->second.stamp))
          << "live block was clobbered while another block was recycled";
      pool.deallocate(p, it->second.bytes);
      ++frees;
      live.erase(it);
    }
  }
  for (const auto& [addr, block] : live) {
    void* p = reinterpret_cast<void*>(addr);
    ASSERT_TRUE(stamp_intact(p, block.bytes, block.stamp));
    pool.deallocate(p, block.bytes);
    ++frees;
  }

  const BufferPool::Totals after = pool.totals();
  EXPECT_EQ((after.hits - before.hits) + (after.misses - before.misses),
            allocs);
  EXPECT_EQ(after.returns - before.returns, frees);
}

TEST(BufferPool, RecyclesReleasedBlockAsHit) {
  BufferPool& pool = BufferPool::instance();
  const std::size_t bytes = pool_block_bytes(17 * sizeof(double));
  void* p = pool.allocate(bytes);
  ASSERT_NE(p, nullptr);
  pool.deallocate(p, bytes);

  const std::uint64_t hits = stats().pool_hits;
  void* q = pool.allocate(bytes);
  EXPECT_EQ(stats().pool_hits - hits, 1u)
      << "released block of the same size class was not reused";
  EXPECT_EQ(q, p) << "the free list should hand back the most recent release";
  pool.deallocate(q, bytes);

  // A different size class cannot be served by that block.
  void* r = pool.allocate(bytes + kBufferAlignment);
  ASSERT_NE(r, nullptr);
  EXPECT_NE(r, q);
  pool.deallocate(r, bytes + kBufferAlignment);
}

TEST(BufferPool, TrimFreesBlocksIdleForTwoEpochs) {
  BufferPool& pool = BufferPool::instance();
  pool.drain();
  ASSERT_EQ(pool.depot_cached_bytes(), 0u);

  constexpr int kBlocks = 32;
  const std::size_t bytes = pool_block_bytes(8192);
  std::vector<void*> blocks;
  for (int i = 0; i < kBlocks; ++i) blocks.push_back(pool.allocate(bytes));
  for (void* p : blocks) pool.deallocate(p, bytes);
  ASSERT_GE(pool.depot_cached_bytes(), kBlocks * bytes);

  const std::uint64_t epoch = pool.epoch();
  pool.trim();  // blocks are one epoch old: still cached
  EXPECT_EQ(pool.epoch(), epoch + 1);
  EXPECT_GE(pool.depot_cached_bytes(), kBlocks * bytes)
      << "trim freed blocks before they were two epochs idle";
  pool.trim();  // two epochs idle: released to the system
  EXPECT_EQ(pool.depot_cached_bytes(), 0u);
}

TEST(BufferPool, DrainReleasesEverythingCached) {
  BufferPool& pool = BufferPool::instance();
  const std::size_t bytes = pool_block_bytes(4096);
  std::vector<void*> blocks;
  for (int i = 0; i < 16; ++i) blocks.push_back(pool.allocate(bytes));
  for (void* p : blocks) pool.deallocate(p, bytes);

  const BufferPool::Totals before = pool.totals();
  pool.drain();
  EXPECT_EQ(pool.depot_cached_bytes(), 0u);
  const BufferPool::Totals after = pool.totals();
  EXPECT_GE(after.drained - before.drained, 16u);

  // The pool still works after a drain (fresh misses).
  const std::uint64_t misses = stats().pool_misses;
  void* p = pool.allocate(bytes);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(stats().pool_misses - misses, 1u);
  pool.deallocate(p, bytes);
}

// The per-run RuntimeStats gauges maintained by Buffer<T> must balance: every
// pooled allocation is either a hit or a miss, and every destruction returns
// its block.
TEST(BufferPool, RuntimeStatsBalanceOverBufferLifecycles) {
  SacConfig cfg = config();
  cfg.pool = true;
  ScopedConfig guard(cfg);
  reset_stats();
  {
    std::vector<Buffer<double>> buffers;
    for (int i = 0; i < 100; ++i) {
      buffers.emplace_back(static_cast<std::size_t>(1 + (i * 37) % 5000));
    }
  }
  const RuntimeStats& st = stats();
  EXPECT_EQ(st.allocations, 100u);
  EXPECT_EQ(st.pool_hits + st.pool_misses, 100u);
  EXPECT_EQ(st.pool_returns, 100u);
}

// Multi-threaded hammer: every thread churns through its own randomized
// alloc/stamp/verify/release loop over a shared set of size classes while
// one thread periodically trims.  Any cross-thread recycling bug (a block
// handed to two threads, a free-list race) shows up as a clobbered stamp or
// as a TSan report in the sanitizer CI job.
TEST(BufferPool, ConcurrentChurnKeepsBlocksPrivate) {
  BufferPool& pool = BufferPool::instance();
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::atomic<bool> failed{false};

  auto worker = [&pool, &failed](int tid) {
    std::mt19937 rng(0xC0FFEEu + static_cast<unsigned>(tid));
    std::vector<std::pair<void*, std::size_t>> mine;
    const auto my_stamp = static_cast<unsigned char>(0x40 + tid);
    for (int i = 0; i < kIters && !failed.load(std::memory_order_relaxed);
         ++i) {
      if (mine.size() < 16 && rng() % 2 == 0) {
        const std::size_t bytes = pool_block_bytes(1 + rng() % 20000);
        void* p = pool.allocate(bytes);
        if (p == nullptr ||
            reinterpret_cast<std::uintptr_t>(p) % kBufferAlignment != 0) {
          failed.store(true);
          return;
        }
        stamp(p, bytes, my_stamp);
        mine.emplace_back(p, bytes);
      } else if (!mine.empty()) {
        const std::size_t idx = rng() % mine.size();
        auto [p, bytes] = mine[idx];
        if (!stamp_intact(p, bytes, my_stamp)) {
          failed.store(true);  // another thread wrote into our live block
          return;
        }
        pool.deallocate(p, bytes);
        mine[idx] = mine.back();
        mine.pop_back();
      }
    }
    for (auto [p, bytes] : mine) pool.deallocate(p, bytes);
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  threads.emplace_back([&pool, &failed] {
    for (int i = 0; i < 50 && !failed.load(std::memory_order_relaxed); ++i) {
      pool.trim();
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load()) << "cross-thread aliasing or misalignment";
}

// Cross-thread release: blocks allocated on one thread are verified and
// released on another (the MgMpi message-passing pattern), then recycled.
TEST(BufferPool, BlocksMigrateBetweenThreads) {
  BufferPool& pool = BufferPool::instance();
  constexpr int kBlocks = 64;
  const std::size_t bytes = pool_block_bytes(3000);

  std::mutex mu;
  std::vector<void*> handoff;
  std::atomic<bool> bad{false};

  std::thread producer([&] {
    for (int i = 0; i < kBlocks; ++i) {
      void* p = pool.allocate(bytes);
      if (p == nullptr) {
        bad.store(true);
        return;
      }
      stamp(p, bytes, 0xAB);
      std::lock_guard<std::mutex> lock(mu);
      handoff.push_back(p);
    }
  });
  std::thread consumer([&] {
    int consumed = 0;
    while (consumed < kBlocks && !bad.load()) {
      void* p = nullptr;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (!handoff.empty()) {
          p = handoff.back();
          handoff.pop_back();
        }
      }
      if (p == nullptr) {
        std::this_thread::yield();
        continue;
      }
      if (!stamp_intact(p, bytes, 0xAB)) bad.store(true);
      pool.deallocate(p, bytes);
      ++consumed;
    }
  });
  producer.join();
  consumer.join();
  EXPECT_FALSE(bad.load());
}

// Blocks of at least 8 MB (kBigBlockBytes in pool.cpp) are big.
constexpr std::size_t kBig = std::size_t{8} << 20;

// Whether every page of the block [p, p + bytes) is mapped in this process
// (mincore fails with ENOMEM on an unmapped page).
bool mapped(void* p, std::size_t bytes) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> resident((bytes + page - 1) / page);
  return ::mincore(p, bytes, resident.data()) == 0;
}

// Bytes malloc has handed out, from its heaps and its own mappings.
std::size_t malloc_in_use() {
  const struct mallinfo2 mi = ::mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

TEST(BufferPool, BigBlocksAreTheirOwnMappings) {
  BufferPool& pool = BufferPool::instance();
  pool.drain();
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t before = malloc_in_use();
  void* keep = pool.allocate(kBig);
  void* p = pool.allocate(2 * kBig + kBufferAlignment);
  ASSERT_NE(keep, nullptr);
  ASSERT_NE(p, nullptr);
  // A malloc chunk's header precedes its payload, so a page-aligned block
  // starts a mapping of its own, and malloc's in-use total ignores it.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(keep) % page, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % page, 0u);
  EXPECT_LT(malloc_in_use(), before + kBig) << "a big block came from malloc";
  std::memset(p, 1, 2 * kBig + kBufferAlignment);

  pool.deallocate(p, 2 * kBig + kBufferAlignment);
  EXPECT_TRUE(mapped(p, 2 * kBig + kBufferAlignment))
      << "cached while another big block is live";
  pool.deallocate(keep, kBig);
  EXPECT_FALSE(mapped(keep, kBig)) << "the last live big block stays mapped";
  EXPECT_FALSE(mapped(p, 2 * kBig + kBufferAlignment))
      << "a cached big block outlives quiescence";
}

// From glibc's mmap threshold (128 KiB) up, pool blocks are mappings too:
// a trimmed one leaves the process instead of raising that threshold and
// sending later blocks of its size to the heap, which glibc keeps.
TEST(BufferPool, TrimUnmapsBlocksFromTheMmapThresholdUp) {
  BufferPool& pool = BufferPool::instance();
  pool.drain();
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t bytes = pool_block_bytes(std::size_t{256} << 10);
  const std::size_t before = malloc_in_use();
  void* p = pool.allocate(bytes);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % page, 0u);
  EXPECT_LT(malloc_in_use(), before + bytes) << "the block came from malloc";
  pool.deallocate(p, bytes);
  pool.trim();
  EXPECT_TRUE(mapped(p, bytes)) << "one epoch idle: still cached";
  pool.trim();
  EXPECT_FALSE(mapped(p, bytes)) << "two epochs idle: unmapped";
}

TEST(BufferPool, BigBlockReleasedWhileAnotherIsLiveComesBackAsHit) {
  BufferPool& pool = BufferPool::instance();
  pool.drain();
  ASSERT_EQ(pool.live_big_blocks(), 0u);
  void* keep = pool.allocate(kBig);
  void* p = pool.allocate(kBig);
  ASSERT_NE(keep, nullptr);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(pool.live_big_blocks(), 2u);
  pool.deallocate(p, kBig);
  EXPECT_EQ(pool.live_big_blocks(), 1u);
  EXPECT_EQ(pool.depot_cached_bytes(), kBig);

  std::uint64_t hits = stats().pool_hits;
  void* q = pool.allocate(kBig);
  EXPECT_EQ(stats().pool_hits - hits, 1u);
  EXPECT_EQ(q, p);
  EXPECT_EQ(pool.depot_cached_bytes(), 0u);
  // Another size class is not served by a cached block.
  pool.deallocate(q, kBig);
  hits = stats().pool_hits;
  void* r = pool.allocate(kBig + kBufferAlignment);
  EXPECT_EQ(stats().pool_hits, hits);
  pool.deallocate(r, kBig + kBufferAlignment);
  pool.deallocate(keep, kBig);
  EXPECT_EQ(pool.live_big_blocks(), 0u);
}

TEST(BufferPool, ReleasingTheLastLiveBigBlockFreesEveryCachedOne) {
  BufferPool& pool = BufferPool::instance();
  pool.drain();
  const BufferPool::Totals before = pool.totals();
  void* a = pool.allocate(kBig);
  void* b = pool.allocate(kBig + kBufferAlignment);
  void* c = pool.allocate(2 * kBig);
  pool.deallocate(b, kBig + kBufferAlignment);
  pool.deallocate(c, 2 * kBig);
  EXPECT_EQ(pool.depot_cached_bytes(), 3 * kBig + kBufferAlignment);
  EXPECT_EQ(pool.totals().big_freed, before.big_freed);

  pool.deallocate(a, kBig);
  EXPECT_EQ(pool.live_big_blocks(), 0u);
  EXPECT_EQ(pool.depot_cached_bytes(), 0u);
  EXPECT_FALSE(mapped(a, kBig));
  EXPECT_FALSE(mapped(b, kBig + kBufferAlignment));
  EXPECT_FALSE(mapped(c, 2 * kBig));
  const BufferPool::Totals after = pool.totals();
  EXPECT_EQ(after.big_freed - before.big_freed, 3u);
  EXPECT_EQ(after.returns - before.returns, 3u);

  // The next solve starts cold.
  const std::uint64_t hits = stats().pool_hits;
  void* d = pool.allocate(kBig);
  EXPECT_EQ(stats().pool_hits, hits);
  pool.deallocate(d, kBig);
}

TEST(BufferPool, CheckedModeReportsBigBlockDoubleRelease) {
  SacConfig cfg = config();
  cfg.check = true;
  ScopedConfig guard(cfg);
  check_detail::clear_check_events();
  BufferPool& pool = BufferPool::instance();
  pool.drain();

  void* keep = pool.allocate(kBig);
  void* p = pool.allocate(kBig);
  pool.deallocate(p, kBig);
  pool.deallocate(p, kBig);  // deliberate: p is cached
  EXPECT_EQ(pool.live_big_blocks(), 1u) << "a repeat is not a release";
  EXPECT_EQ(pool.depot_cached_bytes(), kBig) << "p is cached once";
  pool.deallocate(keep, kBig);
  ASSERT_FALSE(mapped(keep, kBig));
  pool.deallocate(keep, kBig);  // deliberate: unmapped at quiescence already
  EXPECT_EQ(pool.live_big_blocks(), 0u);

  int reports = 0;
  for (const check_detail::BufferEvent& e :
       check_detail::snapshot_buffer_events()) {
    if (e.kind == check_detail::BufferEventKind::kPoolDoubleRelease) {
      EXPECT_EQ(e.refs, kBig) << "the event names the size class";
      ++reports;
    }
  }
  EXPECT_EQ(reports, 2);
  check_detail::clear_check_events();
}

// A buffer returns its block the way it was allocated, whatever the pool
// flag says at release, so the big live count never goes stale.
TEST(BufferPool, TogglingThePoolNeverLeavesAStaleBigLiveCount) {
  BufferPool& pool = BufferPool::instance();
  pool.drain();
  SacConfig on = config();
  on.pool = true;
  SacConfig off = config();
  off.pool = false;
  const std::size_t count = kBig / sizeof(double);
  for (const bool pooled_first : {true, false}) {
    std::optional<Buffer<double>> buf;
    {
      ScopedConfig guard(pooled_first ? on : off);
      buf.emplace(count);
    }
    EXPECT_EQ(pool.live_big_blocks(), pooled_first ? 1u : 0u);
    {
      ScopedConfig guard(pooled_first ? off : on);
      buf.reset();
    }
    EXPECT_EQ(pool.live_big_blocks(), 0u) << "pooled first: " << pooled_first;
    EXPECT_EQ(pool.depot_cached_bytes(), 0u);
  }

  // With the count exact, a big block released while nothing else is live
  // is freed rather than cached.
  ScopedConfig guard(on);
  { const Buffer<double> alone(count); }
  EXPECT_EQ(pool.live_big_blocks(), 0u);
  EXPECT_EQ(pool.depot_cached_bytes(), 0u);
}

// Big blocks taken and released by several threads at once (gang workers
// release blocks their job allocated): however the releases interleave, no
// live block is handed out twice, and once every thread has released its
// last one nothing big is cached.  Only the first and last cache line of
// each block are stamped, to keep the run short under TSan.
TEST(BufferPool, ConcurrentBigBlocksStayPrivateAndAllGoAtQuiescence) {
  BufferPool& pool = BufferPool::instance();
  pool.drain();
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::atomic<bool> failed{false};

  auto ends = [](void* p, std::size_t bytes) {
    auto* c = static_cast<unsigned char*>(p);
    return std::pair{c, c + bytes - kBufferAlignment};
  };
  auto worker = [&](int tid) {
    std::mt19937 rng(0xB16B10Cu + static_cast<unsigned>(tid));
    std::vector<std::pair<void*, std::size_t>> mine;
    const auto my_stamp = static_cast<unsigned char>(0x60 + tid);
    for (int i = 0; i < kIters && !failed.load(std::memory_order_relaxed);
         ++i) {
      if (mine.size() < 2 && rng() % 2 == 0) {
        const std::size_t bytes = kBig + (rng() % 3) * kBufferAlignment;
        void* p = pool.allocate(bytes);
        if (p == nullptr) {
          failed.store(true);
          return;
        }
        const auto [head, tail] = ends(p, bytes);
        stamp(head, kBufferAlignment, my_stamp);
        stamp(tail, kBufferAlignment, my_stamp);
        mine.emplace_back(p, bytes);
      } else if (!mine.empty()) {
        const std::size_t idx = rng() % mine.size();
        auto [p, bytes] = mine[idx];
        const auto [head, tail] = ends(p, bytes);
        if (!stamp_intact(head, kBufferAlignment, my_stamp) ||
            !stamp_intact(tail, kBufferAlignment, my_stamp)) {
          failed.store(true);  // another thread wrote into our live block
          return;
        }
        pool.deallocate(p, bytes);
        mine[idx] = mine.back();
        mine.pop_back();
      }
    }
    for (auto [p, bytes] : mine) pool.deallocate(p, bytes);
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load()) << "a live big block was handed out twice";
  EXPECT_EQ(pool.live_big_blocks(), 0u);
  EXPECT_EQ(pool.depot_cached_bytes(), 0u);
}

// -- zero on fresh ------------------------------------------------------------

// Only a fresh mapping — a miss from 128 KiB up — reports that it reads as
// zero.  A recycled block holds its last owner's bytes, a heap-size block
// what malloc left there, and a block taken with the pool off comes from
// std::aligned_alloc.
TEST(BufferPool, OnlyAFreshMappingReportsZeroed) {
  BufferPool& pool = BufferPool::instance();
  pool.drain();
  const std::size_t mid = pool_block_bytes(std::size_t{256} << 10);
  bool zeroed = false;
  void* p = pool.allocate(mid, &zeroed);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(zeroed) << "a block mapped after drain()";
  EXPECT_TRUE(stamp_intact(p, mid, 0));
  stamp(p, mid, 0xA5);
  pool.deallocate(p, mid);
  void* q = pool.allocate(mid, &zeroed);
  EXPECT_EQ(q, p);
  EXPECT_FALSE(zeroed) << "a recycled block";
  pool.deallocate(q, mid);

  pool.drain();
  const std::size_t heap = pool_block_bytes(4096);
  zeroed = true;
  void* h = pool.allocate(heap, &zeroed);
  EXPECT_FALSE(zeroed) << "a heap-size block";
  pool.deallocate(h, heap);

  // Big blocks are fresh until one is cached, which needs another live.
  pool.drain();
  void* keep = pool.allocate(kBig, &zeroed);
  EXPECT_TRUE(zeroed);
  void* b = pool.allocate(kBig, &zeroed);
  EXPECT_TRUE(zeroed);
  pool.deallocate(b, kBig);
  void* c = pool.allocate(kBig, &zeroed);
  EXPECT_EQ(c, b);
  EXPECT_FALSE(zeroed) << "a big block recycled while another is live";
  pool.deallocate(c, kBig);
  pool.deallocate(keep, kBig);

  // Buffer passes the bit on; with the pool off it is never set.
  SacConfig cfg = config();
  for (const bool pooled : {true, false}) {
    cfg.pool = pooled;
    ScopedConfig guard(cfg);
    pool.drain();
    for (const std::size_t bytes : {mid, kBig}) {
      zeroed = !pooled;
      { const Buffer<double> buf(bytes / sizeof(double), &zeroed); }
      EXPECT_EQ(zeroed, pooled) << bytes << " bytes, pool " << pooled;
    }
    zeroed = true;
    { const Buffer<double> buf(16, &zeroed); }
    EXPECT_FALSE(zeroed) << "a heap-size buffer, pool " << pooled;
  }
}

// Whether every element of `a` has the bit pattern `bits`.
bool all_bits(const Array<double>& a, std::uint64_t bits) {
  const double* d = a.data();
  for (extent_t i = 0; i < a.elem_count(); ++i) {
    if (std::bit_cast<std::uint64_t>(d[i]) != bits) return false;
  }
  return true;
}

constexpr std::uint64_t kNegativeZero = std::uint64_t{1} << 63;

// On a recycled block genarray_const(shape, 0.0) writes every element,
// whatever the block held: a heap-size shape, a mapped mid-size one and a
// big one recycled while another big block is live, on 1 and 4 threads.
TEST(GenarrayConstOnPool, ZeroFillsARecycledDirtyBlock) {
  const Shape shapes[] = {Shape{16, 16, 16}, Shape{40, 40, 40},
                          Shape{130, 130, 130}};
  for (const unsigned threads : {1u, 4u}) {
    SacConfig cfg = config();
    cfg.pool = true;
    cfg.mt_enabled = threads > 1;
    cfg.mt_threads = threads;
    ScopedConfig guard(cfg);
    for (const Shape& shp : shapes) {
      BufferPool::instance().drain();
      const Array<double> keep = genarray_const(
          Shape{static_cast<extent_t>(kBig / sizeof(double))}, 0.0);
      const double* dirty_at = nullptr;
      {
        const Array<double> dirty =
            genarray_const(shp, std::numeric_limits<double>::quiet_NaN());
        dirty_at = dirty.data();
      }
      const Array<double> a = genarray_const(shp, 0.0);
      EXPECT_EQ(a.data(), dirty_at) << "not the recycled block";
      EXPECT_TRUE(all_bits(a, 0))
          << shp.elem_count() << " elements, " << threads << " threads";
    }
  }
  shutdown_runtime();
}

// calloc's rule: +0.0 on a fresh mapping is the block as it comes, so no
// with-loop runs.  A heap-size block still takes its with-loop.
TEST(GenarrayConstOnPool, ZeroOnAFreshMappingRunsNoWithLoop) {
  SacConfig cfg = config();
  cfg.pool = true;
  ScopedConfig guard(cfg);
  BufferPool::instance().drain();
  std::uint64_t loops = stats().with_loops;
  const Array<double> fresh = genarray_const(Shape{40, 40, 40}, 0.0);
  EXPECT_EQ(stats().with_loops, loops);
  EXPECT_TRUE(all_bits(fresh, 0));
  loops = stats().with_loops;
  const Array<double> heap = genarray_const(Shape{16, 16, 16}, 0.0);
  EXPECT_EQ(stats().with_loops - loops, 1u);
  EXPECT_TRUE(all_bits(heap, 0));
}

// -0.0 == +0.0, but a fresh page holds +0.0: the sign bit must be written.
TEST(GenarrayConstOnPool, NegativeZeroIsWrittenOnAFreshMapping) {
  SacConfig cfg = config();
  cfg.pool = true;
  ScopedConfig guard(cfg);
  BufferPool::instance().drain();
  const std::uint64_t misses = stats().pool_misses;
  const Array<double> a = genarray_const(Shape{40, 40, 40}, -0.0);
  EXPECT_EQ(stats().pool_misses - misses, 1u) << "not a fresh mapping";
  EXPECT_TRUE(all_bits(a, kNegativeZero));
}

}  // namespace
}  // namespace sacpp::sac
