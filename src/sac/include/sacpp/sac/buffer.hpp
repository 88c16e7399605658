#pragma once
// Reference-counted, cache-line aligned element buffers.
//
// SAC manages array memory implicitly through reference counting; the
// compiler reuses a buffer in place when its reference count is one.  Buffer
// mirrors that: copying is O(1) (shared ownership), `unique()` exposes the
// reference count, and allocation/release feed the RuntimeStats counters the
// memory-management analysis relies on.
//
// Buffers are intentionally NOT thread-safe for ownership changes; arrays are
// created and retired on the coordinating thread, while worker threads only
// read/write elements (disjoint ranges) during with-loop execution.  In
// checked mode (SacConfig::check) every ownership operation performed while a
// parallel region is active is screened against that contract, and raw
// in-place writes to aliased buffers are recorded for the uniqueness/alias
// checker (src/check).
//
// Exception-safety audit (docs/static_analysis.md §alias checker):
//  * Buffer(count): if Control's allocation throws, the partially constructed
//    Control is freed by the compiler and ctrl_ stays null — the stats
//    counters are only advanced after the allocation succeeded.
//  * copy/move construction and assignment are noexcept; copy assignment
//    retains the source before releasing the old buffer, so self-assignment
//    and assignment between aliases of the same control block are safe even
//    when the left side held the last reference.
//  * release() is idempotent per handle (the pointer is cleared first), so a
//    double destruction through the same handle cannot double-free.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>

#include "sacpp/common/error.hpp"
#include "sacpp/obs/obs.hpp"
#include "sacpp/sac/check_events.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/sac/pool.hpp"
#include "sacpp/sac/stats.hpp"

namespace sacpp::sac {

template <typename T>
class Buffer {
 public:
  Buffer() = default;

  // `count` elements, not initialised.  `zeroed`, when given, is set to
  // whether they already read as zero (the pool mapped a fresh block for
  // them, pool.hpp); only the creator can ask, and only now.
  explicit Buffer(std::size_t count, bool* zeroed = nullptr) {
    if (count == 0) count = 1;  // rank-0 arrays still hold one element
    ctrl_ = new Control(count, zeroed);
    stats().allocations += 1;
    stats().bytes_allocated += count * sizeof(T);
  }

  Buffer(const Buffer& other) noexcept : ctrl_(other.ctrl_) { retain(); }

  Buffer(Buffer&& other) noexcept : ctrl_(std::exchange(other.ctrl_, nullptr)) {}

  Buffer& operator=(const Buffer& other) noexcept {
    if (this != &other) {
      // Retain before releasing: if both handles alias the same control
      // block, releasing first could free it while `other` still points in.
      Control* taken = other.ctrl_;
      retain_ctrl(taken);
      release();
      ctrl_ = taken;
    }
    return *this;
  }

  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      release();
      ctrl_ = std::exchange(other.ctrl_, nullptr);
    }
    return *this;
  }

  ~Buffer() { release(); }

  bool valid() const noexcept { return ctrl_ != nullptr; }

  T* data() noexcept { return ctrl_ ? ctrl_->elems : nullptr; }
  const T* data() const noexcept { return ctrl_ ? ctrl_->elems : nullptr; }

  std::size_t count() const noexcept { return ctrl_ ? ctrl_->count : 0; }

  // True when this handle is the only owner — the SAC reuse condition.
  bool unique() const noexcept { return ctrl_ && ctrl_->refs == 1; }

  std::uint32_t use_count() const noexcept { return ctrl_ ? ctrl_->refs : 0; }

  // Checked-mode hook for the uniqueness/alias checker: record a raw
  // in-place write that bypassed the copy-on-write path while this buffer
  // was still aliased (SAC's use-after-steal).  Callers guard on
  // active_config().check; see Array::raw_data_unchecked().
  void note_unchecked_write() const noexcept {
    if (ctrl_ && ctrl_->refs > 1) {
      check_detail::record_buffer_event(
          check_detail::BufferEventKind::kSharedInPlaceWrite, ctrl_->refs);
    }
  }

 private:
  struct Control {
    // Allocation goes through the size-class BufferPool when enabled
    // (SacConfig::pool; docs/memory.md) — the V-cycle's recurring shapes are
    // then served from recycled blocks instead of std::aligned_alloc.  The
    // block goes back the way it came, whatever the flag says at release,
    // so toggling mid-lifetime keeps the pool's live count exact.
    Control(std::size_t n, bool* zeroed)
        : count(n), pooled(active_config().pool) {
      const std::size_t bytes = pool_block_bytes(n * sizeof(T));
      if (obs::enabled()) [[unlikely]] {
        obs::observe(obs::Hist::kAllocBytes, n * sizeof(T));
      }
      void* raw = nullptr;
      if (pooled) {
        // The pool maintains the stats().pool_hits/misses gauges itself.
        raw = BufferPool::instance().allocate(bytes, zeroed);
      } else {
        raw = std::aligned_alloc(kBufferAlignment, bytes);
        if (zeroed != nullptr) *zeroed = false;
      }
      SACPP_REQUIRE(raw != nullptr, "array buffer allocation failed");
      elems = static_cast<T*>(raw);
      check_detail::note_buffer_alloc();
    }
    ~Control() {
      if (pooled) {
        BufferPool::instance().deallocate(elems,
                                          pool_block_bytes(count * sizeof(T)));
      } else {
        std::free(elems);
      }
      check_detail::note_buffer_free();
    }
    T* elems = nullptr;
    std::size_t count = 0;
    std::uint32_t refs = 1;
    bool pooled = false;
  };

  // Ownership mutations funnel through these two so checked mode can screen
  // them against the "workers never touch ownership" contract: while a
  // checked parallel region is active, any retain/release from a thread
  // other than the coordinator is recorded for the race detector.
  static void retain_ctrl(Control* c) noexcept {
    if (!c) return;
    if (check_detail::ownership_watch()) [[unlikely]] {
      check_detail::note_ownership_op(c->refs);
    }
    ++c->refs;
  }

  void retain() noexcept { retain_ctrl(ctrl_); }

  void release() noexcept {
    Control* c = std::exchange(ctrl_, nullptr);
    if (!c) return;
    if (check_detail::ownership_watch()) [[unlikely]] {
      check_detail::note_ownership_op(c->refs);
    }
    if (--c->refs == 0) {
      stats().releases += 1;
      delete c;
    }
  }

  Control* ctrl_ = nullptr;
};

// One with-loop chunk's row scratch: `count` doubles from the pool when
// SacConfig::pool is on, returned the way they came.  NOT a Buffer<T>:
// chunk states live and die on worker threads and Buffer ownership is
// coordinator-only, while the pool is thread-safe (docs/memory.md).  Not
// an array, so stats().allocations does not count it.
struct ScratchRelease {
  std::size_t bytes = 0;
  bool pooled = false;
  void operator()(double* p) const noexcept {
    if (pooled) {
      BufferPool::instance().deallocate(p, bytes);
    } else {
      std::free(p);
    }
  }
};
using ScratchBlock = std::unique_ptr<double[], ScratchRelease>;

inline ScratchBlock scratch_block(std::size_t count) {
  const ScratchRelease release{pool_block_bytes(count * sizeof(double)),
                               active_config().pool};
  void* raw = release.pooled
                  ? BufferPool::instance().allocate(release.bytes)
                  : std::aligned_alloc(kBufferAlignment, release.bytes);
  SACPP_REQUIRE(raw != nullptr, "row scratch allocation failed");
  return ScratchBlock(static_cast<double*>(raw), release);
}

}  // namespace sacpp::sac
