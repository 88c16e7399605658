#include "sacpp/sac/backend.hpp"

#include <atomic>

namespace sacpp::sac {
namespace {

// What kSimd resolves to under a detail::ScopedSimdOverride (nullptr: none).
std::atomic<const Backend*> simd_override{nullptr};

}  // namespace

bool cpu_has_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

// Default fused row: this engine's own two-pass sequence through the
// caller's scratch — the exact calls the planes stencil engine issued
// before the primitive existed, so composing engines are unchanged
// bit-for-bit and only fusing engines (the JIT) override.
void Backend::stencil_row(const double* c, const double* uc, const double* im,
                          const double* ip, const double* jm, const double* jp,
                          const double* imm, const double* imp,
                          const double* ipm, const double* ipp, double* u1,
                          double* u2, double* out, extent_t lo, extent_t hi,
                          extent_t n, bool accumulate) const {
  plane_sums(im, ip, jm, jp, imm, imp, ipm, ipp, u1, u2, n);
  if (accumulate) {
    accumulate_row(c, uc, u1, u2, out, lo, hi);
  } else {
    combine_row(c, uc, u1, u2, out, lo, hi);
  }
}

const Backend& backend_for(BackendKind kind) {
  switch (kind) {
    case BackendKind::kScalar:
      return detail::scalar_backend();
    case BackendKind::kSimd: {
      const Backend* pinned = simd_override.load();
      return pinned != nullptr ? *pinned : detail::simd_backend();
    }
    case BackendKind::kJit:
      return detail::jit_backend();
  }
  return detail::scalar_backend();
}

namespace detail {

ScopedSimdOverride::ScopedSimdOverride(const Backend* engine) noexcept
    : prev_(simd_override.exchange(engine)) {}

ScopedSimdOverride::~ScopedSimdOverride() { simd_override.store(prev_); }

}  // namespace detail

}  // namespace sacpp::sac
