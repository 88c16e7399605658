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

// The composed fused row: this engine's own primitives through the
// scratch rows.  The plane sums and the combine run on [lo, hi) and
// [lo + 1, hi - 1); the two points next to the ends read the end operands
// at km and kp and are combined here in combine_row's order.  The stencil
// value lands in `out` itself unless out is a merge operand other than the
// in-place kAdd's, which accumulates; then it goes to `t` and is merged and
// copied back.
void Backend::stencil_row(const StencilRow& r) const {
  const extent_t lo = r.lo, hi = r.hi;
  if (hi <= lo) return;
  const double* const* s = r.src;
  const double* uc = s[0];
  plane_sums(s[1] + lo, s[2] + lo, s[3] + lo, s[4] + lo, s[5] + lo,
             s[6] + lo, s[7] + lo, s[8] + lo, r.u1 + lo, r.u2 + lo, hi - lo);
  auto sum1 = [&](extent_t x) { return ((s[1][x] + s[2][x]) + s[3][x]) + s[4][x]; };
  auto sum2 = [&](extent_t x) { return ((s[5][x] + s[6][x]) + s[7][x]) + s[8][x]; };
  // The operands at position p, the ends read at km and kp.
  auto at = [&](const double* row, double end_m, double end_p, extent_t p) {
    return p < lo ? end_m : p >= hi ? end_p : row[p];
  };
  const double ucm = uc[r.km], ucp = uc[r.kp];
  const double u1m = sum1(r.km), u1p = sum1(r.kp);
  const double u2m = sum2(r.km), u2p = sum2(r.kp);
  const double* c = r.c;
  auto point = [&](extent_t k) {
    return c[0] * uc[k] +
           c[1] * ((r.u1[k] + at(uc, ucm, ucp, k - 1)) + at(uc, ucm, ucp, k + 1)) +
           c[2] * ((r.u2[k] + at(r.u1, u1m, u1p, k - 1)) +
                   at(r.u1, u1m, u1p, k + 1)) +
           c[3] * (at(r.u2, u2m, u2p, k - 1) + at(r.u2, u2m, u2p, k + 1));
  };
  const bool accumulate = r.merge == RowMerge::kAdd && r.a == r.out;
  const bool aliased =
      r.merge != RowMerge::kAssign && !accumulate &&
      (r.a == r.out || (r.merge == RowMerge::kAddAdd && r.b == r.out));
  double* dst = aliased ? r.t : r.out;
  const extent_t ends[2] = {lo, hi - 1};
  for (const extent_t k : ends) {
    if (accumulate) {
      dst[k] += point(k);
    } else {
      dst[k] = point(k);
    }
    if (hi - lo == 1) break;
  }
  if (accumulate) {
    accumulate_row(c, uc, r.u1, r.u2, dst, lo + 1, hi - 1);
    return;
  }
  combine_row(c, uc, r.u1, r.u2, dst, lo + 1, hi - 1);
  if (r.merge == RowMerge::kAssign) return;
  if (r.merge == RowMerge::kSub) {
    sub_into_row(r.a, dst, lo, hi);
  } else {
    add_into_row(r.a, dst, lo, hi);
    if (r.merge == RowMerge::kAddAdd) add_into_row(r.b, dst, lo, hi);
  }
  if (aliased) copy_row(r.out, dst + lo, lo, hi);
}

Backend::StencilRowFn Backend::stencil_row_fn(RowMerge) const {
  return [](const Backend& be, const StencilRow& row) { be.stencil_row(row); };
}

void Backend::stencil_row(const double* c, const double* uc, const double* im,
                          const double* ip, const double* jm, const double* jp,
                          const double* imm, const double* imp,
                          const double* ipm, const double* ipp, double* u1,
                          double* u2, double* out, extent_t lo, extent_t hi,
                          extent_t n, bool accumulate) const {
  stencil_row(StencilRow{
      .c = c,
      .src = {uc, im, ip, jm, jp, imm, imp, ipm, ipp},
      .n = n,
      .lo = lo,
      .hi = hi,
      .km = lo - 1,
      .kp = hi,
      .u1 = u1,
      .u2 = u2,
      .t = nullptr,
      .merge = accumulate ? RowMerge::kAdd : RowMerge::kAssign,
      .a = out,
      .b = nullptr,
      .out = out});
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
