// The kSimd engine: every row loop written once, compiled per instruction
// set.
//
// Each loop body below is plain C++ over __restrict parameters (plus
// `#pragma GCC ivdep` where an output may legally be an input of the same
// element).  The bodies are force-inlined into one thin entry point per
// instruction set: Avx2::run carries [[gnu::target("avx2")]] so the
// translation unit still builds at the baseline -march, and Baseline::run
// compiles at that baseline.  The vectorizer turns each body into the
// target's vector loop plus a remainder, and the instances are
// bit-identical to each other by construction:
//  * element-parallel loops compute every element with the scalar
//    reference's association order (so they are bit-identical to kScalar
//    too), whatever width the vectorizer picks and wherever it splits off
//    the remainder;
//  * the two folds accumulate into four explicit lanes (element lo+n lands
//    in lane n%4) and combine them in the fixed order ((l0+l1)+l2)+l3, so
//    the vectorizer may widen the lane updates but never reorder a lane's
//    sum;
//  * no FMA: the build pins -ffp-contract=off on this file.
// kSimd resolves to the AVX2 instance when the CPU has AVX2, else to the
// baseline one (simd_backend below).

#include <cmath>
#include <cstring>
#include <functional>

#include "sacpp/sac/backend.hpp"

namespace sacpp::sac {
namespace {

// -- element-parallel rows (association order == kScalar) --------------------

[[gnu::always_inline]] inline void fill_body(double* __restrict out,
                                             extent_t lo, extent_t hi,
                                             double v) {
  for (extent_t k = lo; k < hi; ++k) out[k] = v;
}

[[gnu::always_inline]] inline void copy_body(double* __restrict out,
                                             const double* __restrict src,
                                             extent_t lo, extent_t hi) {
  if (hi > lo) {
    std::memcpy(out + lo, src,
                static_cast<std::size_t>(hi - lo) * sizeof(double));
  }
}

[[gnu::always_inline]] inline void plane_sums_body(
    const double* __restrict im, const double* __restrict ip,
    const double* __restrict jm, const double* __restrict jp,
    const double* __restrict imm, const double* __restrict imp,
    const double* __restrict ipm, const double* __restrict ipp,
    double* __restrict u1, double* __restrict u2, extent_t n) {
  for (extent_t k = 0; k < n; ++k) {
    u1[k] = ((im[k] + ip[k]) + jm[k]) + jp[k];
    u2[k] = ((imm[k] + imp[k]) + ipm[k]) + ipp[k];
  }
}

template <bool kAccumulate>
[[gnu::always_inline]] inline void combine_body(
    const double* __restrict c, const double* __restrict uc,
    const double* __restrict u1, const double* __restrict u2,
    double* __restrict out, extent_t lo, extent_t hi) {
  const double c0 = c[0], c1 = c[1], c2 = c[2], c3 = c[3];
  for (extent_t k = lo; k < hi; ++k) {
    const double r = c0 * uc[k] + c1 * ((u1[k] + uc[k - 1]) + uc[k + 1]) +
                     c2 * ((u2[k] + u1[k - 1]) + u1[k + 1]) +
                     c3 * (u2[k - 1] + u2[k + 1]);
    if constexpr (kAccumulate) {
      out[k] += r;
    } else {
      out[k] = r;
    }
  }
}

// The fused stencil row (StencilRow): the plane sums into the scratch, then
// one loop that combines and merges.  A row read as it is sums [lo-1, hi+1)
// and runs that loop over all of [lo, hi); a row whose ends are read
// elsewhere sums [lo, hi), takes the two end sums apart and peels its first
// and last points off the loop.  Every point runs the same expression, so
// the peeled points keep the vector lanes' bits.  The scratch is indexed
// from the first sum, which keeps its stores aligned with the block.  `a`
// and `b` may be `out` itself, so they are not __restrict; each point
// reads their element at its own index before writing it.
template <RowMerge M>
[[gnu::always_inline]] inline void stencil_row_body(const StencilRow* row) {
  const StencilRow& r = *row;
  const extent_t lo = r.lo, hi = r.hi;
  if (hi <= lo) return;
  const double* __restrict uc = r.src[0];
  const double* __restrict im = r.src[1];
  const double* __restrict ip = r.src[2];
  const double* __restrict jm = r.src[3];
  const double* __restrict jp = r.src[4];
  const double* __restrict imm = r.src[5];
  const double* __restrict imp = r.src[6];
  const double* __restrict ipm = r.src[7];
  const double* __restrict ipp = r.src[8];
  double* __restrict u1 = r.u1;
  double* __restrict u2 = r.u2;
  const double c0 = r.c[0], c1 = r.c[1], c2 = r.c[2], c3 = r.c[3];
  auto point = [=](double cm, double c, double cp, double s1m, double s1,
                   double s1p, double s2m, double s2, double s2p) {
    return c0 * c + c1 * ((s1 + cm) + cp) + c2 * ((s2 + s1m) + s1p) +
           c3 * (s2m + s2p);
  };
  const double* a = r.a;
  const double* b = r.b;
  double* out = r.out;
  const extent_t km = r.km, kp = r.kp;
  if (km == lo - 1 && kp == hi) {
    // u1[t], u2[t]: the sums at position lo - 1 + t.
    plane_sums_body(im + km, ip + km, jm + km, jp + km, imm + km, imp + km,
                    ipm + km, ipp + km, u1, u2, hi - lo + 2);
#pragma GCC ivdep
    for (extent_t k = lo; k < hi; ++k) {
      const extent_t t = k - km;
      merge_point<M>(out, a, b, k,
                     point(uc[k - 1], uc[k], uc[k + 1], u1[t - 1], u1[t],
                           u1[t + 1], u2[t - 1], u2[t], u2[t + 1]));
    }
    return;
  }
  // u1[t], u2[t]: the sums at position lo + t.
  plane_sums_body(im + lo, ip + lo, jm + lo, jp + lo, imm + lo, imp + lo,
                  ipm + lo, ipp + lo, u1, u2, hi - lo);
  // The end sums: summed already when km and kp lie in [lo, hi), as they
  // do for a periodic border and for the wrap maps.
  auto sum1 = [&](extent_t x) {
    return x >= lo && x < hi ? u1[x - lo] : ((im[x] + ip[x]) + jm[x]) + jp[x];
  };
  auto sum2 = [&](extent_t x) {
    return x >= lo && x < hi ? u2[x - lo]
                             : ((imm[x] + imp[x]) + ipm[x]) + ipp[x];
  };
  const double ucm = uc[km], ucp = uc[kp];
  const double u1m = sum1(km), u1p = sum1(kp);
  const double u2m = sum2(km), u2p = sum2(kp);
  const extent_t last = hi - lo - 1;  // the last point's t
  if (last == 0) {
    merge_point<M>(out, a, b, lo,
                   point(ucm, uc[lo], ucp, u1m, u1[0], u1p, u2m, u2[0], u2p));
    return;
  }
  merge_point<M>(out, a, b, lo,
                 point(ucm, uc[lo], uc[lo + 1], u1m, u1[0], u1[1], u2m, u2[0],
                       u2[1]));
#pragma GCC ivdep
  for (extent_t t = 1; t < last; ++t) {
    const extent_t k = lo + t;
    merge_point<M>(out, a, b, k,
                   point(uc[k - 1], uc[k], uc[k + 1], u1[t - 1], u1[t],
                         u1[t + 1], u2[t - 1], u2[t], u2[t + 1]));
  }
  merge_point<M>(out, a, b, hi - 1,
                 point(uc[hi - 2], uc[hi - 1], ucp, u1[last - 1], u1[last],
                       u1p, u2[last - 1], u2[last], u2p));
}

// out[k] = a[k] <op> out[k].  `a` may be `out` itself, so no __restrict;
// each element still reads only its own index.
template <typename Op>
[[gnu::always_inline]] inline void ewise_body(const double* a, double* out,
                                              extent_t lo, extent_t hi) {
#pragma GCC ivdep
  for (extent_t k = lo; k < hi; ++k) out[k] = Op{}(a[k], out[k]);
}

// The strided rows.  The vectorizer's cost model rejects a runtime stride
// as never profitable; a literal 2, the grid transfers' stride, lets it
// use shuffles instead.
[[gnu::always_inline]] inline void gather_body(double* __restrict out,
                                               const double* __restrict src,
                                               extent_t stride, extent_t n) {
  if (stride == 2) {
    for (extent_t t = 0; t < n; ++t) out[t] = src[2 * t];
  } else {
    for (extent_t t = 0; t < n; ++t) out[t] = src[t * stride];
  }
}

[[gnu::always_inline]] inline void scatter_body(double* __restrict out,
                                                extent_t stride,
                                                const double* __restrict src,
                                                extent_t n) {
  if (stride == 2) {
    for (extent_t t = 0; t < n; ++t) out[2 * t] = src[t];
  } else {
    for (extent_t t = 0; t < n; ++t) out[t * stride] = src[t];
  }
}

[[gnu::always_inline]] inline void sum_rows_body(
    const double* __restrict a, const double* __restrict b,
    const double* __restrict c, const double* __restrict d,
    double* __restrict w, extent_t n) {
  if (c == nullptr) {
    for (extent_t t = 0; t < n; ++t) w[t] = a[t] + b[t];
  } else {
    for (extent_t t = 0; t < n; ++t) w[t] = ((a[t] + b[t]) + c[t]) + d[t];
  }
}

// An odd first or even last position is peeled off, so the loop stores
// whole (even, odd) pairs, which the vectorizer interleaves with shuffles.
[[gnu::always_inline]] inline void interp_body(double ca, double cb,
                                               const double* __restrict w,
                                               double* __restrict out,
                                               extent_t lo, extent_t hi) {
  if (hi <= lo) return;
  extent_t k = lo;
  if (k % 2 != 0) {
    out[k] = cb * (w[k / 2] + w[k / 2 + 1]);
    ++k;
  }
  const extent_t pairs = (hi - k) / 2;
  const double* __restrict wt = w + k / 2;
  double* __restrict o = out + k;
  for (extent_t t = 0; t < pairs; ++t) {
    o[2 * t] = ca * wt[t];
    o[2 * t + 1] = cb * (wt[t] + wt[t + 1]);
  }
  k += 2 * pairs;
  if (k < hi) out[k] = ca * w[k / 2];
}

// -- the 4-lane folds (the lane contract of backend.hpp) ---------------------
//
// A lane past `hi` would add the neutral 0.0, which leaves its sum of
// squares (never -0.0) or running max-abs unchanged, so the tail skips it.

[[gnu::always_inline]] inline double sum_sq_body(double acc,
                                                 const double* __restrict p,
                                                 extent_t lo, extent_t hi) {
  double l[4] = {0.0, 0.0, 0.0, 0.0};
  extent_t k = lo;
  for (; k + 4 <= hi; k += 4) {
    for (int j = 0; j < 4; ++j) l[j] = l[j] + p[k + j] * p[k + j];
  }
  for (int j = 0; k + j < hi; ++j) l[j] = l[j] + p[k + j] * p[k + j];
  return acc + (((l[0] + l[1]) + l[2]) + l[3]);
}

// maxpd's semantics (the second operand wins on ties and NaN), the same
// form the JIT's generated folds use, so every engine keeps one NaN rule.
inline double lane_max(double a, double b) { return a > b ? a : b; }

[[gnu::always_inline]] inline double max_abs_body(double acc,
                                                  const double* __restrict p,
                                                  extent_t lo, extent_t hi) {
  double l[4] = {0.0, 0.0, 0.0, 0.0};
  extent_t k = lo;
  for (; k + 4 <= hi; k += 4) {
    for (int j = 0; j < 4; ++j) l[j] = lane_max(l[j], std::fabs(p[k + j]));
  }
  for (int j = 0; k + j < hi; ++j) l[j] = lane_max(l[j], std::fabs(p[k + j]));
  return lane_max(lane_max(lane_max(lane_max(acc, l[0]), l[1]), l[2]), l[3]);
}

// -- one engine, one thin entry point per instruction set --------------------

// `row` is the fused stencil row's entry (Backend::StencilRowFn), the
// same thin wrapper over one merge's body.
struct Baseline {
  static constexpr const char* kName = "portable";
  template <auto Body, typename... Args>
  static auto run(Args... args) {
    return Body(args...);
  }
  template <auto Body>
  static void row(const Backend&, const StencilRow& r) {
    Body(&r);
  }
};

#if defined(__x86_64__) || defined(__i386__)
struct Avx2 {
  static constexpr const char* kName = "avx2";
  template <auto Body, typename... Args>
  [[gnu::target("avx2")]] static auto run(Args... args) {
    return Body(args...);
  }
  template <auto Body>
  [[gnu::target("avx2")]] static void row(const Backend&,
                                          const StencilRow& r) {
    Body(&r);
  }
};
#endif

template <typename Isa>
class SimdBackend final : public Backend {
 public:
  const char* name() const noexcept override { return Isa::kName; }
  unsigned lanes() const noexcept override { return 4; }
  bool vectorized() const noexcept override { return true; }

  void fill_row(double* out, extent_t lo, extent_t hi,
                double v) const override {
    Isa::template run<fill_body>(out, lo, hi, v);
  }
  void copy_row(double* out, const double* src, extent_t lo,
                extent_t hi) const override {
    Isa::template run<copy_body>(out, src, lo, hi);
  }
  void plane_sums(const double* im, const double* ip, const double* jm,
                  const double* jp, const double* imm, const double* imp,
                  const double* ipm, const double* ipp, double* u1,
                  double* u2, extent_t n) const override {
    Isa::template run<plane_sums_body>(im, ip, jm, jp, imm, imp, ipm, ipp,
                                       u1, u2, n);
  }
  void combine_row(const double* c, const double* uc, const double* u1,
                   const double* u2, double* out, extent_t lo,
                   extent_t hi) const override {
    Isa::template run<combine_body<false>>(c, uc, u1, u2, out, lo, hi);
  }
  void accumulate_row(const double* c, const double* uc, const double* u1,
                      const double* u2, double* out, extent_t lo,
                      extent_t hi) const override {
    Isa::template run<combine_body<true>>(c, uc, u1, u2, out, lo, hi);
  }
  // One entry point per merge, so each keeps its own registers.
  using Backend::stencil_row;
  void stencil_row(const StencilRow& row) const override {
    stencil_row_fn(row.merge)(*this, row);
  }
  StencilRowFn stencil_row_fn(RowMerge merge) const override {
    switch (merge) {
      case RowMerge::kAssign:
        return &Isa::template row<stencil_row_body<RowMerge::kAssign>>;
      case RowMerge::kAdd:
        return &Isa::template row<stencil_row_body<RowMerge::kAdd>>;
      case RowMerge::kSub:
        return &Isa::template row<stencil_row_body<RowMerge::kSub>>;
      case RowMerge::kAddAdd:
        return &Isa::template row<stencil_row_body<RowMerge::kAddAdd>>;
    }
    return nullptr;
  }
  void add_into_row(const double* a, double* out, extent_t lo,
                    extent_t hi) const override {
    Isa::template run<ewise_body<std::plus<>>>(a, out, lo, hi);
  }
  void sub_into_row(const double* a, double* out, extent_t lo,
                    extent_t hi) const override {
    Isa::template run<ewise_body<std::minus<>>>(a, out, lo, hi);
  }
  void mul_into_row(const double* a, double* out, extent_t lo,
                    extent_t hi) const override {
    Isa::template run<ewise_body<std::multiplies<>>>(a, out, lo, hi);
  }
  void gather_row(double* out, const double* src, extent_t stride,
                  extent_t n) const override {
    Isa::template run<gather_body>(out, src, stride, n);
  }
  void scatter_row(double* out, extent_t stride, const double* src,
                   extent_t n) const override {
    Isa::template run<scatter_body>(out, stride, src, n);
  }
  void sum_rows(const double* a, const double* b, const double* c,
                const double* d, double* w, extent_t n) const override {
    Isa::template run<sum_rows_body>(a, b, c, d, w, n);
  }
  void interp_row(double ca, double cb, const double* w, double* out,
                  extent_t lo, extent_t hi) const override {
    Isa::template run<interp_body>(ca, cb, w, out, lo, hi);
  }
  double sum_sq_row(double acc, const double* p, extent_t lo,
                    extent_t hi) const override {
    return Isa::template run<sum_sq_body>(acc, p, lo, hi);
  }
  double max_abs_row(double acc, const double* p, extent_t lo,
                     extent_t hi) const override {
    return Isa::template run<max_abs_body>(acc, p, lo, hi);
  }
};

}  // namespace

namespace detail {

const Backend& portable_backend() noexcept {
  static const SimdBackend<Baseline> be;
  return be;
}

const Backend* avx2_backend() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  static const SimdBackend<Avx2> be;
  return cpu_has_avx2() ? &be : nullptr;
#else
  return nullptr;
#endif
}

const Backend& simd_backend() noexcept {
  static const Backend& be =
      avx2_backend() != nullptr ? *avx2_backend() : portable_backend();
  return be;
}

}  // namespace detail

}  // namespace sacpp::sac
