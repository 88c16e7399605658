#pragma once
// Pluggable compute backends for the dense-rank-3 row primitives.
//
// Every hot with-loop in the system eventually walks contiguous k-rows of a
// dense rank-3 array: the kPlanes stencil rows with their ewise merges
// (stencil.hpp, expr.hpp), the gather rows of the grid-transfer
// operators, and the L2/max-abs norm folds (with_loop.hpp).  A Backend is
// one implementation of those row primitives; with_loop/stencil/expr code
// dispatches through the interface instead of open-coding the loops, so a
// vectorized (or later JIT/GPU) engine slots in without touching the array
// system (docs/backends.md).
//
// Semantics contract (what makes cross-backend differential testing work):
//  * Element-parallel primitives — fills, plane sums, stencil combines,
//    ewise combines, copies, gathers, scatters — compute every output
//    element with exactly the scalar reference's association order.  They
//    are bit-identical across ALL backends, any row length, any sub-range.
//  * Row folds (sum_sq_row / max_abs_row) may reassociate — but only into
//    one fixed shape: four independent lane accumulators (element `lo + n`
//    goes to lane `n % 4`) combined in a fixed left-to-right order after
//    the row.  Results differ from kScalar only by rounding (tests pin
//    1e-12), but are identical across every vectorized engine: both kSimd
//    instances and the JIT perform the same 4-lane arithmetic (none emits
//    FMA), so kSimd and kJit folds are bit-identical across hosts.
//  * Row length and sub-range never change an element's arithmetic.  The
//    vector engines split a row into a vector body and a remainder at
//    whatever point their width dictates; both halves compute each element
//    (or fold lane) with the same operations in the same order, so every
//    split yields the same bits.  The fold lane of an element depends only
//    on its distance from `lo`.
//  * No output row overlaps an input row, except that the ewise merges'
//    `a` (and the fused stencil row's `a` and `b`) may be `out` itself: the
//    engines compile their loops on that promise.
//
// Backends are stateless singletons; a const Backend& is safe to use from
// any thread concurrently.

#include <cstddef>
#include <cstdint>

#include "sacpp/common/shape.hpp"
#include "sacpp/sac/config.hpp"

namespace sacpp::sac {

// How a fused stencil row merges the stencil value s(k) with the row's
// update operands (StencilRow).
enum class RowMerge : std::uint8_t {
  kAssign,  // out[k] = s(k)
  kAdd,     // out[k] = a[k] + s(k)
  kSub,     // out[k] = a[k] - s(k)
  kAddAdd,  // out[k] = b[k] + (a[k] + s(k))
};

// out[k] = merge(a[k], b[k], s): one point of a fused row.
template <RowMerge M>
[[gnu::always_inline]] inline void merge_point(double* out, const double* a,
                                               const double* b, extent_t k,
                                               double s) {
  if constexpr (M == RowMerge::kAssign) {
    out[k] = s;
  } else if constexpr (M == RowMerge::kAdd) {
    out[k] = a[k] + s;
  } else if constexpr (M == RowMerge::kSub) {
    out[k] = a[k] - s;
  } else {
    out[k] = b[k] + (a[k] + s);
  }
}

// The operands of one fused kPlanes output row (Backend::stencil_row).
// Every source row is readable on [0, n), and [lo, hi) lies in [0, n).
// The row's operands at position p are read at source position x(p): p
// itself on [lo, hi), km at p = lo - 1 and kp at p = hi.  A copy-free view
// or a periodic wrap map that moves only the two ends of its last axis is
// read through km and kp; an unmapped row passes lo - 1 and hi.  Then
//   u1(p) = ((im[x] + ip[x]) + jm[x]) + jp[x]
//   u2(p) = ((imm[x] + imp[x]) + ipm[x]) + ipp[x]
//   uc(p) = centre[x]
//   s(k)  = c[0]*uc(k) + c[1]*((u1(k) + uc(k-1)) + uc(k+1))
//         + c[2]*((u2(k) + u1(k-1)) + u1(k+1)) + c[3]*(u2(k-1) + u2(k+1))
// for k in [lo, hi), merged into out[k] as `merge` says.
struct StencilRow {
  const double* c;       // the four class coefficients
  const double* src[9];  // centre, im, ip, jm, jp, imm, imp, ipm, ipp
  extent_t n;
  extent_t lo, hi;
  extent_t km, kp;
  // Scratch rows of n elements each, the engine's to use: the plane sums
  // (u1, u2) and, for the composing engine's merges over an aliased
  // output, the stencil value (t; nullptr is fine for kAssign and the
  // in-place kAdd).
  double* u1;
  double* u2;
  double* t;
  RowMerge merge;
  const double* a;  // readable on [lo, hi) unless merge == kAssign
  const double* b;  // readable on [lo, hi) when merge == kAddAdd
  double* out;
};

class Backend {
 public:
  virtual ~Backend() = default;

  // Resolved implementation name ("scalar" | "avx2" | "portable" | "jit")
  // — what the engine actually is, as opposed to backend_name(kind), which
  // names the selection policy.
  virtual const char* name() const noexcept = 0;

  // Fold lanes: 1 for scalar, 4 for every vectorized engine (the fixed
  // 4-lane fold structure above).  The element-parallel loops run at
  // whatever width the engine's instruction set gives them.
  virtual unsigned lanes() const noexcept = 0;

  // True for the vectorized engines; drives stats().backend_simd_rows and
  // the row paths that only pay off when rows are vector-processed.
  virtual bool vectorized() const noexcept = 0;

  // True for the runtime code-generation engine (docs/jit.md); lets callers
  // and stats distinguish it from the fixed SIMD engines it falls back to.
  virtual bool jit() const noexcept { return false; }

  // -- element-parallel row primitives (bit-identical across backends) ------

  // out[k] = v for k in [lo, hi).
  virtual void fill_row(double* out, extent_t lo, extent_t hi,
                        double v) const = 0;

  // out[k] = src[k - lo] for k in [lo, hi)  (contiguous copy).
  virtual void copy_row(double* out, const double* src, extent_t lo,
                        extent_t hi) const = 0;

  // The kPlanes partial sums (docs/stencil.md), for k in [0, n):
  //   u1[k] = ((im[k] + ip[k]) + jm[k]) + jp[k]
  //   u2[k] = ((imm[k] + imp[k]) + ipm[k]) + ipp[k]
  virtual void plane_sums(const double* im, const double* ip,
                          const double* jm, const double* jp,
                          const double* imm, const double* imp,
                          const double* ipm, const double* ipp, double* u1,
                          double* u2, extent_t n) const = 0;

  // Per-point stencil combine over a row, for k in [lo, hi):
  //   r(k) = c[0]*uc[k] + c[1]*((u1[k] + uc[k-1]) + uc[k+1])
  //        + c[2]*((u2[k] + u1[k-1]) + u1[k+1]) + c[3]*(u2[k-1] + u2[k+1])
  //   combine_row:    out[k]  = r(k)
  //   accumulate_row: out[k] += r(k)
  // The caller guarantees uc/u1/u2 are readable on [lo-1, hi+1).
  virtual void combine_row(const double* c, const double* uc,
                           const double* u1, const double* u2, double* out,
                           extent_t lo, extent_t hi) const = 0;
  virtual void accumulate_row(const double* c, const double* uc,
                              const double* u1, const double* u2, double* out,
                              extent_t lo, extent_t hi) const = 0;

  // One fused kPlanes output row (StencilRow): plane sums, combine and
  // merge in one call.  The default composes this engine's own plane_sums,
  // combine_row/accumulate_row and add/sub_into_row through the scratch
  // rows, the two points next to the row ends written one by one; it is
  // the scalar engine's form and the reference every engine is pinned to.
  // Overrides must stay bit-identical to it and may leave the scratch
  // untouched.
  virtual void stencil_row(const StencilRow& row) const;

  // The fused row for one merge as a plain function, for callers that
  // issue many rows: they bind it once and call it per row, be == *this.
  // The default calls stencil_row above; an engine may hand out its own
  // per-merge entry instead.
  using StencilRowFn = void (*)(const Backend& be, const StencilRow& row);
  virtual StencilRowFn stencil_row_fn(RowMerge merge) const;

  // The unmerged row over unmapped source rows of length n: out[lo, hi)
  // gets s(k) (or adds it, `accumulate`), the u1/u2 scratch readable on
  // [0, n).  A thin form of the call above, kept for callers that time one
  // bare row.
  void stencil_row(const double* c, const double* uc, const double* im,
                   const double* ip, const double* jm, const double* jp,
                   const double* imm, const double* imp, const double* ipm,
                   const double* ipp, double* u1, double* u2, double* out,
                   extent_t lo, extent_t hi, extent_t n,
                   bool accumulate) const;

  // Ewise combines, for k in [lo, hi): out[k] = a[k] <op> out[k].
  virtual void add_into_row(const double* a, double* out, extent_t lo,
                            extent_t hi) const = 0;
  virtual void sub_into_row(const double* a, double* out, extent_t lo,
                            extent_t hi) const = 0;
  virtual void mul_into_row(const double* a, double* out, extent_t lo,
                            extent_t hi) const = 0;

  // Restriction inner row (lazy_condense over rows): out[t] = src[t*stride]
  // for t in [0, n).
  virtual void gather_row(double* out, const double* src, extent_t stride,
                          extent_t n) const = 0;

  // Prolongation inner row (lazy_scatter over rows): out[t*stride] = src[t]
  // for t in [0, n).  Gap positions are the caller's business (pre-filled
  // with the expression default).
  virtual void scatter_row(double* out, extent_t stride, const double* src,
                           extent_t n) const = 0;

  // The polyphase prolongation rows: a stencil over a stride-2 scatter,
  // read straight from the scattered array (ScatterStencilExpr,
  // docs/stencil.md).
  //   sum_rows:   w[t] = a[t] + b[t], or ((a[t] + b[t]) + c[t]) + d[t] when
  //               c is given (d then too), for t in [0, n) — plane_sums'
  //               association of the source rows the stencil reads.
  //   interp_row: for k in [lo, hi) (lo >= 0), out[k] = ca * w[k/2] for
  //               even k and cb * (w[k/2] + w[k/2 + 1]) for odd k.
  virtual void sum_rows(const double* a, const double* b, const double* c,
                        const double* d, double* w, extent_t n) const = 0;
  virtual void interp_row(double ca, double cb, const double* w, double* out,
                          extent_t lo, extent_t hi) const = 0;

  // -- row folds (reassociate under vectorized backends; see contract) ------

  // Returns acc folded with sum of p[k]^2 over [lo, hi).
  virtual double sum_sq_row(double acc, const double* p, extent_t lo,
                            extent_t hi) const = 0;

  // Returns max(acc, max |p[k]| over [lo, hi)).  acc must be >= 0 (it is a
  // running max-abs, whose neutral element is 0).
  virtual double max_abs_row(double acc, const double* p, extent_t lo,
                             extent_t hi) const = 0;
};

// The engine a BackendKind resolves to on this host: kScalar is fixed;
// kSimd is the AVX2 instance of the vector engine when the CPU has AVX2
// (one cached CPUID probe), else its baseline instance; kJit is the
// code-generating engine, which itself falls back to that kSimd instance
// per row until a kernel is compiled.  Always returns a live singleton.
const Backend& backend_for(BackendKind kind);

// Whether this process can run the AVX2 instance (cached CPUID probe).
bool cpu_has_avx2() noexcept;

// The backend governing work on the calling thread: resolved from
// active_config().backend, so per-job config snapshots (serve) and
// ScopedConfig/SACPP_BACKEND all flow through it.
inline const Backend& active_backend() noexcept {
  return backend_for(active_config().backend);
}

namespace detail {
// The singleton engines (backend_scalar.cpp / backend_simd.cpp /
// backend_jit.cpp).  Exposed for the differential battery and the fuzz
// passes, which pin every kSimd instance present against scalar.
const Backend& scalar_backend() noexcept;
// The kSimd instances: one source compiled at the build's baseline
// ("portable") and for AVX2 ("avx2"; nullptr when the CPU lacks AVX2).
const Backend& portable_backend() noexcept;
const Backend* avx2_backend() noexcept;
// The instance kSimd resolves to on this host, ignoring any override.
const Backend& simd_backend() noexcept;
const Backend& jit_backend() noexcept;

// Test-only: while alive, kSimd resolves to `engine` (nullptr: this host's
// own instance).  Tests and fuzz passes use it to run whole kernels on the
// baseline instance on AVX2 hosts; no env var, flag, config field or wire
// byte reaches it.  Process-wide and nestable; the pointer is atomic, so
// worker threads read it race-free.
class ScopedSimdOverride {
 public:
  explicit ScopedSimdOverride(const Backend* engine) noexcept;
  ~ScopedSimdOverride();
  ScopedSimdOverride(const ScopedSimdOverride&) = delete;
  ScopedSimdOverride& operator=(const ScopedSimdOverride&) = delete;

 private:
  const Backend* prev_;
};
}  // namespace detail

}  // namespace sacpp::sac
