#pragma once
// Pluggable compute backends for the dense-rank-3 row primitives.
//
// Every hot with-loop in the system eventually walks contiguous k-rows of a
// dense rank-3 array: the kPlanes stencil engine (stencil.hpp), the fused
// EwiseBinaryExpr combine (expr.hpp), the gather rows of the grid-transfer
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
//    `a` may be `out` itself: the engines compile their loops on that
//    promise.
//
// Backends are stateless singletons; a const Backend& is safe to use from
// any thread concurrently.

#include <cstddef>

#include "sacpp/common/shape.hpp"
#include "sacpp/sac/config.hpp"

namespace sacpp::sac {

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

  // One fused kPlanes output row: the plane_sums over the eight neighbour
  // rows of centre row `uc` followed by the per-point combine (or
  // accumulate) into out[lo, hi) — the exact two-call sequence the planes
  // stencil engine used to issue, exposed as a single primitive so an
  // engine can fuse the two passes (the JIT backend generates one-pass row
  // kernels for it, docs/jit.md).  The default composes this engine's own
  // plane_sums and combine_row/accumulate_row through the caller's u1/u2
  // scratch (each readable on [0, n)); overrides must stay bit-identical to
  // that composition and may leave the scratch untouched.
  virtual void stencil_row(const double* c, const double* uc,
                           const double* im, const double* ip,
                           const double* jm, const double* jp,
                           const double* imm, const double* imp,
                           const double* ipm, const double* ipp, double* u1,
                           double* u2, double* out, extent_t lo, extent_t hi,
                           extent_t n, bool accumulate) const;

  // Fused ewise combines (the EwiseBinaryExpr row pass-through, expr.hpp):
  // for k in [lo, hi), out[k] = a[k] <op> out[k].
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
