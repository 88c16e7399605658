// The kJit engine (docs/jit.md): every row primitive first asks the kernel
// cache for a compiled kernel specialised on this call's shape — length,
// sub-range, stride, coefficient bit patterns — and runs it when ready.
// Until the kernel lands (or forever, when the host has no toolchain) the
// row runs on this host's kSimd instance instead.  Both paths are
// bit-identical by the backend contract, so the hot swap is invisible to
// numerics; stats().jit_kernel_calls / jit_fallback_calls make it visible
// to observability.

#include <cstring>

#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/jit.hpp"
#include "sacpp/sac/stats.hpp"

namespace sacpp::sac {
namespace {

using jit::KernelFn;
using jit::KernelKey;
using jit::RowProgram;

// KernelKey::prim tags.  Part of the in-memory key only (the disk name
// keys on the IR hash), so renumbering costs one warm cache.
enum Prim : std::uint8_t {
  kPrimPlaneSums = 1,
  kPrimCombine,
  kPrimStencil,
  kPrimAddInto,
  kPrimSubInto,
  kPrimMulInto,
  kPrimGather,
  kPrimScatter,
  kPrimSumSq,
  kPrimMaxAbs,
};

// Rows shorter than this never pay for kernel dispatch: at the bottom of
// the V-cycle the cache probe would cost more than the row.  Fallback is
// bit-identical, so the cutoff is a pure performance knob.
constexpr std::int64_t kMinRow = 16;

// Stencil kernels keep the u1/u2 partials in registers (AVX-512 hosts) or
// stack arrays of 2n doubles (portable lowering); cap n so generated
// frames stay small either way.  Larger rows fall back.
constexpr std::int64_t kMaxStencilRow = 4096;

void key_coeffs(const KernelKey& k, double c[4]) {
  std::memcpy(c, k.c, sizeof k.c);
}

// Per-thread last-kernel memo, one slot per primitive tag.  MG calls the
// same kernel shape for every row of a slab, so after the first row the
// dispatch cost collapses to one epoch load and one key compare — the
// cache's hash-and-probe only runs again when the shape changes.  The
// epoch guard drops the memo when the cache is reset or degrades, so a
// stale pointer can never outlive the decision that invalidated it.
struct Memo {
  KernelKey key{};
  KernelFn fn = nullptr;
  std::uint32_t epoch = 0;
};

KernelFn memo_request(const KernelKey& k,
                      RowProgram (*make)(const KernelKey&)) {
  thread_local Memo memo[16];
  Memo& m = memo[k.prim & 15];
  const std::uint32_t ep = jit::epoch();
  if (m.fn != nullptr && m.epoch == ep && m.key == k) return m.fn;
  KernelFn f = jit::request(k, make);
  if (f != nullptr) {
    m.key = k;
    m.fn = f;
    m.epoch = ep;
  }
  return f;
}

RowProgram make_plane_sums_prog(const KernelKey& k) {
  return jit::make_plane_sums(k.length);
}

RowProgram make_combine_prog(const KernelKey& k) {
  double c[4];
  key_coeffs(k, c);
  return jit::make_combine(c, k.accumulate != 0, k.length);
}

RowProgram make_stencil_prog(const KernelKey& k) {
  double c[4];
  key_coeffs(k, c);
  return jit::make_stencil_row(c, k.accumulate != 0, k.lo, k.hi, k.length);
}

RowProgram make_add_prog(const KernelKey& k) {
  return jit::make_ewise(jit::Op::kAdd, k.length);
}
RowProgram make_sub_prog(const KernelKey& k) {
  return jit::make_ewise(jit::Op::kSub, k.length);
}
RowProgram make_mul_prog(const KernelKey& k) {
  return jit::make_ewise(jit::Op::kMul, k.length);
}

RowProgram make_gather_prog(const KernelKey& k) {
  return jit::make_gather(k.stride, k.length);
}
RowProgram make_scatter_prog(const KernelKey& k) {
  return jit::make_scatter(k.stride, k.length);
}

RowProgram make_sum_sq_prog(const KernelKey& k) {
  return jit::make_sum_sq(k.length);
}
RowProgram make_max_abs_prog(const KernelKey& k) {
  return jit::make_max_abs(k.length);
}

class JitBackend final : public Backend {
 public:
  JitBackend() : fb_(detail::simd_backend()) {}

  const char* name() const noexcept override { return "jit"; }
  unsigned lanes() const noexcept override { return fb_.lanes(); }
  bool vectorized() const noexcept override { return true; }
  bool jit() const noexcept override { return true; }

  void fill_row(double* out, extent_t lo, extent_t hi,
                double v) const override {
    fb_.fill_row(out, lo, hi, v);  // memset-class; nothing to specialise
  }

  void copy_row(double* out, const double* src, extent_t lo,
                extent_t hi) const override {
    fb_.copy_row(out, src, lo, hi);  // memcpy-class; nothing to specialise
  }

  void plane_sums(const double* im, const double* ip, const double* jm,
                  const double* jp, const double* imm, const double* imp,
                  const double* ipm, const double* ipp, double* u1,
                  double* u2, extent_t n) const override {
    if (n >= kMinRow) {
      KernelKey k;
      k.prim = kPrimPlaneSums;
      k.length = n;
      if (KernelFn f = memo_request(k, make_plane_sums_prog)) {
        const double* in[8] = {im, ip, jm, jp, imm, imp, ipm, ipp};
        double* out[2] = {u1, u2};
        f(in, out, nullptr, nullptr);
        stats().jit_kernel_calls.bump();
        return;
      }
    }
    stats().jit_fallback_calls.bump();
    fb_.plane_sums(im, ip, jm, jp, imm, imp, ipm, ipp, u1, u2, n);
  }

  void combine_row(const double* c, const double* uc, const double* u1,
                   const double* u2, double* out, extent_t lo,
                   extent_t hi) const override {
    combine_impl(c, uc, u1, u2, out, lo, hi, false);
  }

  void accumulate_row(const double* c, const double* uc, const double* u1,
                      const double* u2, double* out, extent_t lo,
                      extent_t hi) const override {
    combine_impl(c, uc, u1, u2, out, lo, hi, true);
  }

  // Compiled: the unmerged row and the in-place add (out += s) over rows
  // read as they are.  Every other merge, and any row whose ends are read
  // elsewhere, is the simd instance's, uncounted like the interp rows.
  using Backend::stencil_row;
  void stencil_row(const StencilRow& r) const override {
    const bool accumulate = r.merge == RowMerge::kAdd && r.a == r.out;
    if ((r.merge != RowMerge::kAssign && !accumulate) || r.km != r.lo - 1 ||
        r.kp != r.hi) {
      fb_.stencil_row(r);
      return;
    }
    const extent_t n = r.n;
    if (n >= kMinRow && n <= kMaxStencilRow && r.hi > r.lo) {
      KernelKey k;
      k.prim = kPrimStencil;
      k.accumulate = accumulate ? 1 : 0;
      k.length = n;
      k.lo = r.lo;
      k.hi = r.hi;
      std::memcpy(k.c, r.c, sizeof k.c);
      if (KernelFn f = memo_request(k, make_stencil_prog)) {
        const double* const* s = r.src;
        const double* in[9] = {s[1], s[2], s[3], s[4], s[5],
                               s[6], s[7], s[8], s[0]};
        double* o[1] = {r.out};
        f(in, o, nullptr, nullptr);
        stats().jit_kernel_calls.bump();
        return;
      }
    }
    stats().jit_fallback_calls.bump();
    fb_.stencil_row(r);
  }

  void add_into_row(const double* a, double* out, extent_t lo,
                    extent_t hi) const override {
    if (!ewise_impl(kPrimAddInto, make_add_prog, a, out, lo, hi)) {
      fb_.add_into_row(a, out, lo, hi);
    }
  }

  void sub_into_row(const double* a, double* out, extent_t lo,
                    extent_t hi) const override {
    if (!ewise_impl(kPrimSubInto, make_sub_prog, a, out, lo, hi)) {
      fb_.sub_into_row(a, out, lo, hi);
    }
  }

  void mul_into_row(const double* a, double* out, extent_t lo,
                    extent_t hi) const override {
    if (!ewise_impl(kPrimMulInto, make_mul_prog, a, out, lo, hi)) {
      fb_.mul_into_row(a, out, lo, hi);
    }
  }

  void gather_row(double* out, const double* src, extent_t stride,
                  extent_t n) const override {
    if (n >= kMinRow) {
      KernelKey k;
      k.prim = kPrimGather;
      k.length = n;
      k.stride = stride;
      if (KernelFn f = memo_request(k, make_gather_prog)) {
        const double* in[1] = {src};
        double* o[1] = {out};
        f(in, o, nullptr, nullptr);
        stats().jit_kernel_calls.bump();
        return;
      }
    }
    stats().jit_fallback_calls.bump();
    fb_.gather_row(out, src, stride, n);
  }

  void scatter_row(double* out, extent_t stride, const double* src,
                   extent_t n) const override {
    if (n >= kMinRow) {
      KernelKey k;
      k.prim = kPrimScatter;
      k.length = n;
      k.stride = stride;
      if (KernelFn f = memo_request(k, make_scatter_prog)) {
        const double* in[1] = {src};
        double* o[1] = {out};
        f(in, o, nullptr, nullptr);
        stats().jit_kernel_calls.bump();
        return;
      }
    }
    stats().jit_fallback_calls.bump();
    fb_.scatter_row(out, stride, src, n);
  }

  // No generated form: the interp rows are the simd engine's, uncounted
  // like the fills and copies.
  void sum_rows(const double* a, const double* b, const double* c,
                const double* d, double* w, extent_t n) const override {
    fb_.sum_rows(a, b, c, d, w, n);
  }

  void interp_row(double ca, double cb, const double* w, double* out,
                  extent_t lo, extent_t hi) const override {
    fb_.interp_row(ca, cb, w, out, lo, hi);
  }

  double sum_sq_row(double acc, const double* p, extent_t lo,
                    extent_t hi) const override {
    if (hi - lo >= kMinRow) {
      KernelKey k;
      k.prim = kPrimSumSq;
      k.length = hi - lo;
      if (KernelFn f = memo_request(k, make_sum_sq_prog)) {
        const double* in[1] = {p + lo};
        const double dargs[1] = {acc};
        double dres[1];
        f(in, nullptr, dargs, dres);
        stats().jit_kernel_calls.bump();
        return dres[0];
      }
    }
    stats().jit_fallback_calls.bump();
    return fb_.sum_sq_row(acc, p, lo, hi);
  }

  double max_abs_row(double acc, const double* p, extent_t lo,
                     extent_t hi) const override {
    if (hi - lo >= kMinRow) {
      KernelKey k;
      k.prim = kPrimMaxAbs;
      k.length = hi - lo;
      if (KernelFn f = memo_request(k, make_max_abs_prog)) {
        const double* in[1] = {p + lo};
        const double dargs[1] = {acc};
        double dres[1];
        f(in, nullptr, dargs, dres);
        stats().jit_kernel_calls.bump();
        return dres[0];
      }
    }
    stats().jit_fallback_calls.bump();
    return fb_.max_abs_row(acc, p, lo, hi);
  }

 private:
  void combine_impl(const double* c, const double* uc, const double* u1,
                    const double* u2, double* out, extent_t lo, extent_t hi,
                    bool accumulate) const {
    if (hi - lo >= kMinRow) {
      KernelKey k;
      k.prim = kPrimCombine;
      k.accumulate = accumulate ? 1 : 0;
      k.length = hi - lo;
      std::memcpy(k.c, c, sizeof k.c);
      if (KernelFn f = memo_request(k, make_combine_prog)) {
        const double* in[3] = {uc + lo, u1 + lo, u2 + lo};
        double* o[1] = {out + lo};
        f(in, o, nullptr, nullptr);
        stats().jit_kernel_calls.bump();
        return;
      }
    }
    stats().jit_fallback_calls.bump();
    if (accumulate) {
      fb_.accumulate_row(c, uc, u1, u2, out, lo, hi);
    } else {
      fb_.combine_row(c, uc, u1, u2, out, lo, hi);
    }
  }

  bool ewise_impl(std::uint8_t prim, RowProgram (*make)(const KernelKey&),
                  const double* a, double* out, extent_t lo,
                  extent_t hi) const {
    if (hi - lo >= kMinRow) {
      KernelKey k;
      k.prim = prim;
      k.length = hi - lo;
      if (KernelFn f = memo_request(k, make)) {
        const double* in[2] = {a + lo, out + lo};
        double* o[1] = {out + lo};
        f(in, o, nullptr, nullptr);
        stats().jit_kernel_calls.bump();
        return true;
      }
    }
    stats().jit_fallback_calls.bump();
    return false;
  }

  const Backend& fb_;  // this host's kSimd instance
};

}  // namespace

namespace detail {
const Backend& jit_backend() noexcept {
  static const JitBackend be;
  return be;
}
}  // namespace detail

}  // namespace sacpp::sac
