// RowProgram builders + C++ lowering for the JIT backend (docs/jit.md).
//
// The builders replicate the scalar engine's expression trees node for
// node (backend_scalar.cpp); the lowering walks those trees back into C++
// with every parameter a literal.  The only transformation between the two
// is the +0.0-coefficient elision documented in jit_ir.hpp — everything
// else is a faithful round trip, which is what makes the differential
// battery's bitwise assertions hold.

#include <array>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "sacpp/sac/jit_ir.hpp"

namespace sacpp::sac::jit {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void put_u8(std::vector<std::uint8_t>& b, std::uint8_t v) { b.push_back(v); }

void put_i64(std::vector<std::uint8_t>& b, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    b.push_back(static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >>
                                          (8 * i)));
  }
}

// +0.0 exactly (not -0.0): the only coefficient value whose term the
// builders drop.
bool is_pos_zero(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof v);
  return bits == 0;
}

// The stencil combine r(k) with the scalar association
//   c0*uc[k] + c1*((u1[k]+uc[k-1])+uc[k+1])
//            + c2*((u2[k]+u1[k-1])+u1[k+1]) + c3*(u2[k-1]+u2[k+1])
// summed left-to-right over the surviving terms.  `u1`/`u2` are produced
// by `row1`/`row2`, node factories so the same shape serves the unfused
// combine (u1/u2 are input rows) and the fused stencil row (derived rows).
template <typename RowRefC, typename RowRef1, typename RowRef2>
std::int32_t build_combine_expr(RowProgram& p, const double c[4], RowRefC uc,
                                RowRef1 u1, RowRef2 u2) {
  std::int32_t terms[4] = {-1, -1, -1, -1};
  if (!is_pos_zero(c[0])) {
    terms[0] = p.bin(Op::kMul, p.constant(c[0]), uc(p, 0));
  }
  if (!is_pos_zero(c[1])) {
    std::int32_t g = p.bin(Op::kAdd, p.bin(Op::kAdd, u1(p, 0), uc(p, -1)),
                           uc(p, 1));
    terms[1] = p.bin(Op::kMul, p.constant(c[1]), g);
  }
  if (!is_pos_zero(c[2])) {
    std::int32_t g = p.bin(Op::kAdd, p.bin(Op::kAdd, u2(p, 0), u1(p, -1)),
                           u1(p, 1));
    terms[2] = p.bin(Op::kMul, p.constant(c[2]), g);
  }
  if (!is_pos_zero(c[3])) {
    std::int32_t g = p.bin(Op::kAdd, u2(p, -1), u2(p, 1));
    terms[3] = p.bin(Op::kMul, p.constant(c[3]), g);
  }
  std::int32_t expr = -1;
  for (std::int32_t t : terms) {
    if (t < 0) continue;
    expr = expr < 0 ? t : p.bin(Op::kAdd, expr, t);
  }
  // All four coefficients zero never happens in MG, but keep it total.
  return expr >= 0 ? expr : p.constant(0.0);
}

// u1[k] = ((in0+in1)+in2)+in3 — the plane-sum association.
std::int32_t build_plane_sum(RowProgram& p, int i0, int i1, int i2, int i3) {
  return p.bin(Op::kAdd,
               p.bin(Op::kAdd, p.bin(Op::kAdd, p.load(i0), p.load(i1)),
                     p.load(i2)),
               p.load(i3));
}

}  // namespace

std::vector<std::uint8_t> RowProgram::serialize() const {
  std::vector<std::uint8_t> b;
  b.reserve(64 + nodes.size() * 20);
  put_u8(b, 1);  // IR version — bump when lowering semantics change
  put_u8(b, static_cast<std::uint8_t>(pattern));
  put_u8(b, num_inputs);
  put_u8(b, num_outputs);
  put_u8(b, accumulate);
  put_u8(b, restrict_rows);
  put_i64(b, length);
  put_i64(b, lo);
  put_i64(b, hi);
  put_i64(b, stride);
  put_i64(b, static_cast<std::int64_t>(nodes.size()));
  for (const Node& n : nodes) {
    put_u8(b, static_cast<std::uint8_t>(n.op));
    put_i64(b, n.input);
    put_i64(b, n.offset);
    put_i64(b, static_cast<std::int64_t>(n.bits));
    put_i64(b, n.a);
    put_i64(b, n.b);
  }
  put_i64(b, static_cast<std::int64_t>(roots.size()));
  for (std::int32_t r : roots) put_i64(b, r);
  put_i64(b, static_cast<std::int64_t>(derived.size()));
  for (std::int32_t d : derived) put_i64(b, d);
  return b;
}

std::uint64_t RowProgram::hash() const {
  std::uint64_t h = kFnvOffset;
  for (std::uint8_t byte : serialize()) {
    h ^= byte;
    h *= kFnvPrime;
  }
  return h;
}

// -- builders ----------------------------------------------------------------

RowProgram make_plane_sums(std::int64_t n) {
  RowProgram p;
  p.pattern = Pattern::kMap;
  p.num_inputs = 8;
  p.num_outputs = 2;
  p.restrict_rows = 1;  // the nine stencil rows are pairwise disjoint
  p.length = n;
  p.roots.push_back(build_plane_sum(p, 0, 1, 2, 3));
  p.roots.push_back(build_plane_sum(p, 4, 5, 6, 7));
  return p;
}

RowProgram make_combine(const double c[4], bool accumulate, std::int64_t L) {
  RowProgram p;
  p.pattern = Pattern::kMap;
  p.num_inputs = 3;  // uc, u1, u2 — pre-offset, readable at -1..+1
  p.num_outputs = 1;
  p.accumulate = accumulate ? 1 : 0;
  p.restrict_rows = 1;
  p.length = L;
  auto in = [](int slot) {
    return [slot](RowProgram& q, int off) { return q.load(slot, off); };
  };
  p.roots.push_back(build_combine_expr(p, c, in(0), in(1), in(2)));
  return p;
}

RowProgram make_stencil_row(const double c[4], bool accumulate,
                            std::int64_t lo, std::int64_t hi,
                            std::int64_t n) {
  RowProgram p;
  p.pattern = Pattern::kStencil;
  p.num_inputs = 9;  // im, ip, jm, jp, imm, imp, ipm, ipp, uc
  p.num_outputs = 1;
  p.accumulate = accumulate ? 1 : 0;
  p.restrict_rows = 1;
  p.length = n;
  p.lo = lo;
  p.hi = hi;
  p.derived.push_back(build_plane_sum(p, 0, 1, 2, 3));
  p.derived.push_back(build_plane_sum(p, 4, 5, 6, 7));
  auto uc = [](RowProgram& q, int off) { return q.load(8, off); };
  auto u1 = [](RowProgram& q, int off) { return q.drow(0, off); };
  auto u2 = [](RowProgram& q, int off) { return q.drow(1, off); };
  p.roots.push_back(build_combine_expr(p, c, uc, u1, u2));
  return p;
}

RowProgram make_ewise(Op op, std::int64_t L) {
  RowProgram p;
  p.pattern = Pattern::kMap;
  p.num_inputs = 2;  // in[0] = a, in[1] = out's current value
  p.num_outputs = 1;
  p.restrict_rows = 0;  // a and out may alias (x op= x)
  p.length = L;
  p.roots.push_back(p.bin(op, p.load(0), p.load(1)));
  return p;
}

RowProgram make_gather(std::int64_t stride, std::int64_t n) {
  RowProgram p;
  p.pattern = Pattern::kGather;
  p.num_inputs = 1;
  p.num_outputs = 1;
  p.restrict_rows = 1;
  p.length = n;
  p.stride = stride;
  p.roots.push_back(p.load(0));
  return p;
}

RowProgram make_scatter(std::int64_t stride, std::int64_t n) {
  RowProgram p;
  p.pattern = Pattern::kScatter;
  p.num_inputs = 1;
  p.num_outputs = 1;
  p.restrict_rows = 1;
  p.length = n;
  p.stride = stride;
  p.roots.push_back(p.load(0));
  return p;
}

RowProgram make_sum_sq(std::int64_t L) {
  RowProgram p;
  p.pattern = Pattern::kSumSq;
  p.num_inputs = 1;
  p.num_outputs = 0;
  p.restrict_rows = 1;
  p.length = L;
  p.roots.push_back(p.bin(Op::kMul, p.load(0), p.load(0)));
  return p;
}

RowProgram make_max_abs(std::int64_t L) {
  RowProgram p;
  p.pattern = Pattern::kMaxAbs;
  p.num_inputs = 1;
  p.num_outputs = 0;
  p.restrict_rows = 1;
  p.length = L;
  p.roots.push_back(p.load(0));  // |x| is part of the fold skeleton
  return p;
}

// -- lowering ----------------------------------------------------------------

namespace {

void append(std::string& s, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void append(std::string& s, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  s += buf;
}

// Exact double literal: %a round-trips every finite value bit-for-bit.
std::string double_lit(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// Emit node `id` as a C expression over row locals i<slot>/d<slot> and
// induction variable k.  `inlined` flags derived rows that are NOT
// materialised into a stack array: a reference to one (always at offset 0)
// expands to the derived row's defining expression in place — textually
// identical to what the fill loop would have stored, so results stay
// bit-for-bit equal.
void emit_expr(std::string& s, const RowProgram& p, std::int32_t id,
               const std::vector<bool>* inlined = nullptr) {
  const Node& n = p.nodes[static_cast<std::size_t>(id)];
  switch (n.op) {
    case Op::kLoad:
    case Op::kDerived: {
      if (n.op == Op::kDerived && inlined != nullptr &&
          (*inlined)[static_cast<std::size_t>(n.input)]) {
        emit_expr(s, p, p.derived[static_cast<std::size_t>(n.input)], inlined);
        return;
      }
      const char* base = n.op == Op::kLoad ? "i" : "d";
      if (n.offset == 0) {
        append(s, "%s%d[k]", base, n.input);
      } else {
        append(s, "%s%d[k%+d]", base, n.input, n.offset);
      }
      return;
    }
    case Op::kConst:
      s += double_lit(n.bits);
      return;
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul: {
      const char op = n.op == Op::kAdd ? '+' : n.op == Op::kSub ? '-' : '*';
      s += '(';
      emit_expr(s, p, n.a, inlined);
      append(s, " %c ", op);
      emit_expr(s, p, n.b, inlined);
      s += ')';
      return;
    }
  }
}

void emit_row_binds(std::string& s, const RowProgram& p) {
  const char* rq = p.restrict_rows ? " __restrict" : "";
  for (int i = 0; i < p.num_inputs; ++i) {
    append(s, "  const double*%s i%d = in[%d];\n", rq, i, i);
  }
  for (int o = 0; o < p.num_outputs; ++o) {
    append(s, "  double*%s o%d = out[%d];\n", rq, o, o);
  }
}

// No-loop-carried-dependence pragma for programs whose rows never alias.
// __restrict on the bound locals is not enough: GCC only honours it via
// runtime alias versioning, and above ~10 pointer pairs (plane_sums has
// ten rows) it silently gives up and emits a scalar loop.  The pragma
// removes the alias question instead of versioning around it.
void emit_ivdep(std::string& s, const RowProgram& p) {
  if (!p.restrict_rows) return;
  s += "#if defined(__clang__)\n"
       "#pragma clang loop vectorize(assume_safety)\n"
       "#else\n"
       "#pragma GCC ivdep\n"
       "#endif\n";
}

// ---- AVX-512 pipelined stencil lowering -----------------------------------
//
// On hosts with AVX-512 the stencil pattern is lowered to explicit
// intrinsics instead of the autovectorised two-pass form: the derived
// plane-sum rows live in registers and flow across 8-wide blocks (prev /
// current / next), with the +/-1 references built by 64-bit lane shifts
// (valignq) instead of stack-array reloads.  Each plane sum is still
// computed exactly once per element with the identical ((a+b)+c)+d tree,
// and the combine tree is translated node for node, so results stay
// bit-for-bit equal to every other engine — the vectorisation only removes
// the memory round trip.  Masked loads/stores handle the block at the
// boundary; masked-off lanes never fault and never reach a store.

// True when every row reference sits at offset -1, 0, or +1 — the contract
// the register pipeline depends on.  Always true for make_stencil_row
// today; guards any future wider-radius builder.
bool unit_offsets(const RowProgram& p) {
  for (const Node& n : p.nodes) {
    if ((n.op == Op::kLoad || n.op == Op::kDerived) &&
        (n.offset < -1 || n.offset > 1)) {
      return false;
    }
  }
  return true;
}

struct VecCtx {
  const RowProgram& p;
  const std::vector<bool>& inlined;  // derived rows expanded at offset 0
  const char* mask;                  // __mmask8 expression, or nullptr
  int shift;                         // added to every load offset
  // Inputs carried in the register pipeline (combine-loop context only;
  // nullptr in the plane-sum fill contexts, which always load at k+8).
  const std::vector<bool>* lpipe = nullptr;
};

// Emit node `id` as an __m512d expression for the block starting at k.
void emit_vec_expr(std::string& s, const VecCtx& cx, std::int32_t id) {
  const Node& n = cx.p.nodes[static_cast<std::size_t>(id)];
  switch (n.op) {
    case Op::kLoad: {
      if (cx.lpipe != nullptr &&
          (*cx.lpipe)[static_cast<std::size_t>(n.input)]) {
        if (n.offset < 0) {
          append(s, "l%dm", n.input);
        } else if (n.offset > 0) {
          append(s, "l%dp", n.input);
        } else {
          append(s, "cl%d", n.input);
        }
        return;
      }
      const int off = n.offset + cx.shift;
      if (cx.mask != nullptr) {
        append(s, "_mm512_maskz_loadu_pd(%s, i%d + k%+d)", cx.mask, n.input,
               off);
      } else {
        append(s, "_mm512_loadu_pd(i%d + k%+d)", n.input, off);
      }
      return;
    }
    case Op::kDerived: {
      if (cx.inlined[static_cast<std::size_t>(n.input)]) {
        emit_vec_expr(s, cx, cx.p.derived[static_cast<std::size_t>(n.input)]);
        return;
      }
      if (n.offset < 0) {
        append(s, "d%dm", n.input);
      } else if (n.offset > 0) {
        append(s, "d%dp", n.input);
      } else {
        append(s, "c%dv", n.input);
      }
      return;
    }
    case Op::kConst:
      append(s, "_mm512_set1_pd(%s)", double_lit(n.bits).c_str());
      return;
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul: {
      const char* fn = n.op == Op::kAdd   ? "_mm512_add_pd"
                       : n.op == Op::kSub ? "_mm512_sub_pd"
                                          : "_mm512_mul_pd";
      append(s, "%s(", fn);
      emit_vec_expr(s, cx, n.a);
      s += ", ";
      emit_vec_expr(s, cx, n.b);
      s += ")";
      return;
    }
  }
}

// One pipelined block: fetch the next plane-sum vectors, build the +/-1
// shifts, evaluate the combine tree, store, rotate.  `masked` selects the
// boundary form (runtime sm/nm masks) used by the epilogue loop.
void emit_stencil_block(std::string& s, const RowProgram& p,
                        const std::vector<bool>& inlined,
                        const std::vector<std::array<bool, 3>>& used,
                        const std::vector<std::array<bool, 3>>& lused,
                        const std::vector<bool>& lpipe, bool masked) {
  for (std::size_t d = 0; d < p.derived.size(); ++d) {
    if (inlined[d]) continue;
    append(s, "    __m512d n%zu = ", d);
    VecCtx fill{p, inlined, masked ? "nm" : nullptr, 8};
    emit_vec_expr(s, fill, p.derived[d]);
    s += ";\n";
    if (used[d][0]) {
      append(s, "    __m512d d%zum = SACPP_ALIGN(c%zuv, p%zu, 7);\n", d, d, d);
    }
    if (used[d][2]) {
      append(s, "    __m512d d%zup = SACPP_ALIGN(n%zu, c%zuv, 1);\n", d, d, d);
    }
  }
  for (std::size_t i = 0; i < lpipe.size(); ++i) {
    if (!lpipe[i]) continue;
    if (masked) {
      append(s, "    __m512d nl%zu = _mm512_maskz_loadu_pd(nm, i%zu + k+8);\n",
             i, i);
    } else {
      append(s, "    __m512d nl%zu = _mm512_loadu_pd(i%zu + k+8);\n", i, i);
    }
    if (lused[i][0]) {
      append(s, "    __m512d l%zum = SACPP_ALIGN(cl%zu, pl%zu, 7);\n", i, i, i);
    }
    if (lused[i][2]) {
      append(s, "    __m512d l%zup = SACPP_ALIGN(nl%zu, cl%zu, 1);\n", i, i, i);
    }
  }
  append(s, "    __m512d t = ");
  VecCtx root{p, inlined, masked ? "sm" : nullptr, 0, &lpipe};
  emit_vec_expr(s, root, p.roots[0]);
  s += ";\n";
  if (p.accumulate) {
    if (masked) {
      s += "    t = _mm512_add_pd(_mm512_maskz_loadu_pd(sm, o0 + k), t);\n";
    } else {
      s += "    t = _mm512_add_pd(_mm512_loadu_pd(o0 + k), t);\n";
    }
  }
  s += masked ? "    _mm512_mask_storeu_pd(o0 + k, sm, t);\n"
              : "    _mm512_storeu_pd(o0 + k, t);\n";
  for (std::size_t d = 0; d < p.derived.size(); ++d) {
    if (inlined[d]) continue;
    append(s, "    p%zu = c%zuv; c%zuv = n%zu;\n", d, d, d, d);
  }
  for (std::size_t i = 0; i < lpipe.size(); ++i) {
    if (!lpipe[i]) continue;
    append(s, "    pl%zu = cl%zu; cl%zu = nl%zu;\n", i, i, i, i);
  }
}

void emit_stencil_avx512(std::string& s, const RowProgram& p,
                         const std::vector<bool>& inlined) {
  std::vector<std::array<bool, 3>> used(p.derived.size(),
                                        std::array<bool, 3>{});
  // Inputs referenced at +/-1 in the combine tree (only the centre row uc
  // can be, by construction) ride the same register pipeline as the derived
  // rows: one aligned load per block replaces three overlapping ones.
  std::vector<std::array<bool, 3>> lused(
      static_cast<std::size_t>(p.num_inputs), std::array<bool, 3>{});
  for (const Node& n : p.nodes) {
    if (n.op == Op::kDerived && !inlined[static_cast<std::size_t>(n.input)]) {
      used[static_cast<std::size_t>(n.input)]
          [static_cast<std::size_t>(n.offset + 1)] = true;
    }
    if (n.op == Op::kLoad) {
      lused[static_cast<std::size_t>(n.input)]
          [static_cast<std::size_t>(n.offset + 1)] = true;
    }
  }
  std::vector<bool> lpipe(static_cast<std::size_t>(p.num_inputs), false);
  for (std::size_t i = 0; i < lpipe.size(); ++i) {
    lpipe[i] = lused[i][0] || lused[i][2];
  }
  const long long lo = static_cast<long long>(p.lo);
  const long long hi = static_cast<long long>(p.hi);
  const long long n = static_cast<long long>(p.length);
  // Prologue masks are compile-time constants: prev covers [lo-8, lo-1]
  // (only lanes with a valid index load; only lane 7, element lo-1, is ever
  // consumed by the shift), current covers [lo, lo+7] clipped to n.
  unsigned pm = 0, cm = 0;
  for (int l = 0; l < 8; ++l) {
    if (lo - 8 + l >= 0 && lo - 8 + l < n) pm |= 1u << l;
    if (lo + l < n) cm |= 1u << l;
  }
  char pmask[24], cmask[24];
  std::snprintf(pmask, sizeof pmask, "(__mmask8)0x%02x", pm);
  std::snprintf(cmask, sizeof cmask, "(__mmask8)0x%02x", cm);
  append(s, "  long k = %lldL;\n", lo);
  for (std::size_t d = 0; d < p.derived.size(); ++d) {
    if (inlined[d]) continue;
    append(s, "  __m512d p%zu = ", d);
    VecCtx prev{p, inlined, pmask, -8};
    emit_vec_expr(s, prev, p.derived[d]);
    s += ";\n";
    append(s, "  __m512d c%zuv = ", d);
    VecCtx cur{p, inlined, cmask, 0};
    emit_vec_expr(s, cur, p.derived[d]);
    s += ";\n";
  }
  for (std::size_t i = 0; i < lpipe.size(); ++i) {
    if (!lpipe[i]) continue;
    append(s, "  __m512d pl%zu = _mm512_maskz_loadu_pd(%s, i%zu + k-8);\n", i,
           pmask, i);
    append(s, "  __m512d cl%zu = _mm512_maskz_loadu_pd(%s, i%zu + k+0);\n", i,
           cmask, i);
  }
  // Main loop: full-width stores need k+8 <= hi, unmasked next-block loads
  // need k+16 <= n; root loads at +/-1 are covered by those two.
  const long long kmax = hi - 8 < n - 16 ? hi - 8 : n - 16;
  append(s, "  for (; k <= %lldL; k += 8) {\n", kmax);
  emit_stencil_block(s, p, inlined, used, lused, lpipe, /*masked=*/false);
  s += "  }\n";
  append(s, "  for (; k < %lldL; k += 8) {\n", hi);
  append(s, "    const long rem = %lldL - k;\n", hi);
  s += "    const __mmask8 sm =\n"
       "        rem >= 8 ? (__mmask8)0xff : (__mmask8)((1u << rem) - 1u);\n";
  append(s, "    const long nr = %lldL - (k + 8);\n", n);
  s += "    const __mmask8 nm = nr <= 0 ? (__mmask8)0\n"
       "                        : nr >= 8 ? (__mmask8)0xff\n"
       "                                  : (__mmask8)((1u << nr) - 1u);\n";
  emit_stencil_block(s, p, inlined, used, lused, lpipe, /*masked=*/true);
  s += "  }\n";
}

// The 4-lane fold skeleton (backend_simd.cpp's sum_sq_body / max_abs_body
// with the length baked in).
void emit_fold(std::string& s, const RowProgram& p) {
  const bool max = p.pattern == Pattern::kMaxAbs;
  std::string e[4];
  for (int lane = 0; lane < 4; ++lane) {
    std::string x;
    emit_expr(x, p, p.roots[0]);
    // The fold element for lane `lane` of a block starting at k.
    std::string shifted;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x.compare(i, 3, "[k]") == 0 && lane > 0) {
        shifted += "[k+";
        shifted += static_cast<char>('0' + lane);
        shifted += ']';
        i += 2;
      } else {
        shifted += x[i];
      }
    }
    e[lane] = max ? "__builtin_fabs(" + shifted + ")" : shifted;
  }
  append(s, "  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;\n");
  append(s, "  long k = 0;\n");
  append(s, "  for (; k + 4 <= %lldL; k += 4) {\n",
         static_cast<long long>(p.length));
  for (int lane = 0; lane < 4; ++lane) {
    if (max) {
      append(s, "    { const double x = %s; l%d = l%d > x ? l%d : x; }\n",
             e[lane].c_str(), lane, lane, lane);
    } else {
      append(s, "    l%d = l%d + %s;\n", lane, lane, e[lane].c_str());
    }
  }
  append(s, "  }\n");
  for (int lane = 0; lane < 3; ++lane) {
    append(s, "  if (k + %d < %lldL) ", lane,
           static_cast<long long>(p.length));
    if (max) {
      append(s, "{ const double x = %s; l%d = l%d > x ? l%d : x; }\n",
             e[lane].c_str(), lane, lane, lane);
    } else {
      append(s, "l%d = l%d + %s;\n", lane, lane, e[lane].c_str());
    }
  }
  if (max) {
    append(s, "  double r = dargs[0];\n");
    for (int lane = 0; lane < 4; ++lane) {
      append(s, "  r = r > l%d ? r : l%d;\n", lane, lane);
    }
    append(s, "  dres[0] = r;\n");
  } else {
    append(s, "  dres[0] = dargs[0] + (((l0 + l1) + l2) + l3);\n");
  }
}

}  // namespace

std::string generate_source(const RowProgram& p) {
  std::string s;
  append(s, "// generated by sacpp jit (IR v1, hash %016llx)\n",
         static_cast<unsigned long long>(p.hash()));
  // Stencil programs get the hand-pipelined AVX-512 form when the build
  // host has it; the preprocessor guard keeps one generated source valid
  // for any -march the compile flags resolve to.
  // restrict_rows is required: the pipeline keeps input values in registers
  // across the output stores, which is only equivalent when they can't alias.
  const bool vec = p.pattern == Pattern::kStencil && p.num_outputs == 1 &&
                   p.restrict_rows && unit_offsets(p);
  if (vec) {
    s += "#if defined(__AVX512F__)\n"
         "#include <immintrin.h>\n"
         "#define SACPP_ALIGN(a, b, imm)                                  \\\n"
         "  _mm512_castsi512_pd(_mm512_alignr_epi64(                      \\\n"
         "      _mm512_castpd_si512(a), _mm512_castpd_si512(b), (imm)))\n"
         "#endif\n";
  }
  s += "extern \"C\" void sacpp_jit_kernel(const double* const* in,\n"
       "                                 double* const* out,\n"
       "                                 const double* dargs,\n"
       "                                 double* dres) {\n"
       "  (void)in; (void)out; (void)dargs; (void)dres;\n";
  const long long L = static_cast<long long>(p.length);
  switch (p.pattern) {
    case Pattern::kMap: {
      emit_row_binds(s, p);
      emit_ivdep(s, p);
      append(s, "  for (long k = 0; k < %lldL; ++k) {\n", L);
      for (int o = 0; o < p.num_outputs; ++o) {
        append(s, "    o%d[k] %s= ", o, p.accumulate ? "+" : "");
        emit_expr(s, p, p.roots[static_cast<std::size_t>(o)]);
        s += ";\n";
      }
      s += "  }\n";
      break;
    }
    case Pattern::kStencil: {
      // Two passes, both vectorisable: one loop materialises the derived
      // plane-sum rows into stack arrays (each element computed exactly
      // once), then the combine loop reads them at +/-1 offsets.  Fully
      // inlining the derived sums into one pass was measured slower here —
      // it re-evaluates each plane sum at three offsets, ~2x the arithmetic
      // — and the stack rows stay in L1 for any row the dispatch cap
      // admits.  The exception: a derived row referenced only at offset 0
      // (e.g. the diagonal sum when coefficient elision drops its +/-1
      // terms) is inlined instead of materialised, saving its fill-loop
      // stores and combine-loop reloads; the inlined expression is the
      // identical tree, so numerics are unchanged.
      emit_row_binds(s, p);
      std::vector<bool> inlined(p.derived.size(), true);
      for (const Node& n : p.nodes) {
        if (n.op == Op::kDerived && n.offset != 0) {
          inlined[static_cast<std::size_t>(n.input)] = false;
        }
      }
      if (vec) {
        s += "#if defined(__AVX512F__)\n";
        emit_stencil_avx512(s, p, inlined);
        s += "#else\n";
      }
      bool any_materialised = false;
      for (std::size_t d = 0; d < p.derived.size(); ++d) {
        if (inlined[d]) continue;
        append(s, "  double d%zu[%lld];\n", d, L);
        any_materialised = true;
      }
      if (any_materialised) {
        emit_ivdep(s, p);
        append(s, "  for (long k = 0; k < %lldL; ++k) {\n", L);
        for (std::size_t d = 0; d < p.derived.size(); ++d) {
          if (inlined[d]) continue;
          append(s, "    d%zu[k] = ", d);
          emit_expr(s, p, p.derived[d]);
          s += ";\n";
        }
        s += "  }\n";
      }
      emit_ivdep(s, p);
      append(s, "  for (long k = %lldL; k < %lldL; ++k) {\n",
             static_cast<long long>(p.lo), static_cast<long long>(p.hi));
      append(s, "    o0[k] %s= ", p.accumulate ? "+" : "");
      emit_expr(s, p, p.roots[0], &inlined);
      s += ";\n  }\n";
      if (vec) s += "#endif\n";
      break;
    }
    case Pattern::kGather: {
      emit_row_binds(s, p);
      emit_ivdep(s, p);
      append(s,
             "  for (long k = 0; k < %lldL; ++k) o0[k] = i0[k * %lldL];\n",
             L, static_cast<long long>(p.stride));
      break;
    }
    case Pattern::kScatter: {
      emit_row_binds(s, p);
      emit_ivdep(s, p);
      append(s,
             "  for (long k = 0; k < %lldL; ++k) o0[k * %lldL] = i0[k];\n",
             L, static_cast<long long>(p.stride));
      break;
    }
    case Pattern::kSumSq:
    case Pattern::kMaxAbs: {
      emit_row_binds(s, p);
      emit_fold(s, p);
      break;
    }
  }
  s += "}\n";
  return s;
}

}  // namespace sacpp::sac::jit
