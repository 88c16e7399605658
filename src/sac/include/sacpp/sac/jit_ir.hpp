#pragma once
// Row-program IR for the runtime JIT backend (docs/jit.md).
//
// The JIT engine does not interpret anything at row time: each Backend row
// primitive the planes stencil / expr / grid-transfer / fold paths issue is
// captured once per *shape* — (primitive, row length, sub-range, stride,
// coefficient bit patterns) — as a RowProgram, a tiny expression graph
// scoped to one contiguous k-row.  The program is lowered to specialised
// C++ source (jit_codegen.cpp) with every parameter baked in as a literal,
// compiled by the host toolchain into a shared object, and dlopen'd
// (jit_cache.cpp).
//
// Semantics are inherited from the Backend contract (backend.hpp):
//  * element-parallel programs reproduce the scalar engine's association
//    order per element and are lowered with -ffp-contract=off, so compiled
//    kernels are bit-identical to kScalar;
//  * fold programs are lowered to the exact 4-lane structure of the kSimd
//    folds, so they are bit-identical to both kSimd instances;
//  * the one IR-level simplification — dropping a `+ c*group` term whose
//    coefficient is bit-exact +0.0 (resid's c1, psinv's c3) — is exact for
//    finite nonzero data and can only flip the sign of exact-zero outputs,
//    which no norm or downstream arithmetic can observe (docs/jit.md).
//
// The IR serialises to a canonical byte string; its FNV-1a hash keys the
// on-disk kernel cache, so two processes that capture the same row shape
// reuse one compiled object.

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sacpp/common/shape.hpp"

namespace sacpp::sac::jit {

// Expression nodes, indices into RowProgram::nodes.  kLoad reads input row
// `input` at k+offset; kDerived reads one of the program's derived rows
// (the stencil u1/u2 partial sums) at k+offset; kConst is a baked double.
enum class Op : std::uint8_t {
  kLoad,
  kDerived,
  kConst,
  kAdd,
  kSub,
  kMul,
};

struct Node {
  Op op = Op::kConst;
  std::int16_t input = 0;       // kLoad / kDerived: row slot
  std::int32_t offset = 0;      // kLoad / kDerived: k displacement
  std::uint64_t bits = 0;       // kConst: IEEE-754 bit pattern
  std::int32_t a = -1, b = -1;  // binary operands
};

// The loop skeleton a program lowers to.  kMap covers every element-
// parallel primitive (plane sums, stencil combines, ewise merges): for k in
// [0, length), each output row o gets roots[o] evaluated at k (callers
// pre-offset the row pointers, so a sub-range [lo, hi) arrives as length
// hi-lo with loads at relative offsets).  kStencil is the fused planes row:
// derived rows u1/u2 are filled over [0, length) first, then roots[0] is
// written (or accumulated) over [lo, hi).  kGather / kScatter are the
// strided grid-transfer rows.  kSumSq / kMaxAbs fold roots[0] over
// [0, length) in the kSimd 4-lane structure, seeded/combined with the
// caller's accumulator.
enum class Pattern : std::uint8_t {
  kMap,
  kStencil,
  kGather,
  kScatter,
  kSumSq,
  kMaxAbs,
};

struct RowProgram {
  Pattern pattern = Pattern::kMap;
  std::uint8_t num_inputs = 0;
  std::uint8_t num_outputs = 0;
  std::uint8_t accumulate = 0;  // out[k] += expr instead of =
  std::uint8_t restrict_rows = 0;  // emit __restrict (rows never alias)
  std::int64_t length = 0;         // see Pattern
  std::int64_t lo = 0, hi = 0;     // kStencil combine range
  std::int64_t stride = 1;         // kGather / kScatter
  std::vector<Node> nodes;
  std::vector<std::int32_t> roots;     // one expression per output row
  std::vector<std::int32_t> derived;   // kStencil: u1/u2 expressions

  std::int32_t add(Node n) {
    nodes.push_back(n);
    return static_cast<std::int32_t>(nodes.size() - 1);
  }
  std::int32_t load(int input, int offset = 0) {
    Node n;
    n.op = Op::kLoad;
    n.input = static_cast<std::int16_t>(input);
    n.offset = offset;
    return add(n);
  }
  std::int32_t drow(int index, int offset = 0) {
    Node n;
    n.op = Op::kDerived;
    n.input = static_cast<std::int16_t>(index);
    n.offset = offset;
    return add(n);
  }
  std::int32_t constant(double v) {
    Node n;
    n.op = Op::kConst;
    std::memcpy(&n.bits, &v, sizeof v);
    return add(n);
  }
  std::int32_t bin(Op op, std::int32_t a, std::int32_t b) {
    Node n;
    n.op = op;
    n.a = a;
    n.b = b;
    return add(n);
  }

  // Canonical byte serialisation (field-by-field, little-endian fixed
  // widths — never the in-memory struct layout) and its FNV-1a hash: the
  // identity of the compiled kernel, stable across processes and runs.
  std::vector<std::uint8_t> serialize() const;
  std::uint64_t hash() const;
};

// -- program builders (the capture step) -------------------------------------
//
// Each builder mirrors one Backend row primitive; the emitted expression
// trees replicate the scalar engine's association order exactly (see
// backend_scalar.cpp — these are load-bearing parentheses).

// plane_sums: inputs im,ip,jm,jp,imm,imp,ipm,ipp -> outputs u1,u2 on [0, n).
RowProgram make_plane_sums(std::int64_t n);

// combine_row / accumulate_row over a pre-offset sub-range of length L:
// inputs uc,u1,u2 (readable at offsets -1..+1), output out.
RowProgram make_combine(const double c[4], bool accumulate, std::int64_t L);

// The fused planes row (Backend::stencil_row): inputs
// im,ip,jm,jp,imm,imp,ipm,ipp,uc on [0, n), derived u1/u2, output over
// [lo, hi).
RowProgram make_stencil_row(const double c[4], bool accumulate,
                            std::int64_t lo, std::int64_t hi, std::int64_t n);

// add/sub/mul_into_row over a pre-offset sub-range of length L:
// out[k] = a[k] <op> out[k] (the scalar operand order).
RowProgram make_ewise(Op op, std::int64_t L);

// gather_row / scatter_row with baked stride over [0, n).
RowProgram make_gather(std::int64_t stride, std::int64_t n);
RowProgram make_scatter(std::int64_t stride, std::int64_t n);

// sum_sq_row / max_abs_row over a pre-offset range of length L.
RowProgram make_sum_sq(std::int64_t L);
RowProgram make_max_abs(std::int64_t L);

// Lower a program to a self-contained C++ translation unit defining
//   extern "C" void sacpp_jit_kernel(const double* const* in,
//                                    double* const* out,
//                                    const double* dargs, double* dres);
// Constants are emitted as %a hex literals (exact), lengths and strides as
// literals; jit_cache.cpp compiles it with -O3 -march=native
// -ffp-contract=off.
std::string generate_source(const RowProgram& prog);

}  // namespace sacpp::sac::jit
