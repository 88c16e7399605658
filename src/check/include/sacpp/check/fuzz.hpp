#pragma once
// Fuzzing harness for the backend row engines and the nested gather row
// protocol of the expression layer (sac/expr.hpp), the one with-loop folding
// engine the solvers run.
//
// Deterministic in `seed` (tests pin seeds; no global RNG state).

#include <cstdint>

namespace sacpp::check {

// Backend row-primitive fuzzer (docs/backends.md).  Each round draws
// adversarial row lengths and sub-ranges around the 4-lane vector width
// (0, 1, width-1, width, width+1, primes, empty ranges) and
//  * runs every row primitive on every available engine (scalar, both kSimd
//    instances where the host has AVX2), comparing element-parallel
//    results bitwise and fold results to tolerance — vector-remainder bugs
//    show up as `mismatches`;
//  * forces random gather/scatter/take/embed compositions over a concrete
//    array, coarse2fine's take(scatter(.)) among them, and degenerate
//    stencil grids (the gen_interior regression class: interiors that are
//    empty or a single point) under every backend, kSimd on each of its
//    instances, comparing against per-point evaluation — row-range algebra
//    bugs show up here too;
//  * forces fine2coarse's embed(condense(stencil)), alone or under a take,
//    in grouped and planes modes: the nested gather row protocol.  The
//    scalar engine must match per-point evaluation bitwise, a vectorized
//    engine the stencil forced on its own and then gathered, and every
//    engine per-point evaluation to 1e-12;
//  * relaxes coarse2fine's take(scatter(.)) of an array or of a view of one
//    straight from the source (scatter_stencil.hpp) in every stencil mode,
//    against the relaxation of the forced gather, equal under ==; and
//    likewise mg_sac_direct's periodic relaxation of the whole scatter(.).
struct BackendFuzzReport {
  int rows_checked = 0;     // primitive (engine, row) comparisons performed
  int exprs_checked = 0;    // whole-expression backend comparisons performed
  int mismatches = 0;       // bitwise divergences — must stay 0
  int fold_mismatches = 0;  // drift beyond 1e-12 — must stay 0
  // Of exprs_checked, the gather chains over a stencil.
  int stencil_chains_checked = 0;
  // Of exprs_checked, the chains over a copy-free view of a shared base.
  int view_chains_checked = 0;
  // Of exprs_checked, the stencils over take(scatter(.)) or a whole
  // scatter(.) read straight from the scattered array.
  int scatter_stencils_checked = 0;

  bool clean() const { return mismatches == 0 && fold_mismatches == 0; }
};

BackendFuzzReport fuzz_backend_rows(std::uint64_t seed, int rounds);

}  // namespace sacpp::check
