#pragma once
// MG input generation (NPB's zran3) and the residual norm (norm2u3).
//
// The right-hand side v is zero except for +1 at the positions of the ten
// largest and -1 at the positions of the ten smallest values of an nx^3
// field of NAS pseudo-random deviates, laid out exactly as NPB generates it:
// innermost index fastest, so element (i3, i2, i1) is deviate number
// (i3 * nx + i2) * nx + i1 of one contiguous stream (NPB's per-row and
// per-plane sequence jumps equal the counts consumed).
//
// zran3 never stores that field.  One streaming pass steps the integer
// generator (nasrand::lcg46_step) and keeps the ten largest and ten smallest
// deviates seen so far, an equal later value never displacing an earlier
// one (scan-order ties).  On AVX2 hosts the pass runs 16 interleaved
// generator chains and tests 16 deviates against both bars at once.  Each charge is then written at every periodic
// image of its position: the interior point and every ghost cell that NPB's
// comm3 border exchange would copy it to, so no border pass runs.  Any
// range of planes along the outermost axis can be filled on its own, which
// is how each MgMpi rank builds just its slab.  The result is bit-identical
// to sorting the stored field and exchanging the borders.
//
// All extended grids are cubes of extent nx+2: one artificial periodic
// boundary layer on each side (paper Fig. 5).  Index convention inside
// extended grids: 0 and n-1 are the ghost layers, 1 .. n-2 the interior.

#include <span>
#include <vector>

#include "sacpp/common/shape.hpp"
#include "sacpp/sac/array.hpp"

namespace sacpp::mg {

// Charge positions: 0-based *interior* coordinates (each in [0, nx)).
struct Charges {
  std::vector<IndexVec> plus;   // ten largest deviates -> +1
  std::vector<IndexVec> minus;  // ten smallest deviates -> -1
};

// The charges of the nx^3 field, from one pass over its deviate stream in
// constant memory: plus by decreasing, minus by increasing deviate, ties in
// scan order.  When nx^3 < 20 both lists hold all nx^3 points, and -1 wins.
Charges zran3_charges(extent_t nx);

namespace detail {
// zran3_charges on a chosen path: one generator chain stepped position by
// position, or (`vectorised`, AVX2 hosts only) 16 interleaved chains
// stepped by a^16 and tested a group at a time.  zran3_charges takes the
// vectorised path whenever the CPU has AVX2; both give the same charges.
Charges zran3_charges(extent_t nx, bool vectorised);
}  // namespace detail

// Planes [first, first + count) of the extended (nx+2)^3 right-hand side,
// along the outermost axis (planes 0 and nx+1 are ghosts): zero everywhere,
// +-1 at every periodic image of each charge.  `planes` must have size
// count * (nx+2)^2.
void fill_rhs_planes(std::span<double> planes, extent_t nx, extent_t first,
                     extent_t count);

// The whole extended right-hand side: fill_rhs_planes over all nx+2 planes.
// `v_ext` must have size (nx+2)^3.
void fill_rhs(std::span<double> v_ext, extent_t nx);

// The right-hand side as an array: the extended (nx+2)^3 cube when `lo` is
// 0, its nx^3 interior when `lo` is 1 (the ghost-free grids of
// mg_sac_direct).  A zero genarray_const with the charges' images written
// in place: on a freshly mapped block only the pages holding a charge are
// ever written, so the rest stay off the resident set (docs/memory.md).
sac::Array<double> rhs_array(extent_t nx, extent_t lo);

// Apply periodic boundary conditions to an extended cube in place: each
// ghost layer receives the opposite interior layer, one axis after the
// other (NPB comm3).  `n` is the extended extent; `a` has size n^3.
void periodic_border_3d(std::span<double> a, extent_t n);

// L2 norm of the interior of an extended cube, normalised by the interior
// point count: sqrt( sum_{interior} a^2 / nx^3 )  (NPB norm2u3's rnm2).
double interior_l2_norm(std::span<const double> a, extent_t n);

// Maximum absolute interior value (NPB norm2u3's rnmu).
double interior_max_abs(std::span<const double> a, extent_t n);

}  // namespace sacpp::mg
