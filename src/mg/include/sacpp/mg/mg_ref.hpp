#pragma once
// Port of the serial Fortran-77 NAS 2.3 MG reference implementation.
//
// This is the paper's low-level comparison point: static memory layout (one
// arena allocated up front, zero allocations inside the timed loop) and the
// hand-tuned stencil optimisation the paper analyses in Sec. 5 — only four
// distinct coefficients occur per stencil, and partial sums of rows are
// shared between neighbouring result elements through small line buffers
// (u1/u2 in the Fortran source), cutting the additions per point to 12-20.
//
// Kernels follow the NPB structure: resid (r = v - A u), psinv (u += C r),
// rprj3 (fine-to-coarse restriction), interp (additive coarse-to-fine
// prolongation), comm3 (periodic ghost exchange), mg3P (one V-cycle).  The
// four stencil kernels are plane-range functions (below the class) that
// the OpenMP and message-passing ports run too.
// Index convention: extended cubes of extent n = 2^k + 2, ghosts at 0 and
// n-1, row-major with the last axis fastest (NPB's i1).

#include <span>
#include <vector>

#include "sacpp/mg/spec.hpp"

namespace sacpp::mg {

class MgRef {
 public:
  explicit MgRef(const MgSpec& spec);

  const MgSpec& spec() const { return spec_; }

  // -- state management -------------------------------------------------

  // Copy an extended (nx+2)^3 right-hand side into v.
  void set_rhs(std::span<const double> v_ext);
  // Generate the benchmark right-hand side (zran3 charges).
  void setup_default_rhs();
  void zero_u();
  // r = v - A u on the finest level.
  void initial_resid();
  // `count` benchmark iterations: u += M^k r (mg3P), then r = v - A u.
  void iterate(int count);
  // rnm2 of the current finest-level residual.
  double residual_norm() const;

  std::span<const double> u() const;
  std::span<const double> v() const;
  std::span<const double> r() const;

  // -- kernels (tests, bench/abl_stencil) ----------------------------------

  // r = v - A u over the interior of an extended cube of extent n, then
  // periodic exchange of r.  v and r may alias.
  void kernel_resid(const double* u_in, const double* v_in, double* r_out,
                    extent_t n) const;
  // u += C r over the interior, then periodic exchange of u.
  void kernel_psinv(const double* r_in, double* u_inout, extent_t n) const;
  // Coarse = P-weighted restriction of fine (extent nf -> nc), then
  // periodic exchange of the coarse grid.
  void kernel_rprj3(const double* fine, extent_t nf, double* coarse,
                    extent_t nc) const;
  // Fine += trilinear prolongation of coarse (extent nc -> nf).  No
  // exchange needed: prolongation of a periodic grid is periodic.
  void kernel_interp(const double* coarse, extent_t nc, double* fine,
                     extent_t nf) const;

  // One V-cycle: restrict the residual hierarchy to the bottom, smooth,
  // then prolongate with residual corrections back to the top (NPB mg3P).
  void mg3p();

  // The V-cycle below the top: u_k = M^k r_k for level `k`, from a zero
  // correction.  Restricts r_k down to the coarsest level, smooths there,
  // then prolongates, corrects the residual and smooths on each level back
  // up to k.  mg3p runs it one level below the finest; MgMpi runs it on
  // rank 0 at its coarsest distributed level.
  void vcycle(int k);

  // Direct access to the per-level grids (extent extended_extent(k)): the
  // distributed implementation writes the residual of its coarse tail here
  // and reads back the correction.
  std::span<double> level_u_span(int k) {
    return {level_u(k), cube(k)};
  }
  std::span<double> level_r_span(int k) {
    return {level_r(k), cube(k)};
  }

 private:
  double* level_u(int k) { return arena_.data() + off_u_[static_cast<std::size_t>(k)]; }
  double* level_r(int k) { return arena_.data() + off_r_[static_cast<std::size_t>(k)]; }
  const double* level_u(int k) const { return arena_.data() + off_u_[static_cast<std::size_t>(k)]; }
  const double* level_r(int k) const { return arena_.data() + off_r_[static_cast<std::size_t>(k)]; }
  double* top_v() { return arena_.data() + off_v_; }
  const double* top_v() const { return arena_.data() + off_v_; }

  std::size_t cube(int k) const {
    const auto n = static_cast<std::size_t>(n_[static_cast<std::size_t>(k)]);
    return n * n * n;
  }

  MgSpec spec_;
  int lt_;                  // finest level
  static constexpr int lb_ = 1;  // coarsest level
  std::vector<extent_t> n_;      // extended extent per level (index 1..lt)
  std::vector<double> arena_;    // single static allocation for all grids
  std::vector<std::size_t> off_u_, off_r_;
  std::size_t off_v_ = 0;
  // Pre-allocated line buffers for the plane-sharing stencil optimisation.
  mutable std::vector<double> buf1_, buf2_, buf3_;
};

// -- plane-range kernels ----------------------------------------------------
//
// The reference arithmetic, written once.  MgRef runs each kernel over the
// whole interior, MgOmp one plane per `omp for` iteration, and MgMpi over
// the owned planes of its slabs.  A kernel computes the output planes
// [lo, hi) along the outermost axis of an extended grid whose rows hold n
// values, reads the input planes lo-1 .. hi, and writes no other plane:
// borders, halo exchange, spans and scheduling are the caller's.  Each line
// buffer holds one row of the grid it sums (rprj3: nf values, interp: nc)
// and aliases no grid, which lets the compiler pack the plane sums.

// r = v - A u on planes [lo, hi).  v may alias r (the in-place residual).
void resid_planes(const MgSpec& spec, const double* u, const double* v,
                  double* r, extent_t n, extent_t lo, extent_t hi,
                  double* __restrict u1, double* __restrict u2);
// u += C r on planes [lo, hi).
void psinv_planes(const MgSpec& spec, const double* r, double* u, extent_t n,
                  extent_t lo, extent_t hi, double* __restrict r1,
                  double* __restrict r2);
// Coarse planes [lo, hi) (rows of nc) restricted from fine planes
// 2 lo - 1 .. 2 hi - 1 (rows of nf = 2 nc - 2).
void rprj3_planes(const MgSpec& spec, const double* fine, extent_t nf,
                  double* coarse, extent_t nc, extent_t lo, extent_t hi,
                  double* __restrict x1, double* __restrict y1);
// Fine += prolongation of the coarse cells [lo, hi): cell c reads coarse
// planes c and c + 1 and adds into fine planes 2c and 2c + 1, each only if
// it lies in the window [flo, fhi).  Every fine plane has one cell, so any
// split of the cells gives the same values.
void interp_planes(const MgSpec& spec, const double* coarse, extent_t nc,
                   double* fine, extent_t nf, extent_t lo, extent_t hi,
                   extent_t flo, extent_t fhi, double* __restrict z1,
                   double* __restrict z2, double* __restrict z3);

}  // namespace sacpp::mg
