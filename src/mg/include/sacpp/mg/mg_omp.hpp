#pragma once
// Port of the Omni OpenMP distribution's C implementation of NAS MG.
//
// The paper's third candidate: the RWCP port of the Fortran-77 reference to
// C, decorated with OpenMP work-sharing directives (about 30 of them in the
// original; here one `parallel for` per grid sweep).  The arithmetic is the
// reference's own: each sweep runs mg_ref's plane-range kernels one plane
// per loop iteration, with per-thread line buffers.  What stays the C
// port's is its structure: per-level heap arrays ("almost static memory
// layout" — allocated once at setup, none inside the timed loop) and the
// work-sharing over the outermost grid axis.
//
// Compiled without OpenMP the pragmas vanish and the code runs serially;
// `omp_threads(t)` sets the team size when OpenMP is available (0 = one
// thread per core).

#include <span>
#include <vector>

#include "sacpp/mg/spec.hpp"

namespace sacpp::mg {

class MgOmp {
 public:
  explicit MgOmp(const MgSpec& spec);

  const MgSpec& spec() const { return spec_; }

  // Team size for the OpenMP parallel regions, 0 for one per core (ignored
  // without OpenMP); omp_team_size() is the size the next region gets.
  static void omp_threads(int t);
  static int omp_team_size();
  static bool openmp_available();

  void set_rhs(std::span<const double> v_ext);
  void setup_default_rhs();
  void zero_u();
  void initial_resid();
  void iterate(int count);
  double residual_norm() const;

  std::span<const double> u() const;
  std::span<const double> v() const;
  std::span<const double> r() const;

  void mg3p();

  // Kernels (exposed for tests).
  void kernel_resid(const double* u_in, const double* v_in, double* r_out,
                    extent_t n) const;
  void kernel_psinv(const double* r_in, double* u_inout, extent_t n) const;
  void kernel_rprj3(const double* fine, extent_t nf, double* coarse,
                    extent_t nc) const;
  void kernel_interp(const double* coarse, extent_t nc, double* fine,
                     extent_t nf) const;
  static void kernel_comm3(double* a, extent_t n);

 private:
  MgSpec spec_;
  int lt_;
  static constexpr int lb_ = 1;
  std::vector<extent_t> n_;                   // extent per level
  std::vector<std::vector<double>> u_, r_;    // per-level heap arrays
  std::vector<double> v_;                     // finest-level RHS
};

}  // namespace sacpp::mg
