#include "sacpp/mg/mg_omp.hpp"

#include <algorithm>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "sacpp/common/error.hpp"
#include "sacpp/mg/mg_ref.hpp"
#include "sacpp/mg/problem.hpp"
#include "sacpp/obs/obs.hpp"

namespace sacpp::mg {

MgOmp::MgOmp(const MgSpec& spec) : spec_(spec), lt_(spec.levels()) {
  SACPP_REQUIRE(lt_ > lb_, "MG needs at least two levels");
  n_.assign(static_cast<std::size_t>(lt_) + 1, 0);
  u_.resize(static_cast<std::size_t>(lt_) + 1);
  r_.resize(static_cast<std::size_t>(lt_) + 1);
  for (int k = lb_; k <= lt_; ++k) {
    const auto sk = static_cast<std::size_t>(k);
    n_[sk] = (extent_t{1} << k) + 2;
    const auto c = static_cast<std::size_t>(n_[sk] * n_[sk] * n_[sk]);
    u_[sk].assign(c, 0.0);
    r_[sk].assign(c, 0.0);
  }
  v_.assign(u_[static_cast<std::size_t>(lt_)].size(), 0.0);
}

void MgOmp::omp_threads(int t) {
#ifdef _OPENMP
  omp_set_num_threads(t > 0 ? t : omp_get_num_procs());
#else
  (void)t;
#endif
}

int MgOmp::omp_team_size() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

bool MgOmp::openmp_available() {
#ifdef _OPENMP
  return true;
#else
  return false;
#endif
}

void MgOmp::set_rhs(std::span<const double> v_ext) {
  SACPP_REQUIRE(v_ext.size() == v_.size(), "RHS buffer size mismatch");
  std::copy(v_ext.begin(), v_ext.end(), v_.begin());
}

void MgOmp::setup_default_rhs() {
  fill_rhs(std::span<double>(v_.data(), v_.size()), spec_.nx);
}

void MgOmp::zero_u() {
  for (int k = lb_; k <= lt_; ++k) {
    auto& uk = u_[static_cast<std::size_t>(k)];
    std::fill(uk.begin(), uk.end(), 0.0);
  }
}

void MgOmp::initial_resid() {
  const auto slt = static_cast<std::size_t>(lt_);
  kernel_resid(u_[slt].data(), v_.data(), r_[slt].data(), n_[slt]);
}

void MgOmp::iterate(int count) {
  for (int it = 0; it < count; ++it) {
    mg3p();
    initial_resid();
  }
}

double MgOmp::residual_norm() const {
  const auto slt = static_cast<std::size_t>(lt_);
  return interior_l2_norm(r(), n_[slt]);
}

std::span<const double> MgOmp::u() const {
  const auto& a = u_[static_cast<std::size_t>(lt_)];
  return {a.data(), a.size()};
}
std::span<const double> MgOmp::v() const { return {v_.data(), v_.size()}; }
std::span<const double> MgOmp::r() const {
  const auto& a = r_[static_cast<std::size_t>(lt_)];
  return {a.data(), a.size()};
}

// ---------------------------------------------------------------------------
// Kernels — the reference's plane-range kernels (mg_ref.hpp), one plane per
// iteration of an OpenMP work-sharing loop over the outermost grid axis,
// with per-thread line buffers.
// ---------------------------------------------------------------------------

namespace {

// One parallel region sharing the planes [lo, hi) among the team; each
// thread owns three line buffers of `len` values for `plane(i, b1, b2, b3)`.
template <class Plane>
void omp_planes(extent_t lo, extent_t hi, extent_t len, const Plane& plane) {
  const auto l = static_cast<std::size_t>(len);
#pragma omp parallel
  {
    std::vector<double> lines(3 * l);
#pragma omp for
    for (extent_t i = lo; i < hi; ++i) {
      plane(i, lines.data(), lines.data() + l, lines.data() + 2 * l);
    }
  }
}

}  // namespace

void MgOmp::kernel_comm3(double* a, extent_t n) {
  const std::size_t nn = static_cast<std::size_t>(n);
  periodic_border_3d(std::span<double>(a, nn * nn * nn), n);
}

void MgOmp::kernel_resid(const double* u_in, const double* v_in, double* r_out,
                         extent_t n) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "resid", n);
  omp_planes(1, n - 1, n, [&](extent_t i, double* b1, double* b2, double*) {
    resid_planes(spec_, u_in, v_in, r_out, n, i, i + 1, b1, b2);
  });
  kernel_comm3(r_out, n);
}

void MgOmp::kernel_psinv(const double* r_in, double* u_inout,
                         extent_t n) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "psinv", n);
  omp_planes(1, n - 1, n, [&](extent_t i, double* b1, double* b2, double*) {
    psinv_planes(spec_, r_in, u_inout, n, i, i + 1, b1, b2);
  });
  kernel_comm3(u_inout, n);
}

void MgOmp::kernel_rprj3(const double* fine, extent_t nf, double* coarse,
                         extent_t nc) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "rprj3", nf);
  omp_planes(1, nc - 1, nf, [&](extent_t i, double* b1, double* b2, double*) {
    rprj3_planes(spec_, fine, nf, coarse, nc, i, i + 1, b1, b2);
  });
  kernel_comm3(coarse, nc);
}

void MgOmp::kernel_interp(const double* coarse, extent_t nc, double* fine,
                          extent_t nf) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "interp", nf);
  omp_planes(0, nc - 1, nc,
             [&](extent_t i, double* b1, double* b2, double* b3) {
               interp_planes(spec_, coarse, nc, fine, nf, i, i + 1, 0, nf, b1,
                             b2, b3);
             });
}

void MgOmp::mg3p() {
  for (int k = lt_; k > lb_; --k) {
    const auto sk = static_cast<std::size_t>(k);
    kernel_rprj3(r_[sk].data(), n_[sk], r_[sk - 1].data(), n_[sk - 1]);
  }
  {
    auto& ub = u_[static_cast<std::size_t>(lb_)];
    std::fill(ub.begin(), ub.end(), 0.0);
    kernel_psinv(r_[static_cast<std::size_t>(lb_)].data(), ub.data(),
                 n_[static_cast<std::size_t>(lb_)]);
  }
  for (int k = lb_ + 1; k < lt_; ++k) {
    const auto sk = static_cast<std::size_t>(k);
    std::fill(u_[sk].begin(), u_[sk].end(), 0.0);
    kernel_interp(u_[sk - 1].data(), n_[sk - 1], u_[sk].data(), n_[sk]);
    kernel_resid(u_[sk].data(), r_[sk].data(), r_[sk].data(), n_[sk]);
    kernel_psinv(r_[sk].data(), u_[sk].data(), n_[sk]);
  }
  const auto slt = static_cast<std::size_t>(lt_);
  kernel_interp(u_[slt - 1].data(), n_[slt - 1], u_[slt].data(), n_[slt]);
  kernel_resid(u_[slt].data(), v_.data(), r_[slt].data(), n_[slt]);
  kernel_psinv(r_[slt].data(), u_[slt].data(), n_[slt]);
}

}  // namespace sacpp::mg
