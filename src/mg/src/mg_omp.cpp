#include "sacpp/mg/mg_omp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "sacpp/common/error.hpp"
#include "sacpp/mg/problem.hpp"
#include "sacpp/obs/obs.hpp"

namespace sacpp::mg {

MgOmp::MgOmp(const MgSpec& spec) : spec_(spec), lt_(spec.levels()) {
  SACPP_REQUIRE(lt_ >= lb_, "MG needs at least one level");
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
// Kernels — same stencil optimisation as the reference, OpenMP work-sharing
// over the outermost grid axis, per-thread line buffers.
// ---------------------------------------------------------------------------

void MgOmp::kernel_comm3(double* a, extent_t n) {
  const std::size_t nn = static_cast<std::size_t>(n);
  periodic_border_3d(std::span<double>(a, nn * nn * nn), n);
}

void MgOmp::kernel_resid(const double* u_in, const double* v_in, double* r_out,
                         extent_t n) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "resid", n);
  const double a0 = spec_.a[0], a2 = spec_.a[2], a3 = spec_.a[3];
  const std::size_t nn = static_cast<std::size_t>(n);
#pragma omp parallel
  {
    std::vector<double> b1(nn), b2(nn);
    double* u1 = b1.data();
    double* u2 = b2.data();
#pragma omp for
    for (extent_t i = 1; i < n - 1; ++i) {
      for (extent_t j = 1; j < n - 1; ++j) {
        const std::size_t base =
            (static_cast<std::size_t>(i) * nn + static_cast<std::size_t>(j)) *
            nn;
        const double* um = u_in + base - nn * nn;
        const double* up = u_in + base + nn * nn;
        const double* ujm = u_in + base - nn;
        const double* ujp = u_in + base + nn;
        for (extent_t k = 0; k < n; ++k) {
          u1[k] = ujm[k] + ujp[k] + um[k] + up[k];
          u2[k] = um[-static_cast<std::ptrdiff_t>(nn) + k] +
                  um[static_cast<std::ptrdiff_t>(nn) + k] +
                  up[-static_cast<std::ptrdiff_t>(nn) + k] +
                  up[static_cast<std::ptrdiff_t>(nn) + k];
        }
        const double* uc = u_in + base;
        const double* vc = v_in + base;
        double* rc = r_out + base;
        for (extent_t k = 1; k < n - 1; ++k) {
          rc[k] = vc[k] - a0 * uc[k] - a2 * (u2[k] + u1[k - 1] + u1[k + 1]) -
                  a3 * (u2[k - 1] + u2[k + 1]);
        }
      }
    }
  }
  kernel_comm3(r_out, n);
}

void MgOmp::kernel_psinv(const double* r_in, double* u_inout,
                         extent_t n) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "psinv", n);
  const double c0 = spec_.s[0], c1 = spec_.s[1], c2 = spec_.s[2];
  const std::size_t nn = static_cast<std::size_t>(n);
#pragma omp parallel
  {
    std::vector<double> b1(nn), b2(nn);
    double* r1 = b1.data();
    double* r2 = b2.data();
#pragma omp for
    for (extent_t i = 1; i < n - 1; ++i) {
      for (extent_t j = 1; j < n - 1; ++j) {
        const std::size_t base =
            (static_cast<std::size_t>(i) * nn + static_cast<std::size_t>(j)) *
            nn;
        const double* rim = r_in + base - nn * nn;
        const double* rip = r_in + base + nn * nn;
        const double* rjm = r_in + base - nn;
        const double* rjp = r_in + base + nn;
        for (extent_t k = 0; k < n; ++k) {
          r1[k] = rjm[k] + rjp[k] + rim[k] + rip[k];
          r2[k] = rim[-static_cast<std::ptrdiff_t>(nn) + k] +
                  rim[static_cast<std::ptrdiff_t>(nn) + k] +
                  rip[-static_cast<std::ptrdiff_t>(nn) + k] +
                  rip[static_cast<std::ptrdiff_t>(nn) + k];
        }
        const double* rc = r_in + base;
        double* uc = u_inout + base;
        for (extent_t k = 1; k < n - 1; ++k) {
          uc[k] += c0 * rc[k] + c1 * (rc[k - 1] + rc[k + 1] + r1[k]) +
                   c2 * (r2[k] + r1[k - 1] + r1[k + 1]);
        }
      }
    }
  }
  kernel_comm3(u_inout, n);
}

void MgOmp::kernel_rprj3(const double* fine, extent_t nf, double* coarse,
                         extent_t nc) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "rprj3", nf);
  SACPP_REQUIRE(nf - 2 == 2 * (nc - 2), "rprj3 level extent mismatch");
  const double p0 = spec_.p[0], p1 = spec_.p[1], p2 = spec_.p[2],
               p3 = spec_.p[3];
  const std::size_t nnf = static_cast<std::size_t>(nf);
  const std::size_t nnc = static_cast<std::size_t>(nc);
#pragma omp parallel
  {
    std::vector<double> b1(nnf), b2(nnf);
    double* x1 = b1.data();
    double* y1 = b2.data();
#pragma omp for
    for (extent_t jc = 1; jc < nc - 1; ++jc) {
      const extent_t i = 2 * jc;
      for (extent_t kc = 1; kc < nc - 1; ++kc) {
        const extent_t j = 2 * kc;
        const std::size_t base =
            (static_cast<std::size_t>(i) * nnf + static_cast<std::size_t>(j)) *
            nnf;
        const double* fim = fine + base - nnf * nnf;
        const double* fip = fine + base + nnf * nnf;
        const double* fjm = fine + base - nnf;
        const double* fjp = fine + base + nnf;
        // Plane sums must extend into the ghost columns: the last interior
        // coarse point reads x1/y1 at fine index nf-1.
        for (extent_t k = 1; k < nf; ++k) {
          x1[k] = fim[-static_cast<std::ptrdiff_t>(nnf) + k] +
                  fim[static_cast<std::ptrdiff_t>(nnf) + k] +
                  fip[-static_cast<std::ptrdiff_t>(nnf) + k] +
                  fip[static_cast<std::ptrdiff_t>(nnf) + k];
          y1[k] = fjm[k] + fjp[k] + fim[k] + fip[k];
        }
        const double* fc = fine + base;
        double* crow = coarse + (static_cast<std::size_t>(jc) * nnc +
                                 static_cast<std::size_t>(kc)) *
                                    nnc;
        for (extent_t mc = 1; mc < nc - 1; ++mc) {
          const extent_t k = 2 * mc;
          crow[mc] = p0 * fc[k] + p1 * (fc[k - 1] + fc[k + 1] + y1[k]) +
                     p2 * (x1[k] + y1[k - 1] + y1[k + 1]) +
                     p3 * (x1[k - 1] + x1[k + 1]);
        }
      }
    }
  }
  kernel_comm3(coarse, nc);
}

void MgOmp::kernel_interp(const double* coarse, extent_t nc, double* fine,
                          extent_t nf) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "interp", nf);
  SACPP_REQUIRE(nf - 2 == 2 * (nc - 2), "interp level extent mismatch");
  const double q1 = spec_.q[1], q2 = spec_.q[2], q3 = spec_.q[3];
  const std::size_t nnf = static_cast<std::size_t>(nf);
  const std::size_t nnc = static_cast<std::size_t>(nc);
#pragma omp parallel
  {
    std::vector<double> b1(nnc), b2(nnc), b3(nnc);
    double* z1 = b1.data();
    double* z2 = b2.data();
    double* z3 = b3.data();
#pragma omp for
    for (extent_t ci = 0; ci < nc - 1; ++ci) {
      for (extent_t cj = 0; cj < nc - 1; ++cj) {
        const std::size_t cbase =
            (static_cast<std::size_t>(ci) * nnc + static_cast<std::size_t>(cj)) *
            nnc;
        const double* zc = coarse + cbase;
        const double* zcj = zc + nnc;
        const double* zci = zc + nnc * nnc;
        const double* zcc = zci + nnc;
        for (extent_t k = 0; k < nc; ++k) {
          z1[k] = zcj[k] + zc[k];
          z2[k] = zci[k] + zc[k];
          z3[k] = zcc[k] + zci[k] + z1[k];
        }
        double* f00 = fine + (static_cast<std::size_t>(2 * ci) * nnf +
                              static_cast<std::size_t>(2 * cj)) *
                                 nnf;
        double* f01 = f00 + nnf;
        double* f10 = f00 + nnf * nnf;
        double* f11 = f10 + nnf;
        for (extent_t ck = 0; ck < nc - 1; ++ck) {
          const extent_t k = 2 * ck;
          f00[k] += zc[ck];
          f00[k + 1] += q1 * (zc[ck + 1] + zc[ck]);
          f01[k] += q1 * z1[ck];
          f01[k + 1] += q2 * (z1[ck] + z1[ck + 1]);
          f10[k] += q1 * z2[ck];
          f10[k + 1] += q2 * (z2[ck] + z2[ck + 1]);
          f11[k] += q2 * z3[ck];
          f11[k + 1] += q3 * (z3[ck] + z3[ck + 1]);
        }
      }
    }
  }
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
  if (lt_ > lb_) {
    const auto slt = static_cast<std::size_t>(lt_);
    kernel_interp(u_[slt - 1].data(), n_[slt - 1], u_[slt].data(), n_[slt]);
    kernel_resid(u_[slt].data(), v_.data(), r_[slt].data(), n_[slt]);
    kernel_psinv(r_[slt].data(), u_[slt].data(), n_[slt]);
  }
}

}  // namespace sacpp::mg
