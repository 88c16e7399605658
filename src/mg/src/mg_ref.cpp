#include "sacpp/mg/mg_ref.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "sacpp/common/error.hpp"
#include "sacpp/mg/problem.hpp"
#include "sacpp/mg/profiler.hpp"

namespace sacpp::mg {

MgRef::MgRef(const MgSpec& spec) : spec_(spec), lt_(spec.levels()) {
  SACPP_REQUIRE(lt_ > lb_, "MG needs at least two levels");
  n_.assign(static_cast<std::size_t>(lt_) + 1, 0);
  off_u_.assign(static_cast<std::size_t>(lt_) + 1, 0);
  off_r_.assign(static_cast<std::size_t>(lt_) + 1, 0);
  std::size_t total = 0;
  for (int k = lb_; k <= lt_; ++k) {
    n_[static_cast<std::size_t>(k)] = (extent_t{1} << k) + 2;
    off_u_[static_cast<std::size_t>(k)] = total;
    total += cube(k);
    off_r_[static_cast<std::size_t>(k)] = total;
    total += cube(k);
  }
  off_v_ = total;
  total += cube(lt_);
  arena_.assign(total, 0.0);  // the single static allocation
  const auto nmax = static_cast<std::size_t>(n_[static_cast<std::size_t>(lt_)]);
  buf1_.assign(nmax, 0.0);
  buf2_.assign(nmax, 0.0);
  buf3_.assign(nmax, 0.0);
}

void MgRef::set_rhs(std::span<const double> v_ext) {
  SACPP_REQUIRE(v_ext.size() == cube(lt_), "RHS buffer size mismatch");
  std::copy(v_ext.begin(), v_ext.end(), top_v());
}

void MgRef::setup_default_rhs() {
  fill_rhs(std::span<double>(top_v(), cube(lt_)), spec_.nx);
}

void MgRef::zero_u() {
  for (int k = lb_; k <= lt_; ++k) {
    std::memset(level_u(k), 0, cube(k) * sizeof(double));
  }
}

void MgRef::initial_resid() {
  kernel_resid(level_u(lt_), top_v(), level_r(lt_), n_[static_cast<std::size_t>(lt_)]);
}

void MgRef::iterate(int count) {
  for (int it = 0; it < count; ++it) {
    mg3p();
    initial_resid();
  }
}

double MgRef::residual_norm() const {
  return interior_l2_norm(r(), n_[static_cast<std::size_t>(lt_)]);
}

std::span<const double> MgRef::u() const {
  return {level_u(lt_), cube(lt_)};
}
std::span<const double> MgRef::v() const { return {top_v(), cube(lt_)}; }
std::span<const double> MgRef::r() const {
  return {level_r(lt_), cube(lt_)};
}

// ---------------------------------------------------------------------------
// Plane-range kernels
// ---------------------------------------------------------------------------

namespace {

// Offset of row (i, j) in a grid whose rows hold n values.
std::size_t row(extent_t n, extent_t i, extent_t j) {
  return static_cast<std::size_t>((i * n + j) * n);
}

}  // namespace

void resid_planes(const MgSpec& spec, const double* u, const double* v,
                  double* r, extent_t n, extent_t lo, extent_t hi,
                  double* __restrict u1, double* __restrict u2) {
  const double a0 = spec.a[0], a2 = spec.a[2], a3 = spec.a[3];
  // a[1] == 0 for the benchmark operator A; the reference code omits its
  // term entirely (the "4 multiplications" optimisation).
  SACPP_ASSERT(spec.a[1] == 0.0, "reference resid assumes a[1] == 0");
  const auto nn = static_cast<std::size_t>(n);
  const auto s = static_cast<std::ptrdiff_t>(n);  // one row back or ahead
  for (extent_t i = lo; i < hi; ++i) {
    for (extent_t j = 1; j < n - 1; ++j) {
      const std::size_t c = row(n, i, j);
      const double* um = u + c - nn * nn;  // plane i-1, row j
      const double* up = u + c + nn * nn;  // plane i+1, row j
      const double* ujm = u + c - nn;
      const double* ujp = u + c + nn;
      for (extent_t k = 0; k < n; ++k) {
        u1[k] = ujm[k] + ujp[k] + um[k] + up[k];
        u2[k] = um[-s + k] + um[s + k] + up[-s + k] + up[s + k];
      }
      const double* uc = u + c;
      const double* vc = v + c;
      double* rc = r + c;
      for (extent_t k = 1; k < n - 1; ++k) {
        rc[k] = vc[k] - a0 * uc[k] - a2 * (u2[k] + u1[k - 1] + u1[k + 1]) -
                a3 * (u2[k - 1] + u2[k + 1]);
      }
    }
  }
}

void psinv_planes(const MgSpec& spec, const double* r, double* u, extent_t n,
                  extent_t lo, extent_t hi, double* __restrict r1,
                  double* __restrict r2) {
  const double c0 = spec.s[0], c1 = spec.s[1], c2 = spec.s[2];
  // c[3] == 0 for both benchmark smoother coefficient sets.
  SACPP_ASSERT(spec.s[3] == 0.0, "reference psinv assumes c[3] == 0");
  const auto nn = static_cast<std::size_t>(n);
  const auto s = static_cast<std::ptrdiff_t>(n);
  for (extent_t i = lo; i < hi; ++i) {
    for (extent_t j = 1; j < n - 1; ++j) {
      const std::size_t c = row(n, i, j);
      const double* rim = r + c - nn * nn;
      const double* rip = r + c + nn * nn;
      const double* rjm = r + c - nn;
      const double* rjp = r + c + nn;
      for (extent_t k = 0; k < n; ++k) {
        r1[k] = rjm[k] + rjp[k] + rim[k] + rip[k];
        r2[k] = rim[-s + k] + rim[s + k] + rip[-s + k] + rip[s + k];
      }
      const double* rc = r + c;
      double* uc = u + c;
      for (extent_t k = 1; k < n - 1; ++k) {
        uc[k] += c0 * rc[k] + c1 * (rc[k - 1] + rc[k + 1] + r1[k]) +
                 c2 * (r2[k] + r1[k - 1] + r1[k + 1]);
      }
    }
  }
}

void rprj3_planes(const MgSpec& spec, const double* fine, extent_t nf,
                  double* coarse, extent_t nc, extent_t lo, extent_t hi,
                  double* __restrict x1, double* __restrict y1) {
  SACPP_REQUIRE(nf - 2 == 2 * (nc - 2), "rprj3 level extent mismatch");
  const double p0 = spec.p[0], p1 = spec.p[1], p2 = spec.p[2],
               p3 = spec.p[3];
  const auto nnf = static_cast<std::size_t>(nf);
  const auto s = static_cast<std::ptrdiff_t>(nf);
  for (extent_t ic = lo; ic < hi; ++ic) {
    for (extent_t jc = 1; jc < nc - 1; ++jc) {
      const std::size_t c = row(nf, 2 * ic, 2 * jc);
      const double* fim = fine + c - nnf * nnf;
      const double* fip = fine + c + nnf * nnf;
      const double* fjm = fine + c - nnf;
      const double* fjp = fine + c + nnf;
      // Plane sums must extend into the ghost columns: the last interior
      // coarse point reads x1/y1 at fine index nf-1.
      for (extent_t k = 1; k < nf; ++k) {
        x1[k] = fim[-s + k] + fim[s + k] + fip[-s + k] + fip[s + k];
        y1[k] = fjm[k] + fjp[k] + fim[k] + fip[k];
      }
      const double* fc = fine + c;
      double* cc = coarse + row(nc, ic, jc);
      for (extent_t kc = 1; kc < nc - 1; ++kc) {
        const extent_t k = 2 * kc;
        cc[kc] = p0 * fc[k] + p1 * (fc[k - 1] + fc[k + 1] + y1[k]) +
                 p2 * (x1[k] + y1[k - 1] + y1[k + 1]) +
                 p3 * (x1[k - 1] + x1[k + 1]);
      }
    }
  }
}

void interp_planes(const MgSpec& spec, const double* coarse, extent_t nc,
                   double* fine, extent_t nf, extent_t lo, extent_t hi,
                   extent_t flo, extent_t fhi, double* __restrict z1,
                   double* __restrict z2, double* __restrict z3) {
  SACPP_REQUIRE(nf - 2 == 2 * (nc - 2), "interp level extent mismatch");
  const double q1 = spec.q[1], q2 = spec.q[2], q3 = spec.q[3];
  SACPP_ASSERT(spec.q[0] == 1.0, "reference interp assumes q[0] == 1");
  const auto nnf = static_cast<std::size_t>(nf);
  const auto nnc = static_cast<std::size_t>(nc);
  for (extent_t ic = lo; ic < hi; ++ic) {
    const bool even = 2 * ic >= flo && 2 * ic < fhi;
    const bool odd = 2 * ic + 1 >= flo && 2 * ic + 1 < fhi;
    if (!even && !odd) continue;
    for (extent_t jc = 0; jc < nc - 1; ++jc) {
      const double* zc = coarse + row(nc, ic, jc);
      const double* zcj = zc + nnc;
      const double* zci = zc + nnc * nnc;
      const double* zcc = zci + nnc;
      for (extent_t k = 0; k < nc; ++k) {
        z1[k] = zcj[k] + zc[k];  // j-pair sums
        z2[k] = zci[k] + zc[k];  // i-pair sums
        z3[k] = zcc[k] + zci[k] + z1[k];  // (i, j) quad sums
      }
      double* f00 = fine + row(nf, 2 * ic, 2 * jc);
      double* f01 = f00 + nnf;
      double* f10 = f00 + nnf * nnf;
      double* f11 = f10 + nnf;
      // One loop over the four fine rows, as NPB has it: on grids past the
      // cache it runs ~15% faster than a loop per plane.  Only a slab's
      // boundary cells leave one of their two planes out.
      auto add_rows = [&](auto to_even, auto to_odd) {
        for (extent_t kc = 0; kc < nc - 1; ++kc) {
          const extent_t k = 2 * kc;
          if constexpr (decltype(to_even)::value) {
            f00[k] += zc[kc];
            f00[k + 1] += q1 * (zc[kc + 1] + zc[kc]);
            f01[k] += q1 * z1[kc];
            f01[k + 1] += q2 * (z1[kc] + z1[kc + 1]);
          }
          if constexpr (decltype(to_odd)::value) {
            f10[k] += q1 * z2[kc];
            f10[k + 1] += q2 * (z2[kc] + z2[kc + 1]);
            f11[k] += q2 * z3[kc];
            f11[k + 1] += q3 * (z3[kc] + z3[kc + 1]);
          }
        }
      };
      if (even && odd) {
        add_rows(std::true_type{}, std::true_type{});
      } else if (even) {
        add_rows(std::true_type{}, std::false_type{});
      } else {
        add_rows(std::false_type{}, std::true_type{});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// MgRef kernels: the full interior, then the border exchange
// ---------------------------------------------------------------------------

void MgRef::kernel_resid(const double* u_in, const double* v_in, double* r_out,
                         extent_t n) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "resid", n);
  resid_planes(spec_, u_in, v_in, r_out, n, 1, n - 1, buf1_.data(),
               buf2_.data());
  const auto nn = static_cast<std::size_t>(n);
  periodic_border_3d(std::span<double>(r_out, nn * nn * nn), n);
}

void MgRef::kernel_psinv(const double* r_in, double* u_inout,
                         extent_t n) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "psinv", n);
  psinv_planes(spec_, r_in, u_inout, n, 1, n - 1, buf1_.data(),
               buf2_.data());
  const auto nn = static_cast<std::size_t>(n);
  periodic_border_3d(std::span<double>(u_inout, nn * nn * nn), n);
}

void MgRef::kernel_rprj3(const double* fine, extent_t nf, double* coarse,
                         extent_t nc) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "rprj3", nf);
  rprj3_planes(spec_, fine, nf, coarse, nc, 1, nc - 1, buf1_.data(),
               buf2_.data());
  const auto nnc = static_cast<std::size_t>(nc);
  periodic_border_3d(std::span<double>(coarse, nnc * nnc * nnc), nc);
}

void MgRef::kernel_interp(const double* coarse, extent_t nc, double* fine,
                          extent_t nf) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "interp", nf);
  interp_planes(spec_, coarse, nc, fine, nf, 0, nc - 1, 0, nf, buf1_.data(),
                buf2_.data(), buf3_.data());
}

void MgRef::mg3p() {
  {
    LevelScope scope(lt_);
    kernel_rprj3(level_r(lt_), n_[static_cast<std::size_t>(lt_)],
                 level_r(lt_ - 1), n_[static_cast<std::size_t>(lt_ - 1)]);
  }
  vcycle(lt_ - 1);
  LevelScope scope(lt_);
  const extent_t nt = n_[static_cast<std::size_t>(lt_)];
  kernel_interp(level_u(lt_ - 1), n_[static_cast<std::size_t>(lt_ - 1)],
                level_u(lt_), nt);
  kernel_resid(level_u(lt_), top_v(), level_r(lt_), nt);
  kernel_psinv(level_r(lt_), level_u(lt_), nt);
}

void MgRef::vcycle(int top) {
  // Downward: restrict the residual hierarchy to the coarsest level.
  for (int k = top; k > lb_; --k) {
    LevelScope scope(k);
    kernel_rprj3(level_r(k), n_[static_cast<std::size_t>(k)], level_r(k - 1),
                 n_[static_cast<std::size_t>(k - 1)]);
  }
  // Bottom: one smoothing step from a zero correction.
  {
    LevelScope scope(lb_);
    std::memset(level_u(lb_), 0, cube(lb_) * sizeof(double));
    kernel_psinv(level_r(lb_), level_u(lb_),
                 n_[static_cast<std::size_t>(lb_)]);
  }
  // Upward: prolongate, correct the residual, smooth.
  for (int k = lb_ + 1; k <= top; ++k) {
    LevelScope scope(k);
    const extent_t n = n_[static_cast<std::size_t>(k)];
    std::memset(level_u(k), 0, cube(k) * sizeof(double));
    kernel_interp(level_u(k - 1), n_[static_cast<std::size_t>(k - 1)],
                  level_u(k), n);
    kernel_resid(level_u(k), level_r(k), level_r(k), n);
    kernel_psinv(level_r(k), level_u(k), n);
  }
}

}  // namespace sacpp::mg
