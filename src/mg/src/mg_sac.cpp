#include "sacpp/mg/mg_sac.hpp"

#include <cmath>
#include <functional>
#include <vector>

#include "sacpp/common/error.hpp"
#include "sacpp/mg/profiler.hpp"

namespace sacpp::mg {

using sac::Array;
using sac::force;
using sac::gen_interior;
using sac::gen_range;
using sac::relax_kernel;
using sac::StencilExpr;
using sac::with_fold;
using sac::with_modarray_reading;

namespace {

// Extended grids must have extent 2^k + 2 along every axis.
void check_extended(const Array<double>& a) {
  SACPP_REQUIRE(a.rank() >= 1, "MG grids must have rank >= 1");
  for (std::size_t d = 0; d < a.rank(); ++d) {
    const extent_t n = a.shape().extent(d) - 2;
    SACPP_REQUIRE(n >= 2 && (n & (n - 1)) == 0,
                  "MG extended grid extent must be 2^k + 2 with k >= 1");
  }
}

}  // namespace

// One shift partition per ghost face: the iv[d] == 0 face receives interior
// layer n-2 (the array at iv + (n-2)·e_d) and the iv[d] == n-1 face layer 1
// (at iv - (n-2)·e_d).  Later axes read the ghosts earlier ones wrote, which
// fills edges and corners.
Array<double> MgSac::setup_periodic_border(Array<double> a) {
  const std::size_t rank = a.rank();
  const Shape shp = a.shape();
  std::vector<sac::ReadingPartition<double>> parts;
  parts.reserve(2 * rank);
  for (std::size_t d = 0; d < rank; ++d) {
    const extent_t n = shp.extent(d);
    SACPP_REQUIRE(n >= 3, "periodic border needs extent >= 3");
    IndexVec shift = uniform_vec(rank, 0);

    IndexVec low_up(shp.extents().begin(), shp.extents().end());
    low_up[d] = 1;
    shift[d] = n - 2;
    parts.push_back(sac::shift_partition<double>(
        gen_range(uniform_vec(rank, 0), std::move(low_up)), shift));

    IndexVec high_lo = uniform_vec(rank, 0);
    high_lo[d] = n - 1;
    shift[d] = -(n - 2);
    parts.push_back(sac::shift_partition<double>(
        gen_range(std::move(high_lo), shp.extents()), std::move(shift)));
  }
  return with_modarray_reading(std::move(a), parts);
}

Array<double> MgSac::resid(const Array<double>& u) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "resid");
  Array<double> ub = setup_periodic_border(u);
  return relax_kernel(ub, spec_.a);
}

Array<double> MgSac::smooth(const Array<double>& r) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "psinv");
  Array<double> rb = setup_periodic_border(r);
  return relax_kernel(rb, spec_.s);
}

Array<double> MgSac::fine2coarse(const Array<double>& r) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "rprj3");
  if (sac::active_config().folding) return fine2coarse_fused(r);
  Array<double> rs = setup_periodic_border(r);
  Array<double> rr = relax_kernel(rs, spec_.p);
  Array<double> rc = sac::condense(2, rr);
  return sac::embed(rc.shape().extents() + 1, 0 * rc.shape().extents(), rc);
}

Array<double> MgSac::coarse2fine(const Array<double>& rn) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "interp");
  if (sac::active_config().folding) return coarse2fine_fused(rn);
  Array<double> rp = setup_periodic_border(rn);
  Array<double> rs = sac::scatter(2, rp);
  Array<double> rt = sac::take(rs.shape().extents() - 2, rs);
  return relax_kernel(rt, spec_.q);
}

// -- fused forms (with-loop folding on) --------------------------------------

// r - A u and z + S r are ewise expressions whose left array, when it is
// the caller's last reference, takes the result in place (force's reuse
// rule, D2): the V-cycle passes its r and z that way.
Array<double> MgSac::sub_resid_fused(Array<double> v,
                                     const Array<double>& u) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "resid");
  return force(sac::ewise(std::move(v),
                          StencilExpr(setup_periodic_border(u), spec_.a),
                          std::minus<>{}));
}

Array<double> MgSac::add_smooth_fused(Array<double> z,
                                      const Array<double>& r) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "psinv");
  return force(sac::ewise(std::move(z),
                          StencilExpr(setup_periodic_border(r), spec_.s),
                          std::plus<>{}));
}

Array<double> MgSac::fine2coarse_fused(const Array<double>& r) const {
  Array<double> rs = setup_periodic_border(r);
  auto relaxed = StencilExpr(std::move(rs), spec_.p);
  auto rc = sac::lazy_condense(2, std::move(relaxed));
  const IndexVec coarse_shape = rc.shape().extents() + 1;
  const IndexVec zero = 0 * coarse_shape;
  // One with-loop evaluates the P-stencil only at the condensed points.
  return force(sac::lazy_embed(coarse_shape, zero, std::move(rc)));
}

Array<double> MgSac::coarse2fine_fused(const Array<double>& rn) const {
  Array<double> rp = setup_periodic_border(rn);
  // The Q-relaxation folds over scatter + take: it reads the bordered
  // coarse grid straight through, 1, 2, 4 or 8 taps per fine point, and the
  // scattered grid is never built (scatter_stencil.hpp).  Stencils
  // otherwise fold only over concrete arrays, sac2c's profitability rule;
  // this fold divides the work instead of multiplying it.
  const IndexVec fine_shape = 2 * rp.shape().extents() - 2;
  return relax_kernel(
      sac::lazy_take(fine_shape, sac::lazy_scatter(2, std::move(rp))),
      spec_.q);
}

Array<double> MgSac::residual(const Array<double>& v,
                              const Array<double>& u) const {
  SACPP_REQUIRE(v.shape() == u.shape(), "residual shape mismatch");
  return sac::active_config().folding ? sub_resid_fused(v, u) : v - resid(u);
}

// -- the V-cycle --------------------------------------------------------------

namespace {

// V-cycle level of an extended grid: 2^k + 2 extent -> level k.
int level_of(const Array<double>& a) {
  int k = 0;
  extent_t n = a.shape().extent(0) - 2;
  while (n > 1) {
    n /= 2;
    ++k;
  }
  return k;
}

}  // namespace

Array<double> MgSac::vcycle(Array<double> r) const {
  const bool folded = sac::active_config().folding;
  const int level = level_of(r);
  if (r.shape().extent(0) > 2 + 2) {
    Array<double> rn;
    {
      LevelScope scope(level);  // this level's work, recursion excluded
      rn = fine2coarse(r);
    }
    const Array<double> zn = vcycle(std::move(rn));
    LevelScope scope(level);
    Array<double> z = coarse2fine(zn);
    if (folded) {
      // r's last use: r - A z overwrites it in place.
      Array<double> r2 = sub_resid_fused(std::move(r), z);
      return add_smooth_fused(std::move(z), r2);  // z updated in place
    }
    Array<double> r2 = r - resid(z);
    return std::move(z) + smooth(r2);  // z's last use: updated in place
  }
  LevelScope scope(level);
  return smooth(r);
}

Array<double> MgSac::mgrid(const Array<double>& v, int iter) const {
  check_extended(v);
  Array<double> u = sac::genarray_const(v.shape(), 0.0);
  for (int i = 0; i < iter; ++i) {
    Array<double> r = residual(v, u);
    // u's reference count drops to one here, so the addition reuses its
    // buffer in place — what SAC's reference counting does for
    // `u = u + VCycle(r)` — and VCycle consumes r.
    u = std::move(u) + vcycle(std::move(r));
  }
  return u;
}

double MgSac::residual_norm(const Array<double>& v,
                            const Array<double>& u) const {
  SACPP_REQUIRE(v.shape() == u.shape(), "residual_norm shape mismatch");
  Array<double> r = residual(v, u);
  const Shape& shp = r.shape();
  const double ss =
      with_fold(std::plus<>{}, 0.0, shp, gen_interior(shp), sac::sum_sq_rows(r));
  double points = 1.0;
  for (std::size_t d = 0; d < shp.rank(); ++d) {
    points *= static_cast<double>(shp.extent(d) - 2);
  }
  return std::sqrt(ss / points);
}

}  // namespace sacpp::mg
