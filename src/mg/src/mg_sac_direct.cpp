#include "sacpp/mg/mg_sac_direct.hpp"

#include <cmath>

#include "sacpp/common/error.hpp"
#include "sacpp/mg/profiler.hpp"

namespace sacpp::mg {

using sac::Array;
using sac::force;
using sac::relax_kernel_periodic;
using sac::StencilExpr;

namespace {

// Ghost-free MG grids are pure 2^k cubes.
void check_pure(const Array<double>& a) {
  SACPP_REQUIRE(a.rank() >= 1, "MG grids must have rank >= 1");
  for (std::size_t d = 0; d < a.rank(); ++d) {
    const extent_t n = a.shape().extent(d);
    SACPP_REQUIRE(n >= 2 && (n & (n - 1)) == 0,
                  "ghost-free MG grid extent must be 2^k with k >= 1");
  }
}

// Grid-transfer sampling phase: the benchmark's coarse point j sits at the
// fine point 2j (1-based), which is pure index 2*(c+1)-1 = 2c+1 — so the
// condense/scatter pair samples with phase 1.
constexpr extent_t kPhase = 1;

// V-cycle level of a ghost-free grid: 2^k extent -> level k.
int level_of(const Array<double>& a) {
  int k = 0;
  extent_t n = a.shape().extent(0);
  while (n > 1) {
    n /= 2;
    ++k;
  }
  return k;
}

}  // namespace

Array<double> MgSacDirect::resid(const Array<double>& u) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "resid");
  return relax_kernel_periodic(u, spec_.a);
}

Array<double> MgSacDirect::smooth(const Array<double>& r) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "psinv");
  return relax_kernel_periodic(r, spec_.s);
}

Array<double> MgSacDirect::fine2coarse(const Array<double>& r) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "rprj3");
  if (sac::active_config().folding) {
    // One with-loop: the P stencil evaluated at the condensed points only.
    return force(sac::lazy_condense(2, StencilExpr::periodic(r, spec_.p),
                                    kPhase));
  }
  return force(sac::lazy_condense(2, relax_kernel_periodic(r, spec_.p),
                                  kPhase));
}

Array<double> MgSacDirect::coarse2fine(const Array<double>& zn) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "interp");
  Array<double> scattered = force(sac::lazy_scatter(2, zn, kPhase));
  return relax_kernel_periodic(scattered, spec_.q);
}

Array<double> MgSacDirect::residual(const Array<double>& v,
                                    const Array<double>& u) const {
  SACPP_REQUIRE(v.shape() == u.shape(), "residual shape mismatch");
  if (sac::active_config().folding) {
    return force(
        sac::ewise(v, StencilExpr::periodic(u, spec_.a), std::minus<>{}));
  }
  return v - resid(u);
}

Array<double> MgSacDirect::vcycle(Array<double> r) const {
  const int level = level_of(r);
  if (r.shape().extent(0) > 2) {
    Array<double> rn;
    {
      LevelScope scope(level);  // this level's work, recursion excluded
      rn = fine2coarse(r);
    }
    Array<double> zn = vcycle(std::move(rn));
    LevelScope scope(level);
    Array<double> z = coarse2fine(zn);
    if (sac::active_config().folding) {
      // r's and then z's last use: each update is written in place.
      Array<double> r2 = force(sac::ewise(
          std::move(r), StencilExpr::periodic(z, spec_.a), std::minus<>{}));
      return force(sac::ewise(std::move(z),
                              StencilExpr::periodic(std::move(r2), spec_.s),
                              std::plus<>{}));
    }
    Array<double> r2 = r - resid(z);
    return std::move(z) + smooth(r2);
  }
  LevelScope scope(level);
  return smooth(r);
}

Array<double> MgSacDirect::mgrid(const Array<double>& v, int iter) const {
  check_pure(v);
  Array<double> u = sac::genarray_const(v.shape(), 0.0);
  for (int i = 0; i < iter; ++i) {
    Array<double> r = residual(v, u);
    u = std::move(u) + vcycle(std::move(r));
  }
  return u;
}

double MgSacDirect::residual_norm(const Array<double>& v,
                                  const Array<double>& u) const {
  Array<double> r = residual(v, u);
  const double ss = sac::with_fold(std::plus<>{}, 0.0, r.shape(),
                                   sac::gen_all(), sac::sum_sq_rows(r));
  return std::sqrt(ss / static_cast<double>(r.elem_count()));
}

Array<double> MgSacDirect::smooth_rbgs(Array<double> u,
                                       const Array<double>& v) const {
  check_pure(u);
  SACPP_REQUIRE(u.shape() == v.shape(), "smoother shape mismatch");
  const Shape shp = u.shape();
  const std::size_t rank = shp.rank();
  const sac::StencilCoeffs a = spec_.a;
  const auto& table = sac::StencilTable::for_rank(rank);

  // Gauss-Seidel update of one point: solve the stencil row for the centre,
  // reading neighbours (periodically wrapped) from the in-place buffer.
  auto gs = [&v, shp, a, &table](const IndexVec& iv, const double* self) {
    double acc = 0.0;
    IndexVec src(iv.size());
    for (const auto& e : table.entries()) {
      if (e.cls == 0) continue;
      for (std::size_t d = 0; d < iv.size(); ++d) {
        const extent_t n = shp.extent(d);
        src[d] = (iv[d] + e.offset[d] + n) % n;
      }
      acc += a[static_cast<std::size_t>(e.cls)] * self[shp.linearize(src)];
    }
    return (v[iv] - acc) / a[0];
  };

  // The 27-point operator couples diagonal neighbours, so the classic
  // two-colour checkerboard is not independent; per-axis parity gives
  // 2^rank colours, each exactly one step-2 grid partition whose points
  // are mutually non-adjacent.  Later colours read earlier updates.
  std::vector<sac::ReadingPartition<double>> colors;
  const extent_t patterns = extent_t{1} << rank;
  for (extent_t c = 0; c < patterns; ++c) {
    IndexVec lower(rank);
    for (std::size_t d = 0; d < rank; ++d) {
      lower[d] = (c >> d) & 1;
    }
    sac::Gen g = sac::gen_range(std::move(lower), shp.extents());
    g.step = uniform_vec(rank, 2);
    colors.push_back(sac::ReadingPartition<double>{std::move(g), gs});
  }
  return sac::with_modarray_reading(std::move(u), colors);
}

Array<double> MgSacDirect::mgrid_rbgs(const Array<double>& v,
                                      int iter) const {
  check_pure(v);
  // V-cycle with multi-colour Gauss-Seidel smoothing of A z = r.
  auto vcycle_rbgs = [this](auto&& self,
                            const Array<double>& r) -> Array<double> {
    if (r.shape().extent(0) > 2) {
      Array<double> rn = fine2coarse(r);
      Array<double> zn = self(self, rn);
      Array<double> z = coarse2fine(zn);
      return smooth_rbgs(std::move(z), r);
    }
    return smooth_rbgs(sac::genarray_const(r.shape(), 0.0), r);
  };
  Array<double> u = sac::genarray_const(v.shape(), 0.0);
  for (int i = 0; i < iter; ++i) {
    Array<double> r = residual(v, u);
    u = std::move(u) + vcycle_rbgs(vcycle_rbgs, r);
  }
  return u;
}

Array<double> MgSacDirect::strip_ghosts(const Array<double>& extended) {
  const std::size_t rank = extended.rank();
  IndexVec pure(rank);
  for (std::size_t d = 0; d < rank; ++d) {
    pure[d] = extended.shape().extent(d) - 2;
    SACPP_REQUIRE(pure[d] >= 2, "extended grid too small to strip");
  }
  return sac::with_genarray<double>(
      Shape(pure),
      [&extended](const IndexVec& iv) { return extended[iv + 1]; });
}

}  // namespace sacpp::mg
