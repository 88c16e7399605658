#pragma once
// Direct periodic relaxation — the paper's first future-work item (Sec. 7):
//
//   "A direct implementation of relaxation with periodic boundary
//    conditions that makes artificial boundary elements obsolete is most
//    desirable.  On the one hand, it saves the overhead associated with
//    updating these additional elements.  On the other hand, it allows for
//    a benchmark implementation that is even closer to the mathematical
//    specification."
//
// PeriodicStencilExpr applies a coefficient-class stencil to an array
// WITHOUT ghost layers: neighbour indices wrap around modulo the extent.
// Evaluation is split the way a compiler would split the with-loop: points
// whose full neighbourhood is in bounds use the unrolled direct evaluator;
// only the O(n^(rank-1)) boundary points pay for modular arithmetic.
//
// The expression participates in with-loop folding exactly like
// StencilExpr (it satisfies ArrayExpr / Rank3Expr).

#include <algorithm>
#include <array>

#include "sacpp/common/error.hpp"
#include "sacpp/common/shape.hpp"
#include "sacpp/sac/array.hpp"
#include "sacpp/sac/stencil.hpp"
#include "sacpp/sac/with_loop.hpp"

namespace sacpp::sac {

class PeriodicStencilExpr {
 public:
  PeriodicStencilExpr(Array<double> a, const StencilCoeffs& coeffs,
                      StencilMode mode = active_config().stencil_mode)
      : a_(std::move(a)), c_(coeffs), mode_(mode), be_(&active_backend()) {
    a_.materialise();  // the evaluators read raw rows on the workers
    const Shape& shp = a_.shape();
    SACPP_REQUIRE(shp.rank() >= 1, "stencil needs rank >= 1");
    extent_t min_extent = shp.extent(0);
    for (std::size_t d = 0; d < shp.rank(); ++d) {
      SACPP_REQUIRE(shp.extent(d) >= 2,
                    "periodic stencil needs extent >= 2 per dimension");
      min_extent = std::min(min_extent, shp.extent(d));
    }
    if (shp.rank() == 3) {
      s0_ = shp.extent(1) * shp.extent(2);
      s1_ = shp.extent(2);
      planes_rows_ = mode_ == StencilMode::kPlanes &&
                     min_extent >= active_config().stencil_planes_cutover;
    }
  }

  const Shape& shape() const { return a_.shape(); }
  const Array<double>& argument() const { return a_; }
  StencilMode mode() const { return mode_; }

  double operator()(const IndexVec& iv) const {
    const Shape& shp = a_.shape();
    if (shp.rank() == 3) return (*this)(iv[0], iv[1], iv[2]);
    return wrapped_generic(iv);
  }

  double operator()(extent_t i, extent_t j, extent_t k) const {
    const Shape& shp = a_.shape();
    const extent_t n0 = shp.extent(0), n1 = shp.extent(1),
                   n2 = shp.extent(2);
    if (i >= 1 && i < n0 - 1 && j >= 1 && j < n1 - 1 && k >= 1 &&
        k < n2 - 1) {
      return direct3((i * n1 + j) * n2 + k);
    }
    return wrapped3(i, j, k);
  }

  // -- kPlanes row-fill protocol (detail::RowFillBody) ------------------------
  //
  // Unlike the fixed-boundary StencilExpr, the factorised form here covers
  // EVERY output row: the nine source rows are taken with their i/j
  // coordinates wrapped, so the boundary ring needs no per-point modular
  // fallback, and only the first/last k positions pay a wrapped combine.

  bool row_fill_enabled() const { return planes_rows_; }

  PlaneScratch make_row_state() const {
    return PlaneScratch(a_.shape().extent(2));
  }

  void fill_row(PlaneScratch& st, extent_t i, extent_t j, double* out,
                extent_t k_lo, extent_t k_hi) const {
    const Shape& shp = a_.shape();
    const extent_t n0 = shp[0], n1 = shp[1], n2 = shp[2];
    const extent_t iw = (i + n0 - 1) % n0, ie = (i + 1) % n0;
    const extent_t jw = (j + n1 - 1) % n1, je = (j + 1) % n1;
    const double* base = a_.data();
    auto row = [&](extent_t x, extent_t y) {
      return base + x * s0_ + y * s1_;
    };
    // Reads only — overlapping pointers on extent-2 axes stay legal inside
    // the backend's plane kernel.
    be_->plane_sums(row(iw, j), row(ie, j), row(i, jw), row(i, je),
                    row(iw, jw), row(iw, je), row(ie, jw), row(ie, je),
                    st.u1(), st.u2(), n2);
    const double* uc = row(i, j);
    const double* u1 = st.u1();
    const double* u2 = st.u2();
    double* o = out;
    auto combine = [&](extent_t k, extent_t km, extent_t kp) {
      o[k] = c_[0] * uc[k] + c_[1] * ((u1[k] + uc[km]) + uc[kp]) +
             c_[2] * ((u2[k] + u1[km]) + u1[kp]) +
             c_[3] * (u2[km] + u2[kp]);
    };
    if (k_lo == 0) combine(0, n2 - 1, 1 % n2);
    // Interior points use the backend row combine; only the wrapped first
    // and last k pay the modular lookup above/below.
    be_->combine_row(c_.c.data(), uc, u1, u2, o,
                     std::max<extent_t>(k_lo, 1),
                     std::min<extent_t>(k_hi, n2 - 1));
    if (k_hi == n2 && n2 >= 2) combine(n2 - 1, n2 - 2, 0);
    st.rows += 1;
  }

 private:
  // Interior: identical arithmetic (and association order) to
  // StencilExpr::at_linear3 so the two formulations agree bitwise there.
  double direct3(extent_t centre) const {
    const double* c = a_.data() + centre;
    const double* im = c - s0_;
    const double* ip = c + s0_;
    const double* jm = c - s1_;
    const double* jp = c + s1_;
    const double* imm = im - s1_;
    const double* imp = im + s1_;
    const double* ipm = ip - s1_;
    const double* ipp = ip + s1_;
    const double faces = im[0] + ip[0] + jm[0] + jp[0] + c[-1] + c[1];
    const double edges = imm[0] + imp[0] + ipm[0] + ipp[0] + im[-1] + im[1] +
                         ip[-1] + ip[1] + jm[-1] + jm[1] + jp[-1] + jp[1];
    const double corners = imm[-1] + imm[1] + imp[-1] + imp[1] + ipm[-1] +
                           ipm[1] + ipp[-1] + ipp[1];
    return c_[0] * c[0] + c_[1] * faces + c_[2] * edges + c_[3] * corners;
  }

  // Boundary points: neighbour coordinates wrap modulo the extent.  Sums
  // are grouped per class in the same order as the direct evaluator.
  double wrapped3(extent_t i, extent_t j, extent_t k) const {
    const Shape& shp = a_.shape();
    const extent_t n0 = shp.extent(0), n1 = shp.extent(1),
                   n2 = shp.extent(2);
    const extent_t im = (i + n0 - 1) % n0, ip = (i + 1) % n0;
    const extent_t jm = (j + n1 - 1) % n1, jp = (j + 1) % n1;
    const extent_t km = (k + n2 - 1) % n2, kp = (k + 1) % n2;
    const double* p = a_.data();
    auto at = [&](extent_t x, extent_t y, extent_t z) {
      return p[(x * n1 + y) * n2 + z];
    };
    const double faces = at(im, j, k) + at(ip, j, k) + at(i, jm, k) +
                         at(i, jp, k) + at(i, j, km) + at(i, j, kp);
    const double edges = at(im, jm, k) + at(im, jp, k) + at(ip, jm, k) +
                         at(ip, jp, k) + at(im, j, km) + at(im, j, kp) +
                         at(ip, j, km) + at(ip, j, kp) + at(i, jm, km) +
                         at(i, jm, kp) + at(i, jp, km) + at(i, jp, kp);
    const double corners = at(im, jm, km) + at(im, jm, kp) + at(im, jp, km) +
                           at(im, jp, kp) + at(ip, jm, km) + at(ip, jm, kp) +
                           at(ip, jp, km) + at(ip, jp, kp);
    return c_[0] * at(i, j, k) + c_[1] * faces + c_[2] * edges +
           c_[3] * corners;
  }

  // Any-rank fallback via the cached offset table, wrapping per axis.
  double wrapped_generic(const IndexVec& iv) const {
    const Shape& shp = a_.shape();
    std::array<double, 4> sums{};
    IndexVec src(iv.size());
    for (const auto& e : StencilTable::for_rank(shp.rank()).entries()) {
      for (std::size_t d = 0; d < iv.size(); ++d) {
        const extent_t n = shp.extent(d);
        src[d] = (iv[d] + e.offset[d] + n) % n;
      }
      sums[static_cast<std::size_t>(e.cls)] += a_[src];
    }
    double acc = 0.0;
    for (std::size_t cls = 0; cls < 4; ++cls) acc += c_[cls] * sums[cls];
    return acc;
  }

  Array<double> a_;
  StencilCoeffs c_;
  StencilMode mode_;
  const Backend* be_;  // row-primitive engine, snapshotted at construction
  extent_t s0_ = 0;
  extent_t s1_ = 0;
  bool planes_rows_ = false;  // kPlanes row path active (rank 3, >= cutover)
};

// Eager form: one with-loop over the whole (ghost-free) grid.  The default
// mode is the process-wide SacConfig::stencil_mode (evaluated per call).
Array<double> relax_kernel_periodic(const Array<double>& a,
                                    const StencilCoeffs& coeffs,
                                    StencilMode mode = active_config().stencil_mode);

}  // namespace sacpp::sac
