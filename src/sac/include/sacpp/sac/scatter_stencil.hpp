#pragma once
// A coefficient-class stencil over a stride-2 scatter, read straight from
// the scattered array: the paper's Coarse2Fine,
// RelaxKernel(take(scatter(2, zn)), Q), without the scattered grid; and its
// periodic form, the ghost-free Coarse2Fine(z) = Q(scatter(2, z)) (Sec. 7).
//
// The scattered grid is 7/8 gaps.  Along an axis, fine index x holds source
// element (x - phase)/2 when x - phase is even and 0 otherwise, so among the
// neighbours x-1, x, x+1 only the centre is a source element on an even
// axis and only x-1 and x+1 are on an odd one.  A fine point therefore
// reads 1, 2, 4 or 8 source elements ("taps"), all in the distance class
// given by its number of odd axes: each parity of (i, j, k) is a
// sub-stencil over the source with the exact-zero taps dropped, F77's
// interp derived from the composition (docs/stencil.md).
//
// Dropping a zero term from a sum leaves every partial sum unchanged, up to
// the sign of an exact zero, so the values equal the materialised form's as
// long as the remaining taps keep each mode's association order:
//  * per point (naive, grouped, and kPlanes below the cutover), the taps in
//    lexicographic offset order, which is both the stencil table's order
//    within a class and at_linear3's.  The naive form multiplies each tap,
//    the others multiply their sum once;
//  * kPlanes rows: the source rows summed in plane_sums' u1/u2 order
//    (Backend::sum_rows), then the row combine collapsed onto the two
//    parities of k (Backend::interp_row).
// The source may be a view (a periodic border): it is read through the
// view's index maps, never forced.
//
// The periodic form covers the whole scatter, 2m points on an axis of m
// source elements, and evaluates every point.  Its taps are read through
// per-axis wrap maps of the source, position -1 at m-1 and m at 0, as
// StencilExpr::periodic reads its grid.  The fine extent is even, so a
// wrapped neighbour keeps its parity and the sub-stencils are the same.
// One point per axis has a tap pair that straddles the ends, (m-1, 0): the
// first point on phase 1, the last on phase 0.  On the last axis the row
// path writes that point itself, from the two wrapped row sums.

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "sacpp/common/error.hpp"
#include "sacpp/common/shape.hpp"
#include "sacpp/sac/array.hpp"
#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/sac/expr.hpp"
#include "sacpp/sac/stencil.hpp"
#include "sacpp/sac/with_loop.hpp"

namespace sacpp::sac {

// take(shape, scatter(2, src, phase)): what ScatterStencilExpr reads.
struct ScatterSource {
  Array<double> src;
  extent_t phase = 0;
  Shape shape;  // at most twice src's extents on every axis
};

class ScatterStencilExpr {
 public:
  ScatterStencilExpr(ScatterSource s, const StencilCoeffs& coeffs,
                     StencilMode mode = active_config().stencil_mode)
      : ScatterStencilExpr(std::move(s), coeffs, mode, /*periodic=*/false) {}

  // The periodic form: s.shape is twice the source's extents, every point
  // is evaluated and its taps wrap.
  static ScatterStencilExpr periodic(
      ScatterSource s, const StencilCoeffs& coeffs,
      StencilMode mode = active_config().stencil_mode) {
    return ScatterStencilExpr(std::move(s), coeffs, mode, /*periodic=*/true);
  }

  const Shape& shape() const { return shp_; }

  double operator()(const IndexVec& iv) const {
    Taps ax[3];
    for (std::size_t d = 0; d < iv.size(); ++d) {
      if (iv[d] < margin_ || iv[d] >= shp_.extent(d) - margin_) return 0.0;
      ax[d] = taps(d, iv[d]);
    }
    return eval(ax);
  }

  double operator()(extent_t i, extent_t j, extent_t k) const {
    const extent_t e = margin_;
    if (i < e || i >= shp_[0] - e || j < e || j >= shp_[1] - e || k < e ||
        k >= shp_[2] - e)
      return 0.0;
    const Taps ax[3] = {taps(0, i), taps(1, j), taps(2, k)};
    return eval(ax);
  }

  // -- kPlanes row-fill protocol (detail::RowFillBody) ------------------------
  //
  // Output row (i, j) reads one source row per tap of (i, j): 1 on an
  // even-even row, 2 on a row with one odd index, 4 on an odd-odd one.  In
  // the materialised row the other rows are gaps, so plane_sums leaves their
  // sum in u1 (one odd index) or u2 (both odd) and the other plane-sum row
  // is zero; the centre row is the source row itself on an even-even row and
  // zero otherwise.  Call that sum, or the one source row, w: the combine
  // reduces to ca * w[t] on the coarse points and cb * (w[t] + w[t+1])
  // between them, ca and cb the coefficients of the row's class and the
  // next.  The periodic form fills every row; its one point whose pair
  // straddles the row ends, cb * (w[m-1] + w[0]), is written here.

  bool row_fill_enabled() const { return planes_rows_; }

  PlaneScratch make_row_state() const {
    return PlaneScratch(src_.shape().extent(2));
  }

  void fill_row(PlaneScratch& st, extent_t i, extent_t j, double* out,
                extent_t k_lo, extent_t k_hi) const {
    const extent_t e = margin_;
    if (i < e || i >= shp_[0] - e || j < e || j >= shp_[1] - e) {
      be_->fill_row(out, k_lo, k_hi, 0.0);
      return;
    }
    const extent_t n2 = shp_[2];
    if (k_lo < e && k_hi > 0) out[0] = 0.0;
    if (k_lo < n2 && k_hi > n2 - e) out[n2 - 1] = 0.0;
    extent_t lo = std::max(k_lo, e);
    extent_t hi = std::min(k_hi, n2 - e);
    if (lo >= hi) return;
    const Taps ti = taps(0, i), tj = taps(1, j);
    const double* b = src_.base_data();
    const double* r[4] = {};
    int m = 0;
    for (int a = 0; a < ti.n; ++a) {
      for (int f = 0; f < tj.n; ++f) r[m++] = b + ti.off[a] + tj.off[f];
    }
    const int cls = (ti.n - 1) + (tj.n - 1);
    const extent_t nc = src_.shape().extent(2);
    const double* w = r[0];
    const detail::ViewMap<double>* v = src_.view_map();
    if (m > 1 || (v != nullptr && !v->moved_last().empty())) {
      double* ws = st.u1();
      if (m == 1) {
        be_->copy_row(ws, r[0], 0, nc);
      } else {
        be_->sum_rows(r[0], r[1], m == 4 ? r[2] : nullptr,
                      m == 4 ? r[3] : nullptr, ws, nc);
      }
      // A view's rows were read as if its last axis were unmapped: redo the
      // sums at the positions it moves from their remapped operands.
      if (v != nullptr) {
        const extent_t* m2 = v->axis(2);
        for (const extent_t q : v->moved_last()) {
          const extent_t x = m2[q];
          ws[q] = m == 1   ? r[0][x]
                  : m == 2 ? r[0][x] + r[1][x]
                           : ((r[0][x] + r[1][x]) + r[2][x]) + r[3][x];
        }
      }
      w = ws;
    }
    const double ca = c_[static_cast<std::size_t>(cls)];
    const double cb = c_[static_cast<std::size_t>(cls + 1)];
    if (e == 0) {
      const extent_t kw = phase_ == 1 ? 0 : n2 - 1;
      if (kw >= lo && kw < hi) {
        out[kw] = cb * (w[nc - 1] + w[0]);
        if (phase_ == 1) {
          ++lo;
        } else {
          --hi;
        }
      }
    }
    if (lo < hi) {
      be_->interp_row(ca, cb, w, out + phase_, lo - phase_, hi - phase_);
    }
    st.rows += 1;
  }

 private:
  // The taps of fine index x along axis d: the base offsets of one or two
  // source positions, in offset order (x - 1's before x + 1's).
  struct Taps {
    extent_t off[2] = {0, 0};
    int n = 1;
  };

  Taps taps(std::size_t d, extent_t x) const {
    const extent_t* pos = maps_[d].data() + 1;  // positions -1..m
    const extent_t rel = x - phase_;  // -1 only on the periodic form
    if (rel % 2 == 0) return Taps{{pos[rel / 2], 0}, 1};
    const extent_t h = (rel - 1) / 2;  // x - 1's source position
    return Taps{{pos[h], pos[h + 1]}, 2};
  }

  // The taps in lexicographic order; axes past the rank hold one zero tap.
  double eval(const Taps (&ax)[3]) const {
    const double c = c_[static_cast<std::size_t>(
        (ax[0].n - 1) + (ax[1].n - 1) + (ax[2].n - 1))];
    const double* b = src_.base_data();
    double acc = 0.0;
    for (int a = 0; a < ax[0].n; ++a) {
      for (int e = 0; e < ax[1].n; ++e) {
        for (int f = 0; f < ax[2].n; ++f) {
          const double x = b[ax[0].off[a] + ax[1].off[e] + ax[2].off[f]];
          acc += naive_ ? c * x : x;
        }
      }
    }
    return naive_ ? acc : c * acc;
  }

  ScatterStencilExpr(ScatterSource s, const StencilCoeffs& coeffs,
                     StencilMode mode, bool periodic)
      : src_(std::move(s.src)),
        phase_(s.phase),
        shp_(std::move(s.shape)),
        c_(coeffs),
        be_(&active_backend()),
        margin_(periodic ? 0 : 1) {
    const std::size_t rank = shp_.rank();
    SACPP_REQUIRE(rank >= 1 && rank <= 3 && src_.rank() == rank,
                  "scatter stencil needs rank 1, 2 or 3");
    SACPP_REQUIRE(phase_ == 0 || phase_ == 1,
                  "scatter stencil phase must be 0 or 1");
    extent_t min_extent = shp_.extent(0);
    for (std::size_t d = 0; d < rank; ++d) {
      const extent_t n = shp_.extent(d);
      const extent_t m = src_.shape().extent(d);
      if (periodic) {
        SACPP_REQUIRE(n == 2 * m && n >= 2,
                      "periodic scatter stencil needs the whole scatter, "
                      "extent >= 2");
      } else {
        SACPP_REQUIRE(n >= 3, "stencil needs extent >= 3 in every dimension");
        SACPP_REQUIRE(n <= 2 * m, "scatter stencil shape exceeds the scatter");
      }
      min_extent = std::min(min_extent, n);
    }
    // The per-point form of each mode, as in StencilExpr: below rank 3 the
    // planes mode evaluates like the naive one.
    naive_ = mode == StencilMode::kNaive ||
             (mode == StencilMode::kPlanes && rank < 3);
    planes_rows_ = rank == 3 && mode == StencilMode::kPlanes &&
                   min_extent >= active_config().stencil_planes_cutover;
    // Source positions -1..m as base offsets, a view's through its maps;
    // -1 and m wrap to m-1 and 0, which only the periodic form reads.
    const detail::ViewMap<double>* v = src_.view_map();
    const IndexVec strides = src_.shape().strides();
    for (std::size_t d = 0; d < rank; ++d) {
      const extent_t m = src_.shape().extent(d);
      std::vector<extent_t>& pos = maps_[d];
      pos.resize(static_cast<std::size_t>(m + 2));
      for (extent_t t = 0; t < m; ++t) {
        pos[static_cast<std::size_t>(t + 1)] =
            v != nullptr ? v->axis(d)[t] : t * strides[d];
      }
      pos.front() = pos[static_cast<std::size_t>(m)];
      pos.back() = pos[1];
    }
  }

  Array<double> src_;
  extent_t phase_;
  Shape shp_;
  StencilCoeffs c_;
  const Backend* be_;  // row-primitive engine, snapshotted at construction
  extent_t margin_;    // evaluated points: [margin_, n - margin_) per axis
  bool naive_ = false;
  bool planes_rows_ = false;
  std::vector<extent_t> maps_[3];  // source positions -1..m, base offsets
};

namespace detail {

// `sc` as scatter(2, src, phase): a stride-2 scatter of an array with
// phase 0 or 1, +-0 gaps and at most twice its extents; or nothing.
inline std::optional<ScatterSource> stride2_scatter(
    const GatherExpr<Array<double>>& sc) {
  if (sc.scale_num != 1 || sc.scale_den != 2 || (sc.pre != 0 && sc.pre != -1) ||
      sc.dflt != 0.0 || sc.shp.rank() != sc.inner.rank()) {
    return std::nullopt;
  }
  for (std::size_t d = 0; d < sc.shp.rank(); ++d) {
    if (sc.offset[d] != 0 ||
        sc.shp.extent(d) > 2 * sc.inner.shape().extent(d)) {
      return std::nullopt;
    }
  }
  return ScatterSource{sc.inner, -sc.pre, sc.shp};
}

// `g` as take(shape, scatter(2, src, phase)), a take of at most the
// scatter's shape; or nothing.
inline std::optional<ScatterSource> scatter_source(
    const GatherExpr<GatherExpr<Array<double>>>& g) {
  std::optional<ScatterSource> s = stride2_scatter(g.inner);
  if (!s || g.scale_num != 1 || g.scale_den != 1 || g.pre != 0 ||
      g.dflt != 0.0 || g.shp.rank() != s->shape.rank()) {
    return std::nullopt;
  }
  for (std::size_t d = 0; d < g.shp.rank(); ++d) {
    if (g.offset[d] != 0 || g.shp.extent(d) > s->shape.extent(d)) {
      return std::nullopt;
    }
  }
  s->shape = g.shp;
  return s;
}

template <typename E>
std::optional<ScatterSource> scatter_source(const GatherExpr<E>&) {
  return std::nullopt;
}

// `g` as scatter(2, src, phase) over its whole shape, twice src's extents;
// or nothing.
inline std::optional<ScatterSource> periodic_scatter_source(
    const GatherExpr<Array<double>>& g) {
  std::optional<ScatterSource> s = stride2_scatter(g);
  if (!s || s->shape != Shape(2 * s->src.shape().extents())) {
    return std::nullopt;
  }
  return s;
}

template <typename E>
std::optional<ScatterSource> periodic_scatter_source(const GatherExpr<E>&) {
  return std::nullopt;
}

}  // namespace detail

// Eager RelaxKernel over a gather.  A take of a stride-2 scatter of an array
// is evaluated straight from that array (ScatterStencilExpr): the exception
// to the rule that stencils fold only over concrete arrays, because it
// divides the work rather than multiplying it.  Any other gather is forced
// first.
template <typename E>
Array<double> relax_kernel(const GatherExpr<E>& g, const StencilCoeffs& coeffs,
                           StencilMode mode = active_config().stencil_mode) {
  if (auto s = detail::scatter_source(g)) {
    const ScatterStencilExpr st(std::move(*s), coeffs, mode);
    return with_genarray<double>(st.shape(), gen_interior(st.shape()), st,
                                 0.0);
  }
  return relax_kernel(force(g), coeffs, mode);
}

// Eager periodic RelaxKernel over a gather.  A stride-2 scatter of an array
// over its whole shape is evaluated straight from that array
// (ScatterStencilExpr::periodic), mg_sac_direct's Coarse2Fine; any other
// gather is forced first.
template <typename E>
Array<double> relax_kernel_periodic(
    const GatherExpr<E>& g, const StencilCoeffs& coeffs,
    StencilMode mode = active_config().stencil_mode) {
  if (auto s = detail::periodic_scatter_source(g)) {
    const ScatterStencilExpr st =
        ScatterStencilExpr::periodic(std::move(*s), coeffs, mode);
    return with_genarray<double>(st.shape(), gen_all(), st, 0.0);
  }
  return relax_kernel_periodic(force(g), coeffs, mode);
}

}  // namespace sacpp::sac
