#pragma once
// Coefficient-class stencil relaxation (the paper's RelaxKernel).
//
// Every NAS-MG grid operation is a 3^rank-point stencil whose coefficient
// depends only on the neighbour's distance class — the number of non-zero
// components of its offset vector (centre / face / edge / corner for
// rank 3).  A coefficient vector c[0..3] therefore fully describes the four
// stencils A, P, Q and S of the benchmark.
//
// Three evaluation modes reproduce the paper's performance discussion
// (StencilMode lives in config.hpp; docs/stencil.md):
//  * kGrouped — sum the neighbours of each class first, then apply one
//    multiplication per class (4 mults / 26 adds for rank 3).  sac2c reaches
//    this form implicitly; it is our default.
//  * kNaive — one multiply-add per stencil point (27 mults / 26 adds),
//    what a direct translation of the mathematics would do.  Kept for the
//    abl_stencil ablation.
//  * kPlanes — the NPB Fortran hand optimisation (mg.f resid/psinv): for
//    each output row (i, j) the four class-1 row sums u1[k] and the four
//    class-2 diagonal row sums u2[k] are computed once into scratch, then
//    every output point reuses three of each (4 mults / ~16 adds per point,
//    contiguous auto-vectorisable loops).  Executed through the with-loop
//    row-fill path (detail::RowFillBody); grids below
//    SacConfig::stencil_planes_cutover fall back to kGrouped per-point
//    evaluation, where the scratch setup would dominate.
//
// StencilExpr is the lazy form (expr.hpp): stencil value on interior
// points, 0 on the boundary ring, exactly the result RelaxKernel
// materialises.  It fuses with surrounding expressions (with-loop folding),
// and reads a view argument (array.hpp) without forcing it: every operand
// is taken through the view's index maps, in the same order as over the
// forced array, so the values are bitwise the same.
//
// StencilExpr::periodic is the periodic form over a ghost-free grid, the
// paper's Sec. 7 relaxation with the boundary inside the stencil: every
// point is evaluated, its neighbours read through per-axis maps that wrap
// -1 to n-1 and n to 0.  It runs the view readers, so each value keeps the
// association order of border setup + the fixed-boundary form.

#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "sacpp/common/error.hpp"
#include "sacpp/common/shape.hpp"
#include "sacpp/sac/array.hpp"
#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/sac/pool.hpp"
#include "sacpp/sac/stats.hpp"
#include "sacpp/sac/with_loop.hpp"

namespace sacpp::sac {

// One coefficient per neighbour distance class.  Rank <= 3 uses classes
// 0..rank; higher classes are ignored for lower ranks.
struct StencilCoeffs {
  std::array<double, 4> c{};
  double operator[](std::size_t cls) const { return c[cls]; }
};

// Per-chunk scratch of the kPlanes row paths: one pooled block of three
// rows (ScratchBlock, buffer.hpp) — the u1 (class-1) and u2 (class-2)
// partial sums and the composing engine's stencil row t (StencilRow) —
// plus the tally flushed into stats().stencil_rows_reused on destruction
// (once per chunk, so the hot loop never touches the shared counter).
class PlaneScratch {
 public:
  explicit PlaneScratch(extent_t row_len)
      : block_(scratch_block(3 * static_cast<std::size_t>(row_len))),
        row_len_(row_len) {}
  PlaneScratch(PlaneScratch&&) noexcept = default;
  ~PlaneScratch() {
    if (block_ != nullptr && rows != 0) stats().stencil_rows_reused += rows;
  }

  double* u1() noexcept { return block_.get(); }
  double* u2() noexcept { return block_.get() + row_len_; }
  double* t() noexcept { return block_.get() + 2 * row_len_; }

  std::uint64_t rows = 0;  // output rows filled with this scratch

 private:
  ScratchBlock block_;
  extent_t row_len_;
};

// All offsets in {-1, 0, 1}^rank with their distance class; cached per rank.
class StencilTable {
 public:
  struct Entry {
    IndexVec offset;
    int cls;
  };

  static const StencilTable& for_rank(std::size_t rank);

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  explicit StencilTable(std::size_t rank);
  std::vector<Entry> entries_;
};

// Lazy stencil application: interior points evaluate the weighted
// neighbour sum, boundary points are 0; the periodic form evaluates every
// point.
class StencilExpr {
 public:
  StencilExpr(Array<double> a, const StencilCoeffs& coeffs,
              StencilMode mode = active_config().stencil_mode)
      : StencilExpr(std::move(a), coeffs, mode, /*periodic=*/false) {}

  // The periodic form: every point, neighbours wrapped.  Extent >= 2 on
  // every axis; a view argument is forced.
  static StencilExpr periodic(Array<double> a, const StencilCoeffs& coeffs,
                              StencilMode mode = active_config().stencil_mode) {
    return StencilExpr(std::move(a), coeffs, mode, /*periodic=*/true);
  }

  const Shape& shape() const { return a_.shape(); }
  const Array<double>& argument() const { return a_; }
  StencilMode mode() const { return mode_; }

  bool is_interior(const IndexVec& iv) const {
    const Shape& shp = a_.shape();
    for (std::size_t d = 0; d < iv.size(); ++d) {
      if (iv[d] < margin_ || iv[d] >= shp.extent(d) - margin_) return false;
    }
    return true;
  }

  double operator()(const IndexVec& iv) const {
    if (!is_interior(iv)) return 0.0;
    // Rank 3 delegates to the same evaluator as the unpacked access so that
    // specialised and generic execution paths produce bitwise-equal values.
    // kPlanes evaluated per point (below the cutover, or through a fused
    // expression with no row path) uses the grouped association tree.
    const bool unrolled = mode_ != StencilMode::kNaive && iv.size() == 3;
    if (mapped()) [[unlikely]] {
      return unrolled ? view_at3(iv[0], iv[1], iv[2]) : view_at(iv);
    }
    if (unrolled) return at_linear3(a_.shape().linearize(iv));
    return at_linear(a_.shape().linearize(iv));
  }

  double operator()(extent_t i, extent_t j, extent_t k) const {
    SACPP_ASSERT(a_.rank() == 3, "rank-3 stencil access on non-rank-3 array");
    const Shape& shp = a_.shape();
    const extent_t m = margin_;
    if (i < m || i >= shp[0] - m || j < m || j >= shp[1] - m || k < m ||
        k >= shp[2] - m)
      return 0.0;
    if (mapped()) [[unlikely]] {
      return mode_ != StencilMode::kNaive ? view_at3(i, j, k)
                                          : view_at(IndexVec{i, j, k});
    }
    if (mode_ != StencilMode::kNaive) {
      return at_linear3((i * shp[1] + j) * shp[2] + k);
    }
    return at_linear((i * shp[1] + j) * shp[2] + k);
  }

  // -- kPlanes row-fill protocol (detail::RowFillBody) ------------------------
  //
  // Every output row (i, j) is one fused engine call (Backend::stencil_row,
  // StencilRow): the u1/u2 partial sums over the row, the per-point
  // combine of three entries of each, and the merge with the row's update
  // operands, in one pass over the output.  The u1 association tree matches
  // the grouped faces sum left-to-right, but the per-point combine
  // reassociates the class-2/3 sums — kPlanes results are therefore equal
  // to kGrouped only up to rounding (tests use 1e-12 relative), while
  // staying bit-identical across thread counts (rows are computed
  // independently).  Over a view or the wrap maps the rows are taken
  // through the axis-0/1 maps and the two row ends through the last one,
  // inside the call; a view whose last-axis map moves other positions
  // (only the fuzzers build one) is combined point by point instead, with
  // the same arithmetic.

  // Per-chunk state, bound once: the scratch, the engine's fused row for
  // the chunk's merge, and the argument's buffer and index maps (a view's,
  // the wrap maps, or none).
  struct RowState {
    PlaneScratch scratch;
    Backend::StencilRowFn row;
    const double* base;
    const extent_t* map[3];
  };

  bool row_fill_enabled() const { return planes_rows_; }

  template <RowMerge M = RowMerge::kAssign>
  RowState make_row_state() const {
    RowState st{PlaneScratch(n2_), be_->stencil_row_fn(M), a_.base_data(),
                {nullptr, nullptr, nullptr}};
    if (mapped()) {
      for (std::size_t d = 0; d < 3; ++d) st.map[d] = axis(d);
    }
    return st;
  }

  // Assign-form row fill: boundary rows and boundary k positions get the
  // fixed-boundary 0, interior points the plane-sum combination.
  void fill_row(RowState& st, extent_t i, extent_t j, double* out,
                extent_t k_lo, extent_t k_hi) const {
    merge_row<RowMerge::kAssign>(st, i, j, nullptr, nullptr, out, k_lo, k_hi);
  }

  // out[k] = merge(a[k], b[k], s(k)) for k in [k_lo, k_hi), s the stencil at
  // (i, j, k): the row forms of ewise(a, stencil, +/-) and of
  // ewise(b, ewise(a, stencil, +), +) (expr.hpp).  a and b are rows of
  // other arrays, or `out` itself.  Where the fixed-boundary stencil is 0
  // the merge takes 0.0, except that an in-place a + s or a - s (a == out)
  // leaves a as it is there: a - 0 is a, and a + 0 is a up to the sign of
  // a zero.
  template <RowMerge M>
  [[gnu::always_inline]] void merge_row(RowState& st, extent_t i, extent_t j,
                                        const double* a, const double* b,
                                        double* out, extent_t k_lo,
                                        extent_t k_hi) const {
    const extent_t m = margin_;
    if (i < m || i >= n0_ - m || j < m || j >= n1_ - m) [[unlikely]] {
      merge_zero<M>(a, b, out, k_lo, k_hi);
      return;
    }
    if (k_lo < m && k_hi > 0) merge_zero<M>(a, b, out, 0, 1);
    if (k_hi > n2_ - m && k_lo < n2_) merge_zero<M>(a, b, out, n2_ - 1, n2_);
    const extent_t lo = std::max(k_lo, m), hi = std::min(k_hi, n2_ - m);
    if (lo < hi) interior_row<M>(st, i, j, a, b, out, lo, hi);
    st.scratch.rows += 1;
  }

 private:
  // The periodic form's index maps: for an axis of extent n, the base
  // offsets of positions -1..n, the identity with -1 wrapped to n-1 and n
  // to 0.  Readable like a view's map (detail::ViewMap), one level of
  // padding at each end.
  class WrapMaps {
   public:
    explicit WrapMaps(const Shape& shp);
    const extent_t* axis(std::size_t d) const noexcept {
      return axes_[d].data() + 1;
    }
    // The last axis's wrapped positions, -1 and n.
    const std::vector<extent_t>& moved_last() const noexcept {
      return moved_;
    }

   private:
    std::vector<std::vector<extent_t>> axes_;
    std::vector<extent_t> moved_;
  };

  StencilExpr(Array<double> a, const StencilCoeffs& coeffs, StencilMode mode,
              bool periodic)
      : a_(std::move(a)),
        c_(coeffs),
        mode_(mode),
        be_(&active_backend()),
        margin_(periodic ? 0 : 1) {
    const Shape& shp = a_.shape();
    // One coefficient per distance class: classes 0..3 cover ranks 1..3.
    SACPP_REQUIRE(shp.rank() >= 1 && shp.rank() <= 3,
                  "stencil needs rank 1, 2 or 3");
    extent_t min_extent = shp.extent(0);
    for (std::size_t d = 0; d < shp.rank(); ++d) {
      SACPP_REQUIRE(shp.extent(d) >= 2 + margin_,
                    periodic ? "periodic stencil needs extent >= 2 per axis"
                             : "stencil needs extent >= 3 in every dimension");
      min_extent = std::min(min_extent, shp.extent(d));
    }
    if (periodic) {
      a_.materialise();  // the map readers take raw rows on the workers
      wrap_ = std::make_shared<const WrapMaps>(shp);
    }
    const IndexVec strides = shp.strides();
    for (const auto& e : StencilTable::for_rank(shp.rank()).entries()) {
      extent_t lin = 0;
      for (std::size_t d = 0; d < strides.size(); ++d) {
        lin += e.offset[d] * strides[d];
      }
      by_class_[static_cast<std::size_t>(e.cls)].push_back(lin);
    }
    if (shp.rank() == 3) {
      s0_ = strides[0];
      s1_ = strides[1];
      n0_ = shp[0];
      n1_ = shp[1];
      n2_ = shp[2];
      // Small-grid cutover: below it the scratch setup costs more than the
      // shared additions save, so kPlanes degrades to kGrouped per point.
      planes_rows_ = mode_ == StencilMode::kPlanes &&
                     min_extent >= active_config().stencil_planes_cutover;
    }
    // Over maps, whether the last axis's moved positions are only the two
    // ends its rows read past the evaluated points: margin_ - 1 and
    // n - margin_ (the wrap maps' -1 and n, a periodic border's 0 and n-1).
    if (mapped()) {
      const extent_t n = shp.extent(shp.rank() - 1);
      ends_only_ = std::all_of(
          moved_last().begin(), moved_last().end(),
          [&](extent_t p) { return p == margin_ - 1 || p == n - margin_; });
    }
  }

  // Operands are read through index maps: the periodic form's wrap maps,
  // or a view argument's own.
  bool mapped() const noexcept { return wrap_ != nullptr || a_.is_view(); }
  const extent_t* axis(std::size_t d) const noexcept {
    return wrap_ != nullptr ? wrap_->axis(d) : a_.view_map()->axis(d);
  }
  const std::vector<extent_t>& moved_last() const noexcept {
    return wrap_ != nullptr ? wrap_->moved_last()
                            : a_.view_map()->moved_last();
  }

  // Unrolled grouped evaluation for rank 3 (the dominant path): nine row
  // pointers with compile-time +-1 offsets, 4 multiplications, 26 additions
  // — the form sac2c's optimiser reaches implicitly (paper Sec. 5).
  double at_linear3(extent_t centre) const {
    const double* c = a_.base_data() + centre;
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

  // Weighted neighbour sum around a (guaranteed interior) linear offset.
  double at_linear(extent_t centre) const {
    const double* p = a_.base_data() + centre;
    if (mode_ == StencilMode::kGrouped) {
      double acc = 0.0;
      for (std::size_t cls = 0; cls < 4; ++cls) {
        if (by_class_[cls].empty()) continue;
        double s = 0.0;
        for (extent_t off : by_class_[cls]) s += p[off];
        acc += c_[cls] * s;
      }
      return acc;
    }
    double acc = 0.0;
    for (std::size_t cls = 0; cls < 4; ++cls) {
      for (extent_t off : by_class_[cls]) acc += c_[cls] * p[off];
    }
    return acc;
  }

  // The merge of the fixed boundary's 0 over [lo, hi) (merge_row).
  template <RowMerge M>
  static void merge_zero(const double* a, const double* b, double* out,
                         extent_t lo, extent_t hi) {
    if (M != RowMerge::kAddAdd && M != RowMerge::kAssign && a == out) return;
    for (extent_t k = lo; k < hi; ++k) merge_point<M>(out, a, b, k, 0.0);
  }

  // The nine source rows of output row (i, j) into r: the centre row, then
  // im, ip, jm, jp and the diagonals imm, imp, ipm, ipp (StencilRow's
  // order), through the axis-0/1 maps when m0 is given.
  void rows_at(const double* b, const extent_t* m0, const extent_t* m1,
               extent_t i, extent_t j, const double* (&r)[9]) const {
    if (m0 == nullptr) {
      const double* c = b + i * s0_ + j * s1_;
      r[0] = c;
      r[1] = c - s0_;
      r[2] = c + s0_;
      r[3] = c - s1_;
      r[4] = c + s1_;
      r[5] = c - s0_ - s1_;
      r[6] = c - s0_ + s1_;
      r[7] = c + s0_ - s1_;
      r[8] = c + s0_ + s1_;
      return;
    }
    const extent_t xm = m0[i - 1], x0 = m0[i], xp = m0[i + 1];
    const extent_t ym = m1[j - 1], y0 = m1[j], yp = m1[j + 1];
    r[0] = b + x0 + y0;
    r[1] = b + xm + y0;
    r[2] = b + xp + y0;
    r[3] = b + x0 + ym;
    r[4] = b + x0 + yp;
    r[5] = b + xm + ym;
    r[6] = b + xm + yp;
    r[7] = b + xp + ym;
    r[8] = b + xp + yp;
  }

  // merge_row over the evaluated points [lo, hi) of an interior row: one
  // engine call, its row ends read through the last axis's map.
  template <RowMerge M>
  [[gnu::always_inline]] void interior_row(RowState& st, extent_t i,
                                           extent_t j, const double* a,
                                           const double* b, double* out,
                                           extent_t lo, extent_t hi) const {
    const extent_t* m2 = st.map[2];
    // Field by field: an initializer list would zero the whole struct
    // first, a block store that costs more than the rest of the set-up.
    StencilRow r;
    rows_at(st.base, st.map[0], st.map[1], i, j, r.src);
    r.c = c_.c.data();
    r.n = n2_;
    r.lo = lo;
    r.hi = hi;
    r.km = m2 != nullptr ? m2[lo - 1] : lo - 1;
    r.kp = m2 != nullptr ? m2[hi] : hi;
    r.u1 = st.scratch.u1();
    r.u2 = st.scratch.u2();
    r.t = st.scratch.t();
    r.merge = M;
    r.a = a;
    r.b = b;
    r.out = out;
    if (m2 != nullptr && !ends_only_) [[unlikely]] {
      mapped_points<M>(r.src, m2, a, b, out, lo, hi);
      return;
    }
    st.row(*be_, r);
  }

  // The engine's arithmetic point by point, every operand read through the
  // last axis's map: the rows of a view that moves more than its ends.
  template <RowMerge M>
  [[gnu::noinline]] void mapped_points(const double* const* r,
                                       const extent_t* m2, const double* a,
                                       const double* b, double* out,
                                       extent_t lo, extent_t hi) const {
    auto uc = [&](extent_t p) { return r[0][m2[p]]; };
    auto u1 = [&](extent_t p) {
      const extent_t x = m2[p];
      return ((r[1][x] + r[2][x]) + r[3][x]) + r[4][x];
    };
    auto u2 = [&](extent_t p) {
      const extent_t x = m2[p];
      return ((r[5][x] + r[6][x]) + r[7][x]) + r[8][x];
    };
    for (extent_t k = lo; k < hi; ++k) {
      const double s = c_[0] * uc(k) + c_[1] * ((u1(k) + uc(k - 1)) + uc(k + 1)) +
                       c_[2] * ((u2(k) + u1(k - 1)) + u1(k + 1)) +
                       c_[3] * (u2(k - 1) + u2(k + 1));
      merge_point<M>(out, a, b, k, s);
    }
  }

  // -- per-point map readers ---------------------------------------------------
  //
  // A view argument's maps cover its own extent; the wrap maps also cover
  // -1 and n, so the periodic form reads every point's neighbours.

  // at_linear3 through the maps: the same operands in the same order, each
  // k position taken through the last axis's map.
  double view_at3(extent_t i, extent_t j, extent_t k) const {
    const double* r[9];
    rows_at(a_.base_data(), axis(0), axis(1), i, j, r);
    const double *c = r[0], *im = r[1], *ip = r[2], *jm = r[3], *jp = r[4],
                 *imm = r[5], *imp = r[6], *ipm = r[7], *ipp = r[8];
    const extent_t* m2 = axis(2);
    const extent_t km = m2[k - 1], k0 = m2[k], kp = m2[k + 1];
    const double faces = im[k0] + ip[k0] + jm[k0] + jp[k0] + c[km] + c[kp];
    const double edges = imm[k0] + imp[k0] + ipm[k0] + ipp[k0] + im[km] +
                         im[kp] + ip[km] + ip[kp] + jm[km] + jm[kp] + jp[km] +
                         jp[kp];
    const double corners = imm[km] + imm[kp] + imp[km] + imp[kp] + ipm[km] +
                           ipm[kp] + ipp[km] + ipp[kp];
    return c_[0] * c[k0] + c_[1] * faces + c_[2] * edges + c_[3] * corners;
  }

  // at_linear through the maps (any rank): the class sums visit the offsets
  // in by_class_ order, which is the stencil table's order within a class.
  double view_at(const IndexVec& iv) const {
    const double* b = a_.base_data();
    const auto& entries = StencilTable::for_rank(iv.size()).entries();
    auto operand = [&](const StencilTable::Entry& e) {
      extent_t off = 0;
      for (std::size_t d = 0; d < iv.size(); ++d) {
        off += axis(d)[iv[d] + e.offset[d]];
      }
      return b[off];
    };
    const bool grouped = mode_ == StencilMode::kGrouped;
    double acc = 0.0;
    for (std::size_t cls = 0; cls < 4; ++cls) {
      if (grouped && by_class_[cls].empty()) continue;
      double s = 0.0;
      for (const auto& e : entries) {
        if (static_cast<std::size_t>(e.cls) != cls) continue;
        if (grouped) {
          s += operand(e);
        } else {
          acc += c_[cls] * operand(e);
        }
      }
      if (grouped) acc += c_[cls] * s;
    }
    return acc;
  }

  Array<double> a_;
  StencilCoeffs c_;
  StencilMode mode_;
  const Backend* be_;  // row-primitive engine, snapshotted at construction
  extent_t margin_;    // evaluated points: [margin_, n - margin_) per axis
  std::shared_ptr<const WrapMaps> wrap_;  // the periodic form's; shared
  std::array<std::vector<extent_t>, 4> by_class_;
  extent_t s0_ = 0;  // rank-3 row strides and extents
  extent_t s1_ = 0;
  extent_t n0_ = 0, n1_ = 0, n2_ = 0;
  bool planes_rows_ = false;  // kPlanes row path active (rank 3, >= cutover)
  bool ends_only_ = false;    // mapped(): the last axis moves only its ends
};

// Eager RelaxKernel: one with-loop over the interior, zero boundary ring —
// the fixed-boundary relaxation step of the paper's Fig. 6/7.  The default
// mode is the process-wide SacConfig::stencil_mode (evaluated per call).
Array<double> relax_kernel(const Array<double>& a, const StencilCoeffs& coeffs,
                           StencilMode mode = active_config().stencil_mode);

// Eager periodic relaxation over a ghost-free grid: one with-loop over the
// whole grid (StencilExpr::periodic).
Array<double> relax_kernel_periodic(
    const Array<double>& a, const StencilCoeffs& coeffs,
    StencilMode mode = active_config().stencil_mode);

}  // namespace sacpp::sac
