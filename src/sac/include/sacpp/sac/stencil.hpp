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

// Per-chunk scratch of the kPlanes row path: one block holding the u1
// (class-1) and u2 (class-2) partial-sum rows, plus the tally flushed into
// stats().stencil_rows_reused on destruction (once per chunk, so the hot
// loop never touches the shared counter).  Deliberately NOT a Buffer<T>:
// chunk states live and die on worker threads, and Buffer ownership is
// coordinator-only by contract (buffer.hpp) — BufferPool itself is
// thread-safe (one lock over its free lists), which is exactly what keeps
// bottom-of-V-cycle levels from re-allocating scratch (docs/memory.md).
class PlaneScratch {
 public:
  explicit PlaneScratch(extent_t row_len) {
    bytes_ = pool_block_bytes(2 * static_cast<std::size_t>(row_len) *
                              sizeof(double));
    pooled_ = active_config().pool;
    void* raw = pooled_ ? BufferPool::instance().allocate(bytes_)
                        : std::aligned_alloc(kBufferAlignment, bytes_);
    SACPP_REQUIRE(raw != nullptr, "stencil plane scratch allocation failed");
    u1_ = static_cast<double*>(raw);
    u2_ = u1_ + row_len;
  }
  PlaneScratch(PlaneScratch&& o) noexcept
      : rows(std::exchange(o.rows, 0)),
        u1_(std::exchange(o.u1_, nullptr)),
        u2_(std::exchange(o.u2_, nullptr)),
        bytes_(o.bytes_),
        pooled_(o.pooled_) {}
  PlaneScratch(const PlaneScratch&) = delete;
  PlaneScratch& operator=(const PlaneScratch&) = delete;
  PlaneScratch& operator=(PlaneScratch&&) = delete;
  ~PlaneScratch() {
    if (u1_ != nullptr) {
      if (pooled_) {
        BufferPool::instance().deallocate(u1_, bytes_);
      } else {
        std::free(u1_);
      }
    }
    if (rows != 0) stats().stencil_rows_reused += rows;
  }

  double* u1() noexcept { return u1_; }
  double* u2() noexcept { return u2_; }
  const double* u1() const noexcept { return u1_; }
  const double* u2() const noexcept { return u2_; }

  std::uint64_t rows = 0;  // output rows filled with this scratch

 private:
  double* u1_ = nullptr;
  double* u2_ = nullptr;
  std::size_t bytes_ = 0;
  bool pooled_ = false;
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
  // fill_row writes the whole output row (i, j) in one pass: the u1/u2
  // partial sums are computed once over the full row length, then every
  // output point combines three entries of each.  The u1 association tree
  // matches the grouped faces sum left-to-right, but the per-point combine
  // reassociates the class-2/3 sums — kPlanes results are therefore equal to
  // kGrouped only up to rounding (tests use 1e-12 relative), while staying
  // bit-identical across thread counts (rows are computed independently).

  bool row_fill_enabled() const { return planes_rows_; }

  PlaneScratch make_row_state() const {
    return PlaneScratch(a_.shape().extent(2) + 2 * pad());
  }

  // Assign-form row fill: boundary rows and boundary k positions get the
  // fixed-boundary 0, interior points the plane-sum combination.
  void fill_row(PlaneScratch& st, extent_t i, extent_t j, double* out,
                extent_t k_lo, extent_t k_hi) const {
    const Shape& shp = a_.shape();
    const extent_t m = margin_;
    if (i < m || i >= shp[0] - m || j < m || j >= shp[1] - m) {
      be_->fill_row(out, k_lo, k_hi, 0.0);
      return;
    }
    const extent_t n2 = shp[2];
    if (k_lo < m) out[0] = 0.0;
    if (k_hi > n2 - m) out[n2 - 1] = 0.0;
    fused_row(st, i, j, out, std::max(k_lo, m), std::min(k_hi, n2 - m),
              /*accumulate=*/false);
    st.rows += 1;
  }

  // Accumulate-form row fill (out[k] += stencil) for in-place updates like
  // psinv's u += C r; boundary positions add the stencil's 0, i.e. nothing.
  // `out` must not alias the stencil argument (it is the array being
  // updated, the stencil reads another).
  void accumulate_row(PlaneScratch& st, extent_t i, extent_t j, double* out,
                      extent_t k_lo, extent_t k_hi) const {
    const Shape& shp = a_.shape();
    const extent_t m = margin_;
    if (i < m || i >= shp[0] - m || j < m || j >= shp[1] - m) return;
    fused_row(st, i, j, out, std::max(k_lo, m), std::min(k_hi, shp[2] - m),
              /*accumulate=*/true);
    st.rows += 1;
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
      // Small-grid cutover: below it the scratch setup costs more than the
      // shared additions save, so kPlanes degrades to kGrouped per point.
      planes_rows_ = mode_ == StencilMode::kPlanes &&
                     min_extent >= active_config().stencil_planes_cutover;
    }
    // Over maps, the output positions whose centre-row reads include a
    // moved last-axis position: the row path combines them one by one.
    if (mapped()) {
      const extent_t n = shp.extent(shp.rank() - 1);
      for (const extent_t m : moved_last()) {
        for (extent_t k = std::max(m - 1, margin_);
             k <= std::min(m + 1, n - 1 - margin_); ++k) {
          if (view_points_.empty() || view_points_.back() < k) {
            view_points_.push_back(k);
          }
        }
      }
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
  // The periodic form's scratch rows start one cache line in, which leaves
  // room for the sums at -1 and n and keeps the rows' alignment.
  extent_t pad() const noexcept {
    return wrap_ != nullptr
               ? static_cast<extent_t>(kBufferAlignment / sizeof(double))
               : 0;
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

  // One fused output row (i, j): the NPB u1/u2 plane sums — u1[k] the four
  // class-1 neighbours in the i/j directions, u2[k] the four class-2
  // diagonal rows — feeding the per-point combine, issued as the Backend's
  // single stencil_row primitive so a fusing engine (the JIT) runs both
  // passes in one kernel.  The nine source rows are pairwise disjoint
  // segments of the argument and the scratch is a separate block
  // (docs/backends.md, docs/jit.md).
  void fused_row(PlaneScratch& st, extent_t i, extent_t j, double* out,
                 extent_t k_lo, extent_t k_hi, bool accumulate) const {
    if (mapped()) [[unlikely]] {
      view_row(st, i, j, out, k_lo, k_hi, accumulate);
      return;
    }
    const double* c = a_.base_data() + i * s0_ + j * s1_;
    const double* im = c - s0_;
    const double* ip = c + s0_;
    const double* jm = c - s1_;
    const double* jp = c + s1_;
    be_->stencil_row(c_.c.data(), c, im, ip, jm, jp, im - s1_, im + s1_,
                     ip - s1_, ip + s1_, st.u1(), st.u2(), out, k_lo, k_hi,
                     a_.shape().extent(2), accumulate);
  }

  // -- map readers ------------------------------------------------------------
  //
  // A view argument's maps cover its own extent; the wrap maps also cover
  // -1 and n, so the periodic form reads every point's neighbours.

  // The nine source rows of output row (i, j) through the maps: the centre
  // row, then im, ip, jm, jp and the diagonals imm, imp, ipm, ipp (the order
  // of Backend::stencil_row), each remapped through the axis-0/1 maps.
  struct ViewRows {
    const double* r[9];
  };
  ViewRows view_rows(extent_t i, extent_t j) const {
    const extent_t* m0 = axis(0);
    const extent_t* m1 = axis(1);
    const double* b = a_.base_data();
    return ViewRows{{b + m0[i] + m1[j], b + m0[i - 1] + m1[j],
                     b + m0[i + 1] + m1[j], b + m0[i] + m1[j - 1],
                     b + m0[i] + m1[j + 1], b + m0[i - 1] + m1[j - 1],
                     b + m0[i - 1] + m1[j + 1], b + m0[i + 1] + m1[j - 1],
                     b + m0[i + 1] + m1[j + 1]}};
  }

  // at_linear3 through the maps: the same operands in the same order, each
  // k position taken through the last axis's map.
  double view_at3(extent_t i, extent_t j, extent_t k) const {
    const ViewRows rows = view_rows(i, j);
    const double *c = rows.r[0], *im = rows.r[1], *ip = rows.r[2],
                 *jm = rows.r[3], *jp = rows.r[4], *imm = rows.r[5],
                 *imp = rows.r[6], *ipm = rows.r[7], *ipp = rows.r[8];
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

  // fused_row through the maps, as the backend's plane_sums + combine_row
  // pair that stencil_row stands for.  The plane sums run over the remapped
  // rows, then the sums at the moved k positions are redone from remapped
  // operands, so the scratch holds the forced view's sums exactly (for the
  // periodic form: the wrapped sums at -1 and n).  The combine runs on the
  // backend between the output points that read a moved position of the
  // centre row; those repeat its arithmetic on the remapped centre values.
  void view_row(PlaneScratch& st, extent_t i, extent_t j, double* out,
                extent_t k_lo, extent_t k_hi, bool accumulate) const {
    const ViewRows rows = view_rows(i, j);
    const double* const* r = rows.r;
    const extent_t* m2 = axis(2);
    double* u1 = st.u1() + pad();
    double* u2 = st.u2() + pad();
    be_->plane_sums(r[1], r[2], r[3], r[4], r[5], r[6], r[7], r[8], u1, u2,
                    a_.shape().extent(2));
    for (const extent_t p : moved_last()) {
      const extent_t x = m2[p];
      u1[p] = ((r[1][x] + r[2][x]) + r[3][x]) + r[4][x];
      u2[p] = ((r[5][x] + r[6][x]) + r[7][x]) + r[8][x];
    }
    const double* uc = r[0];
    auto run = [&](extent_t lo, extent_t hi) {
      if (lo >= hi) return;
      if (accumulate) {
        be_->accumulate_row(c_.c.data(), uc, u1, u2, out, lo, hi);
      } else {
        be_->combine_row(c_.c.data(), uc, u1, u2, out, lo, hi);
      }
    };
    extent_t k = k_lo;
    auto it = std::lower_bound(view_points_.begin(), view_points_.end(), k_lo);
    for (; it != view_points_.end() && *it < k_hi; ++it) {
      const extent_t q = *it;
      run(k, q);
      const double ucm = uc[m2[q - 1]], uc0 = uc[m2[q]], ucp = uc[m2[q + 1]];
      const double val = c_[0] * uc0 + c_[1] * ((u1[q] + ucm) + ucp) +
                         c_[2] * ((u2[q] + u1[q - 1]) + u1[q + 1]) +
                         c_[3] * (u2[q - 1] + u2[q + 1]);
      if (accumulate) {
        out[q] += val;
      } else {
        out[q] = val;
      }
      k = q + 1;
    }
    run(k, k_hi);
  }

  Array<double> a_;
  StencilCoeffs c_;
  StencilMode mode_;
  const Backend* be_;  // row-primitive engine, snapshotted at construction
  extent_t margin_;    // evaluated points: [margin_, n - margin_) per axis
  std::shared_ptr<const WrapMaps> wrap_;  // the periodic form's; shared
  std::array<std::vector<extent_t>, 4> by_class_;
  extent_t s0_ = 0;  // rank-3 row strides for the unrolled evaluator
  extent_t s1_ = 0;
  bool planes_rows_ = false;  // kPlanes row path active (rank 3, >= cutover)
  std::vector<extent_t> view_points_;  // sorted; empty unless mapped()
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
