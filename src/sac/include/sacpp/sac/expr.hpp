#pragma once
// Lazy array expressions: WITH-loop folding (DESIGN.md D1).
//
// sac2c's with-loop folding fuses chains of with-loops so intermediate
// arrays are never materialised; `condense(2, RelaxKernel(r, P))` evaluates
// the stencil only at the condensed points.  Here the same fusion is
// expressed with expression templates: array-library operations build
// expression nodes (shape + element function), composition composes the
// element functions, and `force()` runs exactly one with-loop.
//
// Expression nodes hold their child arrays by value — an O(1) ref-counted
// copy — so expressions can safely outlive the names they were built from.
//
// Like the compiler optimisation, folding has a profitability constraint:
// a stencil reads 3^rank neighbours, so folding a stencil over another
// unmaterialised stencil would multiply work.  The API mirrors sac2c's
// heuristic by allowing StencilExpr only over concrete arrays.  The one
// exception is a stencil over a stride-2 scatter (relax_kernel over
// take(scatter(2, a)), scatter_stencil.hpp): read straight from `a` it
// drops 7/8 of the taps, so that fold divides the work instead.

#include <algorithm>
#include <concepts>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sacpp/common/shape.hpp"
#include "sacpp/sac/array.hpp"
#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/with_loop.hpp"

namespace sacpp::sac {

class StencilExpr;  // stencil.hpp

namespace detail {

// Signed floor/ceil division (b > 0) for the gather row-range algebra.
inline extent_t floor_div(extent_t a, extent_t b) {
  const extent_t q = a / b;
  return (a % b != 0 && a < 0) ? q - 1 : q;
}
inline extent_t ceil_div(extent_t a, extent_t b) {
  return -floor_div(-a, b);
}

// out[k] = op(a[k], out[k]) for k in [lo, hi): + - * through the backend
// row primitives (element-parallel, so bit-identical on every backend),
// any other op per point.
template <typename Op>
void ewise_into_row(const Op& op, const double* a, double* out, extent_t lo,
                    extent_t hi) {
  if constexpr (std::is_same_v<Op, std::plus<>>) {
    active_backend().add_into_row(a, out, lo, hi);
  } else if constexpr (std::is_same_v<Op, std::minus<>>) {
    active_backend().sub_into_row(a, out, lo, hi);
  } else if constexpr (std::is_same_v<Op, std::multiplies<>>) {
    active_backend().mul_into_row(a, out, lo, hi);
  } else {
    for (extent_t k = lo; k < hi; ++k) out[k] = op(a[k], out[k]);
  }
}

}  // namespace detail

// Anything with a shape and an element function over index vectors.
template <typename E>
concept ArrayExpr = requires(const E& e, const IndexVec& iv) {
  { e.shape() } -> std::convertible_to<Shape>;
  { e(iv) };
};

// Expressions additionally offering unpacked rank-3 access get the
// specialised execution path when forced.
template <typename E>
concept Rank3Expr = ArrayExpr<E> && requires(const E& e, extent_t i) {
  { e(i, i, i) };
};

template <typename E>
using expr_value_t = std::remove_cvref_t<decltype(std::declval<const E&>()(
    std::declval<const IndexVec&>()))>;

// ---------------------------------------------------------------------------
// Nodes
// ---------------------------------------------------------------------------

// Element-wise combination of two equally shaped expressions.
template <typename L, typename R, typename Op>
struct EwiseBinaryExpr {
  L lhs;
  R rhs;
  Op op;

  const Shape& shape() const { return lhs.shape(); }

  auto operator()(const IndexVec& iv) const { return op(lhs(iv), rhs(iv)); }

  auto operator()(extent_t i, extent_t j, extent_t k) const
    requires(Rank3Expr<L> && Rank3Expr<R>)
  {
    return op(lhs(i, j, k), rhs(i, j, k));
  }

  // Row-fill pass-through (detail::RowFillBody): when the right side offers
  // the kPlanes row path (a stencil over a concrete array — the only shape
  // the folding heuristic allows), the fused with-loop still lands on it.
  // The rhs row goes into the output row first, then the combine reads it
  // back per point — safe because this form writes a fresh buffer, so the
  // output row cannot alias either operand (force's in-place form has rows
  // of its own, detail::InPlaceEwise).
  bool row_fill_enabled() const
    requires(Rank3Expr<L> && detail::RowFillBody<R, double>)
  {
    return rhs.row_fill_enabled();
  }

  auto make_row_state() const
    requires(Rank3Expr<L> && detail::RowFillBody<R, double>)
  {
    return rhs.make_row_state();
  }

  template <typename State>
  void fill_row(State& st, extent_t i, extent_t j, double* out,
                extent_t k_lo, extent_t k_hi) const
    requires(Rank3Expr<L> && detail::RowFillBody<R, double>)
  {
    rhs.fill_row(st, i, j, out, k_lo, k_hi);
    if constexpr (std::is_same_v<L, Array<double>>) {
      const Shape& ls = lhs.shape();
      detail::ewise_into_row(op, lhs.data() + (i * ls[1] + j) * ls[2], out,
                             k_lo, k_hi);
    } else {
      for (extent_t k = k_lo; k < k_hi; ++k) {
        out[k] = op(lhs(i, j, k), out[k]);
      }
    }
  }
};

// Element-wise transformation of one expression.
template <typename E, typename Op>
struct EwiseUnaryExpr {
  E inner;
  Op op;

  const Shape& shape() const { return inner.shape(); }

  auto operator()(const IndexVec& iv) const { return op(inner(iv)); }

  auto operator()(extent_t i, extent_t j, extent_t k) const
    requires Rank3Expr<E>
  {
    return op(inner(i, j, k));
  }
};

// Expression broadcasting one scalar over a shape.
template <typename T>
struct ScalarExpr {
  Shape shp;
  T value;

  const Shape& shape() const { return shp; }
  T operator()(const IndexVec&) const { return value; }
  T operator()(extent_t, extent_t, extent_t) const { return value; }
};

// Index-remapped view: result[iv] = inner(map(iv)) where `map` is the
// affine index transform (iv * scale_num + pre) / scale_den + offset, with
// non-divisible positions ("scatter gaps") and elements mapped outside the
// source defaulting to `dflt`.  This one node fuses condense, scatter,
// take, embed and shift — also their phase-shifted forms on ghost-free
// grids — and any composition of them.
template <typename E>
struct GatherExpr {
  using T = expr_value_t<E>;

  E inner;
  Shape shp;            // result shape
  extent_t scale_num;   // see the transform above
  extent_t scale_den;   //   (per-axis uniform, matching the SAC library ops)
  extent_t pre;         // added before dividing (sampling phase)
  IndexVec offset;
  T dflt;

  const Shape& shape() const { return shp; }

  T operator()(const IndexVec& iv) const {
    IndexVec src(iv.size());
    for (std::size_t d = 0; d < iv.size(); ++d) {
      const extent_t scaled = iv[d] * scale_num + pre;
      if (scale_den != 1 && (scaled % scale_den != 0 || scaled < 0)) {
        return dflt;  // scatter gap
      }
      src[d] = scaled / scale_den + offset[d];
    }
    if (!inner.shape().contains(src)) return dflt;
    return inner(src);
  }

  T operator()(extent_t i, extent_t j, extent_t k) const
    requires Rank3Expr<E>
  {
    extent_t s[3] = {i * scale_num + pre, j * scale_num + pre,
                     k * scale_num + pre};
    if (scale_den != 1) {
      if (s[0] % scale_den || s[1] % scale_den || s[2] % scale_den ||
          s[0] < 0 || s[1] < 0 || s[2] < 0)
        return dflt;
      s[0] /= scale_den;
      s[1] /= scale_den;
      s[2] /= scale_den;
    }
    s[0] += offset[0];
    s[1] += offset[1];
    s[2] += offset[2];
    const Shape& ish = inner.shape();
    if (s[0] < 0 || s[0] >= ish[0] || s[1] < 0 || s[1] >= ish[1] ||
        s[2] < 0 || s[2] >= ish[2])
      return dflt;
    return inner(s[0], s[1], s[2]);
  }

  // -- backend row-fill protocol (detail::RowFillBody) ------------------------
  //
  // The affine transform is separable, so a whole output row maps to one
  // source row plus a k-range algebra: a contiguous copy (take/embed/shift),
  // a strided gather (condense), or a strided scatter into a default-filled
  // row (scatter).  Two inner forms participate:
  //
  //  (a) inner is an Array<double> — pure data movement, bitwise
  //      identical to per-point evaluation, enabled for every backend; a
  //      view is read in place (inner_row / patch_moved below);
  //  (b) inner itself offers the row protocol (a stencil, or another
  //      gather) — the inner row is produced first (directly into `out`
  //      when the k transform is the identity, else into a scratch row) and
  //      then gathered/scattered.  This swaps the stencil's per-point
  //      evaluator for its row combine, so it is gated on a vectorized
  //      backend to keep the pinned scalar goldens untouched.
  //
  // Builders only produce scale_num == 1 or scale_den == 1; mixed ratios
  // fall back to per-point evaluation via row_fill_enabled() == false.

  static constexpr bool kRowInnerArray = std::is_same_v<E, Array<double>>;

  bool row_fill_enabled() const
    requires(kRowInnerArray)
  {
    return shp.rank() == 3 && (scale_num == 1 || scale_den == 1);
  }

  bool row_fill_enabled() const
    requires(!kRowInnerArray && detail::RowFillBody<E, double>)
  {
    return shp.rank() == 3 && (scale_num == 1 || scale_den == 1) &&
           active_backend().vectorized() && inner.row_fill_enabled();
  }

  int make_row_state() const
    requires(kRowInnerArray)
  {
    return 0;  // stateless: gathers from the concrete array need no scratch
  }

  auto make_row_state() const
    requires(!kRowInnerArray && detail::RowFillBody<E, double>)
  {
    using InnerState = decltype(inner.make_row_state());
    struct State {
      InnerState st;
      std::vector<double> row;  // scratch for non-identity k transforms
    };
    return State{inner.make_row_state(),
                 std::vector<double>(
                     static_cast<std::size_t>(inner.shape().extent(2)))};
  }

  template <typename State>
  void fill_row(State& st, extent_t i, extent_t j, double* out,
                extent_t k_lo, extent_t k_hi) const
    requires((kRowInnerArray || detail::RowFillBody<E, double>) &&
             std::same_as<T, double>)
  {
    const Backend& be = active_backend();
    const Shape& ish = inner.shape();
    // Axes 0 and 1 resolve to one source row — or a whole default row when
    // the transformed coordinate is a scatter gap or out of bounds.
    extent_t src01[2] = {i, j};
    for (int d = 0; d < 2; ++d) {
      extent_t scaled = src01[d] * scale_num + pre;
      if (scale_den != 1) {
        if (scaled % scale_den != 0 || scaled < 0) {
          be.fill_row(out, k_lo, k_hi, dflt);
          return;
        }
        scaled /= scale_den;
      }
      scaled += offset[static_cast<std::size_t>(d)];
      if (scaled < 0 || scaled >= ish[static_cast<std::size_t>(d)]) {
        be.fill_row(out, k_lo, k_hi, dflt);
        return;
      }
      src01[d] = scaled;
    }
    const extent_t si = src01[0], sj = src01[1];
    if (scale_den == 1) {
      // src_k = k*scale_num + off2: a copy (num == 1) or gather (num > 1).
      const extent_t off2 = pre + offset[2];
      extent_t k0 = std::max(k_lo, detail::ceil_div(-off2, scale_num));
      extent_t k1 = std::min(
          k_hi, detail::floor_div(ish[2] - 1 - off2, scale_num) + 1);
      k0 = std::clamp(k0, k_lo, k_hi);
      k1 = std::clamp(k1, k0, k_hi);
      be.fill_row(out, k_lo, k0, dflt);
      be.fill_row(out, k1, k_hi, dflt);
      if (k0 >= k1) return;
      if constexpr (kRowInnerArray) {
        const double* src = inner_row(si, sj);
        if (scale_num == 1) {
          be.copy_row(out, src + k0 + off2, k0, k1);
        } else {
          be.gather_row(out + k0, src + k0 * scale_num + off2, scale_num,
                        k1 - k0);
        }
        patch_moved(src, off2, [&](extent_t q) {
          return q % scale_num == 0 && q / scale_num >= k0 &&
                         q / scale_num < k1
                     ? out + q / scale_num
                     : nullptr;
        });
      } else {
        const extent_t s_lo = k0 * scale_num + off2;
        const extent_t s_hi = (k1 - 1) * scale_num + off2 + 1;
        if (scale_num == 1) {
          // Identity k transform: land the inner row directly in `out`,
          // shifted so inner position s writes out[s - off2].
          inner.fill_row(st.st, si, sj, out - off2, s_lo, s_hi);
        } else {
          inner.fill_row(st.st, si, sj, st.row.data(), s_lo, s_hi);
          be.gather_row(out + k0, st.row.data() + s_lo, scale_num, k1 - k0);
        }
      }
    } else {
      // scale_num == 1, scale_den > 1: valid outputs sit at k = t*den - pre
      // with source index t + off2; every other position is a scatter gap.
      be.fill_row(out, k_lo, k_hi, dflt);
      const extent_t off2 = offset[2];
      const extent_t t_lo =
          std::max(detail::ceil_div(k_lo + pre, scale_den),
                   std::max<extent_t>(0, -off2));
      const extent_t t_hi =
          std::min(detail::floor_div(k_hi - 1 + pre, scale_den) + 1,
                   ish[2] - off2);
      if (t_hi <= t_lo) return;
      double* base = out + t_lo * scale_den - pre;
      if constexpr (kRowInnerArray) {
        const double* src = inner_row(si, sj);
        be.scatter_row(base, scale_den, src + t_lo + off2, t_hi - t_lo);
        patch_moved(src, off2, [&](extent_t t) {
          return t >= t_lo && t < t_hi ? out + t * scale_den - pre : nullptr;
        });
      } else {
        inner.fill_row(st.st, si, sj, st.row.data(), t_lo + off2,
                       t_hi + off2);
        be.scatter_row(base, scale_den, st.row.data() + t_lo + off2,
                       t_hi - t_lo);
      }
    }
  }

 private:
  // Source row (si, sj) of the concrete inner array; a view's row comes
  // through its axis-0/1 maps, without forcing it.
  const double* inner_row(extent_t si, extent_t sj) const
    requires(kRowInnerArray)
  {
    if (const auto* v = inner.view_map()) {
      return inner.base_data() + v->axis(0)[si] + v->axis(1)[sj];
    }
    const Shape& ish = inner.shape();
    return inner.base_data() + (si * ish[1] + sj) * ish[2];
  }

  // The row primitives above read a view's row as if its last axis were
  // unmapped.  Rewrite every output whose source position p the view moves:
  // `dest(p - off2)` is that output's address, or nullptr when the row did
  // not write it.  Pure data movement, so the patched row equals the forced
  // view's bitwise.
  template <typename Dest>
  void patch_moved(const double* src, extent_t off2, Dest dest) const
    requires(kRowInnerArray)
  {
    const auto* v = inner.view_map();
    if (v == nullptr) return;
    const extent_t* m2 = v->axis(2);
    for (const extent_t p : v->moved_last()) {
      if (p - off2 < 0) continue;
      if (double* o = dest(p - off2)) *o = src[m2[p]];
    }
  }
};

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

template <ArrayExpr L, ArrayExpr R, typename Op>
auto ewise(L lhs, R rhs, Op op) {
  SACPP_REQUIRE(lhs.shape() == rhs.shape(),
                "element-wise expression needs equal shapes");
  // The row pass-through hands the left array's raw rows to the workers, so
  // a view there is forced now, on the coordinating thread.
  if constexpr (std::is_same_v<L, Array<double>> &&
                detail::RowFillBody<R, double>) {
    lhs.materialise();
  }
  return EwiseBinaryExpr<L, R, Op>{std::move(lhs), std::move(rhs),
                                   std::move(op)};
}

template <ArrayExpr E, typename Op>
auto ewise1(E inner, Op op) {
  return EwiseUnaryExpr<E, Op>{std::move(inner), std::move(op)};
}

template <typename T>
ScalarExpr<T> scalar_expr(const Shape& shp, T value) {
  return ScalarExpr<T>{shp, value};
}

// lazy condense: result[iv] = inner[str * iv + phase]; shape / str.
template <ArrayExpr E>
auto lazy_condense(extent_t str, E inner, extent_t phase = 0) {
  SACPP_REQUIRE(str >= 1, "condense stride must be >= 1");
  SACPP_REQUIRE(phase >= 0 && phase < str, "condense phase must be in [0, str)");
  const Shape out_shape(inner.shape().extents() / str);
  IndexVec zero = uniform_vec(out_shape.rank(), 0);
  return GatherExpr<E>{std::move(inner), out_shape,     str,
                       1,                phase,         std::move(zero),
                       expr_value_t<E>{}};
}

// lazy scatter: result[str*iv + phase] = inner[iv], zeros elsewhere;
// shape * str.
template <ArrayExpr E>
auto lazy_scatter(extent_t str, E inner, extent_t phase = 0) {
  SACPP_REQUIRE(str >= 1, "scatter stride must be >= 1");
  SACPP_REQUIRE(phase >= 0 && phase < str, "scatter phase must be in [0, str)");
  const Shape out_shape(str * inner.shape().extents());
  IndexVec zero = uniform_vec(out_shape.rank(), 0);
  return GatherExpr<E>{std::move(inner), out_shape,     1,
                       str,              -phase,        std::move(zero),
                       expr_value_t<E>{}};
}

// lazy take: result[iv] = inner[iv] for iv < shp (prefix box).
template <ArrayExpr E>
auto lazy_take(const IndexVec& shp, E inner) {
  IndexVec zero = uniform_vec(shp.size(), 0);
  return GatherExpr<E>{std::move(inner), Shape(shp), 1, 1, 0,
                       std::move(zero),  expr_value_t<E>{}};
}

// lazy embed: result of shape shp with inner placed at pos, zeros elsewhere.
template <ArrayExpr E>
auto lazy_embed(const IndexVec& shp, const IndexVec& pos, E inner) {
  IndexVec neg(pos.size());
  for (std::size_t d = 0; d < pos.size(); ++d) neg[d] = -pos[d];
  return GatherExpr<E>{std::move(inner), Shape(shp), 1, 1, 0,
                       std::move(neg),   expr_value_t<E>{}};
}

// ---------------------------------------------------------------------------
// Forcing
// ---------------------------------------------------------------------------

// Materialise an expression with a single with-loop over its full shape.
// The expression is passed through as the loop body unchanged, so any access
// form it offers — index-vector, unpacked rank-3, or the kPlanes row-fill
// protocol — stays visible to the execution-path selection in with_loop.hpp
// (wrapping in a lambda used to erase the row path).
template <ArrayExpr E>
Array<expr_value_t<E>> force(const E& e) {
  return with_genarray<expr_value_t<E>>(e.shape(), gen_all(), e,
                                        expr_value_t<E>{});
}

// Arrays force to themselves (useful in generic code).
template <typename T>
Array<T> force(const Array<T>& a) {
  return a;
}

namespace detail {

// Loop body of force's in-place form: `e` written over `self`, its left
// array's buffer.  Per point op(self, rhs), each point reading its own
// element (and an array rhs's, raw) before the write.  The output row is
// self's, so a rhs row goes to per-chunk scratch, is combined with it and
// copied back, except that `self + stencil` accumulates into it in one
// pass — where a fixed-boundary stencil is 0 that keeps self, which is
// self + 0 up to the sign of a zero.
template <typename T, typename R, typename Op>
struct InPlaceEwise {
  static constexpr bool kArray = std::is_same_v<R, Array<T>>;
  static constexpr bool kRows =
      std::is_same_v<T, double> && RowFillBody<R, double>;
  static constexpr bool kAccumulate =
      std::is_same_v<R, StencilExpr> && std::is_same_v<Op, std::plus<>>;

  const EwiseBinaryExpr<Array<T>, R, Op>& e;
  T* self;
  const T* other;   // an array right operand's elements, else nullptr
  extent_t e1, e2;  // extents of axes 1 and 2 at rank 3

  // The right operand at linear offset `off`, which is index `idx...`.
  auto rhs_at(extent_t off, const auto&... idx) const {
    if constexpr (kArray) {
      return other[off];
    } else {
      return e.rhs(idx...);
    }
  }

  T operator()(const IndexVec& iv) const {
    const extent_t off = e.shape().linearize(iv);
    return e.op(self[off], rhs_at(off, iv));
  }
  T operator()(extent_t i, extent_t j, extent_t k) const
    requires Rank3Expr<R>
  {
    const extent_t off = (i * e1 + j) * e2 + k;
    return e.op(self[off], rhs_at(off, i, j, k));
  }

  bool row_fill_enabled() const
    requires kRows
  {
    return e.rhs.row_fill_enabled();
  }

  auto make_row_state() const
    requires kRows
  {
    if constexpr (kAccumulate) {
      return e.rhs.make_row_state();
    } else {
      struct State {
        decltype(e.rhs.make_row_state()) st;
        ScratchBlock row;
      };
      return State{e.rhs.make_row_state(),
                   scratch_block(static_cast<std::size_t>(e2))};
    }
  }

  template <typename State>
  void fill_row(State& st, extent_t i, extent_t j, double* out,
                extent_t k_lo, extent_t k_hi) const
    requires kRows
  {
    if constexpr (kAccumulate) {
      e.rhs.accumulate_row(st, i, j, out, k_lo, k_hi);
    } else {
      double* row = st.row.get();
      e.rhs.fill_row(st.st, i, j, row, k_lo, k_hi);
      ewise_into_row(e.op, out, row, k_lo, k_hi);
      active_backend().copy_row(out, row + k_lo, k_lo, k_hi);
    }
  }
};

}  // namespace detail

// Forcing an expiring ewise over a left array that holds its buffer alone,
// with reuse (D2) on, writes the result into that buffer — SAC's
// reference-counting reuse, which runs `u = u + VCycle(r)` in place.
// Nodes hold their arrays by value, so no operand can read such a buffer.
// mutable_data() counts the reuse as with_modarray does; a view array rhs
// is forced (the node's own handle).  Otherwise a fresh array, as above.
template <typename T, ArrayExpr R, typename Op>
  requires std::same_as<expr_value_t<EwiseBinaryExpr<Array<T>, R, Op>>, T>
Array<T> force(EwiseBinaryExpr<Array<T>, R, Op>&& e) {
  if (!e.lhs.unique() || !active_config().reuse) return force(std::as_const(e));
  const Shape shp = e.lhs.shape();
  const T* other = nullptr;
  if constexpr (std::is_same_v<R, Array<T>>) other = e.rhs.data();
  T* self = e.lhs.mutable_data();
  const bool rank3 = shp.rank() == 3;
  detail::execute_assign(
      self, shp, detail::resolve(gen_all(), shp),
      detail::InPlaceEwise<T, R, Op>{e, self, other, rank3 ? shp[1] : 0,
                                     rank3 ? shp[2] : 0});
  return std::move(e.lhs);
}

}  // namespace sacpp::sac
