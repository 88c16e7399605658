#pragma once
// The SAC array library: compound array operations defined *in* the library,
// not as built-ins — the paper's central design point (Sec. 2, Fig. 10).
//
// Every operation here is a thin definition on top of the WITH-loop
// construct.  The eager functions materialise their result; the lazy
// counterparts live in expr.hpp and fuse (with-loop folding).  Eager
// element-wise operations route through force(ewise(...)) so they still use
// the specialised rank-3 execution path.

#include <cmath>
#include <functional>
#include <limits>

#include "sacpp/common/shape.hpp"
#include "sacpp/sac/array.hpp"
#include "sacpp/sac/expr.hpp"
#include "sacpp/sac/with_loop.hpp"

namespace sacpp::sac {

// ---------------------------------------------------------------------------
// Constructors (paper Fig. 10: genarray)
// ---------------------------------------------------------------------------

// genarray(shp, val): constant array of shape shp.  The body takes unpacked
// rank-3 indices as well as an index vector, so rank 3 runs on the
// specialised loop nest.
template <typename T>
Array<T> genarray_const(const Shape& shp, T val) {
  return with_genarray<T>(shp, gen_all(),
                          [val](const auto&...) { return val; });
}

// iota(n): the vector [0, 1, ..., n-1].
template <typename T = extent_t>
Array<T> iota(extent_t n) {
  return with_genarray<T>(Shape{n}, gen_all(), [](const IndexVec& iv) {
    return static_cast<T>(iv[0]);
  });
}

// ---------------------------------------------------------------------------
// Element-wise maps and zips
// ---------------------------------------------------------------------------

// map(a, fn): element-wise unary application.
template <typename T, typename Fn>
auto map(const Array<T>& a, Fn fn) {
  return force(ewise1(a, std::move(fn)));
}

// zip(a, b, fn): element-wise binary application (equal shapes).
template <typename T, typename Fn>
auto zip(const Array<T>& a, const Array<T>& b, Fn fn) {
  return force(ewise(a, b, std::move(fn)));
}

template <typename T>
Array<T> operator+(const Array<T>& a, const Array<T>& b) {
  return zip(a, b, std::plus<>{});
}
template <typename T>
Array<T> operator-(const Array<T>& a, const Array<T>& b) {
  return zip(a, b, std::minus<>{});
}
template <typename T>
Array<T> operator*(const Array<T>& a, const Array<T>& b) {
  return zip(a, b, std::multiplies<>{});
}
template <typename T>
Array<T> operator/(const Array<T>& a, const Array<T>& b) {
  return zip(a, b, std::divides<>{});
}

// Move-qualified forms: when the left operand is an expiring value the
// result is computed in place in its buffer — C++ move semantics standing
// in for SAC's compile-time reference counting, which reuses an argument
// buffer whenever its reference count drops to one at the operation
// (e.g. `u = u + VCycle(r)` updates u in place in compiled SAC code).
namespace detail {
template <typename T, typename Op>
Array<T> zip_into(Array<T> a, const Array<T>& b, Op op) {
  SACPP_REQUIRE(a.shape() == b.shape(),
                "element-wise operation needs equal shapes");
  const Shape shp = a.shape();
  T* self = a.mutable_data();  // in place when uniquely owned
  const T* other = b.data();
  const auto g = resolve(gen_all(), shp);
  if (shp.rank() == 3) {
    const extent_t e1 = shp.extent(1), e2 = shp.extent(2);
    execute_assign(self, shp, g,
                   rank3_body([=](extent_t i, extent_t j, extent_t k) {
                     const extent_t off = (i * e1 + j) * e2 + k;
                     return op(self[off], other[off]);
                   }));
  } else {
    execute_assign(self, shp, g, [&](const IndexVec& iv) {
      const extent_t off = shp.linearize(iv);
      return op(self[off], other[off]);
    });
  }
  return a;
}
}  // namespace detail

template <typename T>
Array<T> operator+(Array<T>&& a, const Array<T>& b) {
  return detail::zip_into(std::move(a), b, std::plus<>{});
}
template <typename T>
Array<T> operator-(Array<T>&& a, const Array<T>& b) {
  return detail::zip_into(std::move(a), b, std::minus<>{});
}
template <typename T>
Array<T> operator*(Array<T>&& a, const Array<T>& b) {
  return detail::zip_into(std::move(a), b, std::multiplies<>{});
}

template <typename T>
Array<T> operator+(const Array<T>& a, T s) {
  return map(a, [s](T v) { return v + s; });
}
template <typename T>
Array<T> operator+(T s, const Array<T>& a) {
  return a + s;
}
template <typename T>
Array<T> operator-(const Array<T>& a, T s) {
  return map(a, [s](T v) { return v - s; });
}
template <typename T>
Array<T> operator*(const Array<T>& a, T s) {
  return map(a, [s](T v) { return v * s; });
}
template <typename T>
Array<T> operator*(T s, const Array<T>& a) {
  return a * s;
}
template <typename T>
Array<T> operator/(const Array<T>& a, T s) {
  return map(a, [s](T v) { return v / s; });
}
template <typename T>
Array<T> operator-(const Array<T>& a) {
  return map(a, [](T v) { return -v; });
}

template <typename T>
Array<T> abs(const Array<T>& a) {
  return map(a, [](T v) { return v < T{} ? -v : v; });
}

// ---------------------------------------------------------------------------
// Reductions (fold with-loops)
// ---------------------------------------------------------------------------

template <typename T>
T sum(const Array<T>& a) {
  return with_fold(
      std::plus<>{}, T{}, a.shape(), gen_all(),
      [&a](const IndexVec& iv) { return a[iv]; });
}

template <typename T>
T prod(const Array<T>& a) {
  return with_fold(
      std::multiplies<>{}, T{1}, a.shape(), gen_all(),
      [&a](const IndexVec& iv) { return a[iv]; });
}

template <typename T>
T max_elem(const Array<T>& a) {
  SACPP_REQUIRE(a.elem_count() > 0, "max_elem of empty array");
  return with_fold(
      [](T x, T y) { return x > y ? x : y; }, a.at_linear(0), a.shape(),
      gen_all(), [&a](const IndexVec& iv) { return a[iv]; });
}

template <typename T>
T min_elem(const Array<T>& a) {
  SACPP_REQUIRE(a.elem_count() > 0, "min_elem of empty array");
  return with_fold(
      [](T x, T y) { return x < y ? x : y; }, a.at_linear(0), a.shape(),
      gen_all(), [&a](const IndexVec& iv) { return a[iv]; });
}

template <typename T>
T max_abs(const Array<T>& a) {
  return with_fold(
      [](T x, T y) { return x > y ? x : y; }, T{}, a.shape(), gen_all(),
      [&a](const IndexVec& iv) {
        const T v = a[iv];
        return v < T{} ? -v : v;
      });
}

// Fold bodies carrying the backend row-fold protocol (detail::RowFoldBody,
// docs/backends.md).  Under kScalar the accumulator threads through row
// elements in row-major order — bit-identical to the generic fold walker —
// while vectorized backends reassociate per row into the fixed four-lane
// structure documented in backend.hpp.  Contract: pass the matching
// operation (plus / max) to with_fold, since chunk partials still merge
// through it.

// Both take the elements' address at construction, on the coordinating
// thread, which forces a view there rather than on a worker.
struct SumSqRows {
  Array<double> a;
  const double* p = a.data();
  const Backend* be = &active_backend();

  double operator()(const IndexVec& iv) const {
    const double x = a[iv];
    return x * x;
  }
  double operator()(extent_t i, extent_t j, extent_t k) const {
    const Shape& s = a.shape();
    const double x = p[(i * s[1] + j) * s[2] + k];
    return x * x;
  }
  bool row_fold_enabled() const { return a.rank() == 3; }
  double fold_row(double acc, extent_t i, extent_t j, extent_t k_lo,
                  extent_t k_hi) const {
    const Shape& s = a.shape();
    return be->sum_sq_row(acc, p + (i * s[1] + j) * s[2], k_lo, k_hi);
  }
};

struct MaxAbsRows {
  Array<double> a;
  const double* p = a.data();
  const Backend* be = &active_backend();

  double operator()(const IndexVec& iv) const {
    const double v = a[iv];
    return v < 0.0 ? -v : v;
  }
  double operator()(extent_t i, extent_t j, extent_t k) const {
    const Shape& s = a.shape();
    const double v = p[(i * s[1] + j) * s[2] + k];
    return v < 0.0 ? -v : v;
  }
  bool row_fold_enabled() const { return a.rank() == 3; }
  double fold_row(double acc, extent_t i, extent_t j, extent_t k_lo,
                  extent_t k_hi) const {
    const Shape& s = a.shape();
    return be->max_abs_row(acc, p + (i * s[1] + j) * s[2], k_lo, k_hi);
  }
};

inline SumSqRows sum_sq_rows(Array<double> a) {
  return SumSqRows{std::move(a)};
}
inline MaxAbsRows max_abs_rows(Array<double> a) {
  return MaxAbsRows{std::move(a)};
}

// Rank-aware overload: double arrays reduce through the backend row fold.
inline double max_abs(const Array<double>& a) {
  return with_fold([](double x, double y) { return x > y ? x : y; }, 0.0,
                   a.shape(), gen_all(), MaxAbsRows{a});
}

template <typename T>
T dot(const Array<T>& a, const Array<T>& b) {
  SACPP_REQUIRE(a.shape() == b.shape(), "dot needs equal shapes");
  return with_fold(
      std::plus<>{}, T{}, a.shape(), gen_all(),
      [&](const IndexVec& iv) { return a[iv] * b[iv]; });
}

// ---------------------------------------------------------------------------
// Structural operations (paper Fig. 10)
// ---------------------------------------------------------------------------

// condense(str, a): every str-th element along every axis; shape(a)/str.
template <typename T>
Array<T> condense(extent_t str, const Array<T>& a) {
  return force(lazy_condense(str, a));
}

// scatter(str, a): a's elements spread with stride str, zeros between;
// shape str*shape(a).
template <typename T>
Array<T> scatter(extent_t str, const Array<T>& a) {
  return force(lazy_scatter(str, a));
}

// embed(shp, pos, a): a placed at pos inside a zero array of shape shp.
template <typename T>
Array<T> embed(const IndexVec& shp, const IndexVec& pos, const Array<T>& a) {
  SACPP_REQUIRE(shp.size() == a.rank(), "embed rank mismatch");
  for (std::size_t d = 0; d < shp.size(); ++d) {
    SACPP_REQUIRE(pos[d] >= 0 && pos[d] + a.shape().extent(d) <= shp[d],
                  "embedded array exceeds target shape");
  }
  return force(lazy_embed(shp, pos, a));
}

// take(shp, a): the leading box of extent shp.
template <typename T>
Array<T> take(const IndexVec& shp, const Array<T>& a) {
  SACPP_REQUIRE(shp.size() == a.rank(), "take rank mismatch");
  for (std::size_t d = 0; d < shp.size(); ++d) {
    SACPP_REQUIRE(shp[d] >= 0 && shp[d] <= a.shape().extent(d),
                  "take extent exceeds array shape");
  }
  return force(lazy_take(shp, a));
}

// drop(n, a): a without its first n[d] elements along each axis.
template <typename T>
Array<T> drop(const IndexVec& n, const Array<T>& a) {
  SACPP_REQUIRE(n.size() == a.rank(), "drop rank mismatch");
  IndexVec out_shape(a.rank());
  for (std::size_t d = 0; d < n.size(); ++d) {
    SACPP_REQUIRE(n[d] >= 0 && n[d] <= a.shape().extent(d),
                  "drop count exceeds array shape");
    out_shape[d] = a.shape().extent(d) - n[d];
  }
  return with_genarray<T>(Shape(out_shape), gen_all(),
                          [&](const IndexVec& iv) { return a[iv + n]; });
}

// shift(offset, a): elements moved by offset, vacated positions zero.
template <typename T>
Array<T> shift(const IndexVec& offset, const Array<T>& a) {
  SACPP_REQUIRE(offset.size() == a.rank(), "shift rank mismatch");
  return with_genarray<T>(a.shape(), gen_all(), [&](const IndexVec& iv) {
    IndexVec src = iv - offset;
    return a.shape().contains(src) ? a[src] : T{};
  });
}

// rotate(offset, a): cyclic shift by offset along every axis.
template <typename T>
Array<T> rotate(const IndexVec& offset, const Array<T>& a) {
  SACPP_REQUIRE(offset.size() == a.rank(), "rotate rank mismatch");
  return with_genarray<T>(a.shape(), gen_all(), [&](const IndexVec& iv) {
    IndexVec src(iv.size());
    for (std::size_t d = 0; d < iv.size(); ++d) {
      const extent_t e = a.shape().extent(d);
      src[d] = ((iv[d] - offset[d]) % e + e) % e;
    }
    return a[src];
  });
}

// reverse(axis, a): elements mirrored along one axis.
template <typename T>
Array<T> reverse(std::size_t axis, const Array<T>& a) {
  SACPP_REQUIRE(axis < a.rank(), "reverse axis out of range");
  return with_genarray<T>(a.shape(), gen_all(), [&](const IndexVec& iv) {
    IndexVec src(iv.begin(), iv.end());
    src[axis] = a.shape().extent(axis) - 1 - iv[axis];
    return a[src];
  });
}

// transpose(a): axes reversed (APL transpose for rank 2; generalised).
template <typename T>
Array<T> transpose(const Array<T>& a) {
  IndexVec out_shape(a.rank());
  for (std::size_t d = 0; d < a.rank(); ++d) {
    out_shape[d] = a.shape().extent(a.rank() - 1 - d);
  }
  return with_genarray<T>(Shape(out_shape), gen_all(),
                          [&](const IndexVec& iv) {
                            IndexVec src(iv.size());
                            for (std::size_t d = 0; d < iv.size(); ++d) {
                              src[d] = iv[iv.size() - 1 - d];
                            }
                            return a[src];
                          });
}

// reshape(shp, a): same row-major element sequence, new shape.
template <typename T>
Array<T> reshape(const Shape& shp, const Array<T>& a) {
  SACPP_REQUIRE(shp.elem_count() == a.elem_count(),
                "reshape must preserve the element count");
  return with_genarray<T>(shp, gen_all(), [&](const IndexVec& iv) {
    return a.at_linear(shp.linearize(iv));
  });
}

// ---------------------------------------------------------------------------
// Subarray selection and slicing
// ---------------------------------------------------------------------------

// sel(prefix, a): SAC's selection with a partial index vector — indexing an
// array of rank r with a vector of length m < r yields the rank (r - m)
// subarray at that prefix (a[i] of a matrix is its i-th row).
template <typename T>
Array<T> sel(const IndexVec& prefix, const Array<T>& a) {
  SACPP_REQUIRE(prefix.size() <= a.rank(), "selection prefix too long");
  IndexVec rest;
  for (std::size_t d = prefix.size(); d < a.rank(); ++d) {
    rest.push_back(a.shape().extent(d));
  }
  for (std::size_t d = 0; d < prefix.size(); ++d) {
    SACPP_REQUIRE(prefix[d] >= 0 && prefix[d] < a.shape().extent(d),
                  "selection prefix out of range");
  }
  return with_genarray<T>(Shape(rest), gen_all(), [&](const IndexVec& iv) {
    IndexVec full(prefix.begin(), prefix.end());
    for (extent_t x : iv) full.push_back(x);
    return a[full];
  });
}

// slice(lower, upper, a): the rectangular subarray lower <= iv < upper
// (take and drop generalised to an arbitrary box).
template <typename T>
Array<T> slice(const IndexVec& lower, const IndexVec& upper,
               const Array<T>& a) {
  SACPP_REQUIRE(lower.size() == a.rank() && upper.size() == a.rank(),
                "slice bound rank mismatch");
  IndexVec out_shape(a.rank());
  for (std::size_t d = 0; d < a.rank(); ++d) {
    SACPP_REQUIRE(lower[d] >= 0 && upper[d] >= lower[d] &&
                      upper[d] <= a.shape().extent(d),
                  "slice bounds out of range");
    out_shape[d] = upper[d] - lower[d];
  }
  return with_genarray<T>(Shape(out_shape), gen_all(),
                          [&](const IndexVec& iv) { return a[iv + lower]; });
}

// catenate(axis, a, b): a and b joined along `axis` (APL's , and SAC's ++);
// all other extents must agree.
template <typename T>
Array<T> catenate(std::size_t axis, const Array<T>& a, const Array<T>& b) {
  SACPP_REQUIRE(a.rank() == b.rank(), "catenate rank mismatch");
  SACPP_REQUIRE(axis < a.rank(), "catenate axis out of range");
  IndexVec out_shape(a.rank());
  for (std::size_t d = 0; d < a.rank(); ++d) {
    if (d == axis) {
      out_shape[d] = a.shape().extent(d) + b.shape().extent(d);
    } else {
      SACPP_REQUIRE(a.shape().extent(d) == b.shape().extent(d),
                    "catenate non-axis extents must agree");
      out_shape[d] = a.shape().extent(d);
    }
  }
  const extent_t split = a.shape().extent(axis);
  return with_genarray<T>(Shape(out_shape), gen_all(),
                          [&, split](const IndexVec& iv) {
                            if (iv[axis] < split) return a[iv];
                            IndexVec src(iv.begin(), iv.end());
                            src[axis] -= split;
                            return b[src];
                          });
}

// ---------------------------------------------------------------------------
// Axis-wise reductions and scans
// ---------------------------------------------------------------------------

// reduce_axis(axis, a, op, neutral): fold along one axis; rank drops by one.
template <typename T, typename Op>
Array<T> reduce_axis(std::size_t axis, const Array<T>& a, Op op, T neutral) {
  SACPP_REQUIRE(axis < a.rank(), "reduction axis out of range");
  IndexVec out_shape;
  for (std::size_t d = 0; d < a.rank(); ++d) {
    if (d != axis) out_shape.push_back(a.shape().extent(d));
  }
  const extent_t len = a.shape().extent(axis);
  return with_genarray<T>(Shape(out_shape), gen_all(),
                          [&](const IndexVec& iv) {
                            IndexVec full(a.rank());
                            std::size_t s = 0;
                            for (std::size_t d = 0; d < a.rank(); ++d) {
                              if (d != axis) full[d] = iv[s++];
                            }
                            T acc = neutral;
                            for (extent_t x = 0; x < len; ++x) {
                              full[axis] = x;
                              acc = op(acc, a[full]);
                            }
                            return acc;
                          });
}

template <typename T>
Array<T> sum_axis(std::size_t axis, const Array<T>& a) {
  return reduce_axis(axis, a, std::plus<>{}, T{});
}

template <typename T>
Array<T> max_axis(std::size_t axis, const Array<T>& a) {
  SACPP_REQUIRE(a.shape().extent(axis) > 0, "max over empty axis");
  // fold from the first element so no artificial lower bound is needed
  return reduce_axis(
      axis, a, [](T x, T y) { return x > y ? x : y; },
      std::numeric_limits<T>::lowest());
}

// scan_axis(axis, a, op, neutral): inclusive prefix fold along one axis
// (APL's scan); same shape as a.
template <typename T, typename Op>
Array<T> scan_axis(std::size_t axis, const Array<T>& a, Op op, T neutral) {
  SACPP_REQUIRE(axis < a.rank(), "scan axis out of range");
  return with_genarray<T>(a.shape(), gen_all(), [&](const IndexVec& iv) {
    IndexVec src(iv.begin(), iv.end());
    T acc = neutral;
    for (extent_t x = 0; x <= iv[axis]; ++x) {
      src[axis] = x;
      acc = op(acc, a[src]);
    }
    return acc;
  });
}

template <typename T>
Array<T> cumsum_axis(std::size_t axis, const Array<T>& a) {
  return scan_axis(axis, a, std::plus<>{}, T{});
}

// where(mask, a, b): element-wise selection — a where mask is non-zero,
// b elsewhere.
template <typename T>
Array<T> where(const Array<T>& mask, const Array<T>& a, const Array<T>& b) {
  SACPP_REQUIRE(mask.shape() == a.shape() && a.shape() == b.shape(),
                "where needs equal shapes");
  return with_genarray<T>(a.shape(), gen_all(), [&](const IndexVec& iv) {
    return mask[iv] != T{} ? a[iv] : b[iv];
  });
}

// count_if-style fold: number of elements satisfying a predicate.
template <typename T, typename Pred>
extent_t count_where(const Array<T>& a, Pred pred) {
  return with_fold(
      std::plus<>{}, extent_t{0}, a.shape(), gen_all(),
      [&](const IndexVec& iv) { return pred(a[iv]) ? extent_t{1} : extent_t{0}; });
}

// tile(a, reps): a replicated periodically to shape reps*shape(a).
template <typename T>
Array<T> tile(const Array<T>& a, extent_t reps) {
  SACPP_REQUIRE(reps >= 1, "tile repetition must be >= 1");
  const Shape out(reps * a.shape().extents());
  return with_genarray<T>(out, gen_all(), [&](const IndexVec& iv) {
    IndexVec src(iv.size());
    for (std::size_t d = 0; d < iv.size(); ++d) {
      src[d] = iv[d] % a.shape().extent(d);
    }
    return a[src];
  });
}

}  // namespace sacpp::sac
