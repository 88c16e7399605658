#pragma once
// Array<T>: the SAC array value.
//
// Arrays are immutable values with O(1) copies (shared buffers).  The only
// mutation paths are the with-loop engine and the `mutable_data()` escape
// hatch, both of which first call `ensure_unique()`, giving copy-on-write
// semantics exactly like SAC's reference-counting scheme: writes to a
// uniquely owned array happen in place, writes to a shared array first deep
// copy.
//
// Element types are restricted to arithmetic types — matching SAC's numeric
// array universe and keeping buffers memcpy-able.
//
// An array may also be a copy-free *view*: another array's buffer read
// through per-axis index maps, standing for a with-loop that has not run
// (with_loop.hpp, with_modarray_reading; docs/with_loops.md).  Element
// accessors read through the maps; every raw-pointer access (`data()`,
// `mutable_data()`) first forces the view into a concrete array, which must
// happen on the coordinating thread outside any parallel region.

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sacpp/common/error.hpp"
#include "sacpp/common/shape.hpp"
#include "sacpp/sac/buffer.hpp"
#include "sacpp/sac/config.hpp"

namespace sacpp::sac {

template <typename T>
class Array;

namespace detail {

// The index map of a view: one map per axis, held as linear offsets into
// the base buffer, so the view's element at iv is the base element at
// sum_d axis(d)[iv[d]].  How a view turns concrete is the subclass's
// business (ShiftView replays its partitions), which keeps this header free
// of the with-loop engine.
template <typename T>
class ViewMap {
 public:
  // `maps[d][x]` is the base index the view reads at index x of axis d.
  ViewMap(const Shape& shp, std::vector<std::vector<extent_t>> maps)
      : axes_(std::move(maps)) {
    const IndexVec strides = shp.strides();
    for (std::size_t d = 0; d < axes_.size(); ++d) {
      for (extent_t& x : axes_[d]) x *= strides[d];
    }
    const std::vector<extent_t>& last = axes_.back();
    for (extent_t x = 0; x < static_cast<extent_t>(last.size()); ++x) {
      if (last[static_cast<std::size_t>(x)] != x) moved_.push_back(x);
    }
  }
  virtual ~ViewMap() = default;
  ViewMap(const ViewMap&) = delete;
  ViewMap& operator=(const ViewMap&) = delete;

  // The view's values as a concrete array, computed from its base.
  virtual Array<T> materialise(Array<T> base) const = 0;

  const extent_t* axis(std::size_t d) const noexcept {
    return axes_[d].data();
  }
  // The sorted positions of the last axis the map moves.
  const std::vector<extent_t>& moved_last() const noexcept { return moved_; }

  extent_t offset(const IndexVec& iv) const noexcept {
    extent_t off = 0;
    for (std::size_t d = 0; d < iv.size(); ++d) {
      off += axes_[d][static_cast<std::size_t>(iv[d])];
    }
    return off;
  }
  extent_t offset_linear(extent_t lin) const noexcept {
    extent_t off = 0;
    for (std::size_t d = axes_.size(); d-- > 0;) {
      const auto n = static_cast<extent_t>(axes_[d].size());
      off += axes_[d][static_cast<std::size_t>(lin % n)];
      lin /= n;
    }
    return off;
  }

 private:
  std::vector<std::vector<extent_t>> axes_;
  std::vector<extent_t> moved_;
};

}  // namespace detail

template <typename T>
class Array {
  static_assert(std::is_arithmetic_v<T>,
                "sacpp arrays hold arithmetic element types");

 public:
  using value_type = T;

  // The default array is the scalar 0 (rank-0).
  Array() : Array(Shape{}, T{}) {}

  // Scalar (rank-0) array.
  /* implicit */ Array(T scalar) : shape_(Shape{}), buf_(1) {
    buf_.data()[0] = scalar;
  }

  // Uninitialised array of a given shape (with-loop engine fills it).
  static Array uninitialized(const Shape& shape) { return Array(shape); }

  // Constant array of a given shape.
  Array(const Shape& shape, T fill) : Array(shape) {
    std::fill_n(buf_.data(), static_cast<std::size_t>(shape.elem_count()),
                fill);
  }

  // Rank-1 array from an initializer list.
  static Array vector(std::initializer_list<T> values) {
    Array a(Shape{static_cast<extent_t>(values.size())});
    std::copy(values.begin(), values.end(), a.buf_.data());
    return a;
  }

  const Shape& shape() const noexcept { return shape_; }
  std::size_t rank() const noexcept { return shape_.rank(); }
  extent_t elem_count() const noexcept { return shape_.elem_count(); }
  bool is_scalar() const noexcept { return shape_.is_scalar(); }

  // Element selection (SAC's array[index-vector]).
  T operator[](const IndexVec& iv) const {
    if (view_) [[unlikely]] {
      SACPP_ASSERT(shape_.contains(iv), "index out of range");
      return buf_.data()[view_->offset(iv)];
    }
    return buf_.data()[shape_.linearize(iv)];
  }

  // Linear (row-major) element access.
  T at_linear(extent_t i) const {
    SACPP_ASSERT(i >= 0 && i < elem_count(), "linear index out of range");
    if (view_) [[unlikely]] return buf_.data()[view_->offset_linear(i)];
    return buf_.data()[i];
  }

  // Scalar value of a rank-0 array.
  T scalar() const {
    SACPP_REQUIRE(is_scalar(), "scalar() on non-scalar array");
    return buf_.data()[0];
  }

  // The elements in row-major order; forces a view.
  const T* data() const {
    materialise();
    return buf_.data();
  }

  // Expression-template protocol: arrays are the leaf expressions.
  T operator()(const IndexVec& iv) const { return (*this)[iv]; }
  T operator()(extent_t i, extent_t j, extent_t k) const {
    SACPP_ASSERT(rank() == 3, "rank-3 access on non-rank-3 array");
    if (view_) [[unlikely]] {
      return buf_.data()[view_->axis(0)[i] + view_->axis(1)[j] +
                         view_->axis(2)[k]];
    }
    const auto& e = shape_.extents();
    return buf_.data()[(i * e[1] + j) * e[2] + k];
  }

  // -- copy-free views --------------------------------------------------------

  // A view of `base` (a concrete array) through `map`, built for base's
  // shape.  Shares base's buffer; nothing is copied until it is forced.
  static Array view(const Array& base,
                    std::shared_ptr<const detail::ViewMap<T>> map) {
    SACPP_REQUIRE(!base.view_ && map != nullptr,
                  "a view needs a concrete base and a map");
    Array v(base);
    v.view_ = std::move(map);
    return v;
  }

  bool is_view() const noexcept { return view_ != nullptr; }

  // A view's index map and the buffer it reads through it (nullptr and the
  // elements themselves for a concrete array).  Neither forces the view.
  const detail::ViewMap<T>* view_map() const noexcept { return view_.get(); }
  const T* base_data() const noexcept { return buf_.data(); }

  // Force a view into a concrete array, in place; a no-op on concrete
  // arrays.  Coordinating thread only, outside parallel regions: forcing
  // rebinds the buffer other threads read (checked mode reports a force
  // inside a region, docs/static_analysis.md).
  void materialise() const {
    if (view_) [[unlikely]] force_view();
  }

  // True when this value is the sole owner of its buffer (reuse condition).
  // A view never is: its values are not in the buffer it shares.
  bool unique() const noexcept { return !view_ && buf_.unique(); }
  std::uint32_t use_count() const noexcept { return buf_.use_count(); }

  // Copy-on-write: after this call the buffer is uniquely owned.  Honours
  // the reuse ablation switch — with reuse disabled a fresh buffer is always
  // taken, modelling a SAC runtime without reference-counting reuse.
  void ensure_unique() {
    materialise();
    if (buf_.unique() && active_config().reuse) {
      stats().reuses += 1;
      return;
    }
    Buffer<T> fresh(static_cast<std::size_t>(elem_count()));
    std::memcpy(fresh.data(), buf_.data(),
                static_cast<std::size_t>(elem_count()) * sizeof(T));
    if (!buf_.unique()) stats().copies_on_write += 1;
    buf_ = std::move(fresh);
  }

  // Mutable access for the with-loop engine; triggers copy-on-write.
  T* mutable_data() {
    ensure_unique();
    return buf_.data();
  }

  // Mutable access WITHOUT the copy-on-write check; only the with-loop
  // engine uses this, on arrays it just created.  In checked mode the
  // uniqueness/alias checker records a use-after-steal event if the buffer
  // is in fact still aliased (refcount > 1) — writing through this pointer
  // would then be visible through every alias.
  T* raw_data_unchecked() noexcept {
    SACPP_ASSERT(!view_, "raw_data_unchecked on a view");
    if (active_config().check) [[unlikely]] {
      buf_.note_unchecked_write();
    }
    return buf_.data();
  }

 private:
  explicit Array(const Shape& shape)
      : shape_(shape), buf_(static_cast<std::size_t>(shape.elem_count())) {}
  Array(const Shape& shape, Buffer<T> buf)
      : shape_(shape), buf_(std::move(buf)) {}

  void force_view() const {
    if (check_detail::ownership_watch()) [[unlikely]] {
      check_detail::note_view_force();
    }
    // The local keeps the map alive while it runs: it may hold the last
    // reference.  Handing the buffer over lets the replay run in place when
    // no other array still holds the base.
    const std::shared_ptr<const detail::ViewMap<T>> map = std::move(view_);
    buf_ = map->materialise(Array(shape_, std::move(buf_))).buf_;
  }

  Shape shape_;
  // Mutable so that forcing a view — a change of representation, not of
  // value — can happen behind const accessors like data().
  mutable Buffer<T> buf_;
  mutable std::shared_ptr<const detail::ViewMap<T>> view_;
};

// SAC's built-in structural primitives: dim(), shape() as free functions.
template <typename T>
std::size_t dim(const Array<T>& a) {
  return a.rank();
}

template <typename T>
const Shape& shape_of(const Array<T>& a) {
  return a.shape();
}

}  // namespace sacpp::sac
