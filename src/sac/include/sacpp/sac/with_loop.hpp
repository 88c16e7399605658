#pragma once
// The WITH-loop: SAC's single array-comprehension construct.
//
//   with ( lower <= iv < upper [step s [width w]] )
//     genarray( shp, expr )   |  modarray( array, expr )  |
//     fold( op, neutral, expr )
//
// Gen describes the generator.  Empty bound vectors play the role of the
// paper's "dots" (smallest / largest legal index vector for the result
// shape); length-1 bounds against a higher-rank result are replicated, the
// paper's scalar-replication shorthand.
//
// Execution applies the optimisation strategies selected in SacConfig:
// dense rank-3 generators can run through an unrolled loop nest
// (specialisation, D3), and large generators run multithreaded over the
// outermost axis through the persistent thread pool (implicit MT), with
// strided generators chunk-aligned to their step so the grid phase is
// preserved.
//
// Loop bodies receive the index vector (`T body(const IndexVec&)`); bodies
// that additionally accept unpacked rank-3 indices (`T body(i, j, k)`) get
// the index-vector-elimination fast path.

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "sacpp/common/error.hpp"
#include "sacpp/common/index_space.hpp"
#include "sacpp/common/shape.hpp"
#include "sacpp/obs/obs.hpp"
#include "sacpp/sac/array.hpp"
#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/sac/runtime.hpp"
#include "sacpp/sac/stats.hpp"

namespace sacpp::sac {

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

struct Gen {
  IndexVec lower;  // empty: ". <=" (zero vector)
  IndexVec upper;  // empty: "<= ." (result shape, exclusive)
  IndexVec step;   // empty: dense
  IndexVec width;  // empty: width 1

  Gen&& with_step(IndexVec s) && {
    step = std::move(s);
    return std::move(*this);
  }
  Gen&& with_width(IndexVec w) && {
    width = std::move(w);
    return std::move(*this);
  }
  Gen&& with_step(extent_t s) && { return std::move(*this).with_step(IndexVec{s}); }
  Gen&& with_width(extent_t w) && {
    return std::move(*this).with_width(IndexVec{w});
  }
};

// The full index space of the result: "with (. <= iv <= .)".
inline Gen gen_all() { return Gen{}; }

// Explicit rectangular range.
inline Gen gen_range(IndexVec lower, IndexVec upper) {
  return Gen{std::move(lower), std::move(upper), {}, {}};
}

// Interior of a shape with a margin on every side (common stencil pattern).
// An extent smaller than 2*margin would make upper < lower on that axis —
// a silently empty generator that has hidden real bugs — so it is rejected
// with the same diagnostic contract as the other degenerate generators in
// detail::resolve (extent == 2*margin is a legal empty interior).
inline Gen gen_interior(const Shape& shp, extent_t margin = 1) {
  SACPP_REQUIRE(margin >= 0, "gen_interior margin must be >= 0");
  for (std::size_t d = 0; d < shp.rank(); ++d) {
    SACPP_REQUIRE(shp.extent(d) >= 2 * margin,
                  "gen_interior extent smaller than 2*margin");
  }
  return gen_range(uniform_vec(shp.rank(), margin), shp.extents() - margin);
}

namespace detail {

struct ResolvedGen {
  IndexVec lower, upper, step, width;
  bool dense = true;       // no step/width filter
  bool full = false;       // covers the entire result shape densely
  extent_t count = 0;      // number of generator elements
};

// Replicate a length-1 vector to the target rank (scalar shorthand).
inline IndexVec replicate(const IndexVec& v, std::size_t rank,
                          extent_t dflt) {
  if (v.empty()) return uniform_vec(rank, dflt);
  if (v.size() == 1 && rank != 1) return uniform_vec(rank, v[0]);
  SACPP_REQUIRE(v.size() == rank,
                "generator vector rank does not match result rank");
  return IndexVec(v.begin(), v.end());
}

inline ResolvedGen resolve(const Gen& g, const Shape& result_shape) {
  const std::size_t rank = result_shape.rank();
  ResolvedGen r;
  r.lower = replicate(g.lower, rank, 0);
  r.upper = g.upper.empty() ? IndexVec(result_shape.extents().begin(),
                                       result_shape.extents().end())
                            : replicate(g.upper, rank, 0);
  r.step = replicate(g.step, rank, 1);
  r.width = g.width.empty() ? IndexVec(rank, 1)
                            : replicate(g.width, rank, 1);
  if (g.step.empty() && !g.width.empty()) {
    // width without step is meaningless; SAC forbids it.
    SACPP_REQUIRE(false, "generator width given without step");
  }
  r.dense = true;
  for (std::size_t d = 0; d < rank; ++d) {
    SACPP_REQUIRE(r.lower[d] >= 0, "generator lower bound negative");
    SACPP_REQUIRE(r.upper[d] <= result_shape.extent(d),
                  "generator upper bound exceeds result shape");
    SACPP_REQUIRE(r.step[d] >= 1, "generator step must be >= 1");
    SACPP_REQUIRE(r.width[d] >= 1 && r.width[d] <= r.step[d],
                  "generator width must be in [1, step]");
    if (r.step[d] != 1) r.dense = false;
  }
  r.count = grid_count(r.lower, r.upper, r.step, r.width);
  r.full = r.dense && r.count == result_shape.elem_count();
  return r;
}

// -- body invocation ---------------------------------------------------------

template <typename Body>
concept TripleIndexBody = requires(const Body& b, extent_t i) { b(i, i, i); };

// Bodies that can produce a whole contiguous k-row at once, carrying scratch
// state across rows (the kPlanes shared plane-sum protocol, docs/stencil.md):
//  * row_fill_enabled() — dynamic opt-in (mode and grid-size cutover);
//  * make_row_state()   — per-chunk scratch (each parallel chunk owns one,
//                         so worker threads never share row buffers);
//  * fill_row(state, i, j, out_row, k_lo, k_hi) — write out_row[k_lo..k_hi).
template <typename Body, typename T>
concept RowFillBody = requires(const Body& b, T* out, extent_t i) {
  { b.row_fill_enabled() } -> std::convertible_to<bool>;
  b.make_row_state();
  requires requires(decltype(b.make_row_state())& st) {
    b.fill_row(st, i, i, out, i, i);
  };
};

// Fold bodies that can fold a whole contiguous k-row into a running
// accumulator (the backend row-fold protocol, docs/backends.md):
//  * row_fold_enabled() — dynamic opt-in;
//  * fold_row(acc, i, j, k_lo, k_hi) — returns acc folded with the body's
//    value at every (i, j, k) for k in [k_lo, k_hi).
// Contract: fold_row must combine with the same operation as the `op`
// handed to with_fold — parallel chunk partials are still merged with op.
// Under kScalar the fold threads acc through elements in row-major order,
// bit-identical to the generic walker; vectorized backends reassociate per
// row in the fixed lane order backend.hpp defines.
template <typename Body, typename T>
concept RowFoldBody = requires(const Body& b, T acc, extent_t i) {
  { b.row_fold_enabled() } -> std::convertible_to<bool>;
  { b.fold_row(acc, i, i, i, i) } -> std::convertible_to<T>;
};

// Tally for stats().backend_simd_rows: one shared-counter add per with-loop
// (not per row — worker threads must not contend on the counter).
inline void count_backend_rows(const ResolvedGen& g) {
  if (active_backend().vectorized()) {
    stats().backend_simd_rows += static_cast<std::uint64_t>(
        (g.upper[0] - g.lower[0]) * (g.upper[1] - g.lower[1]));
  }
}

// -- element walkers ---------------------------------------------------------

// Walk one generator over a sub-range of the outermost axis, calling
// visit(linear_offset, iv) for each member.  `strides` are the row-major
// strides of the result array.
template <typename Visit>
void walk_range(const ResolvedGen& g, const IndexVec& strides,
                extent_t axis0_lo, extent_t axis0_hi, Visit&& visit) {
  IndexVec lo(g.lower.begin(), g.lower.end());
  IndexVec hi(g.upper.begin(), g.upper.end());
  lo[0] = axis0_lo;
  hi[0] = axis0_hi;
  if (g.dense) {
    for_each_index(lo, hi, [&](const IndexVec& iv) {
      extent_t off = 0;
      for (std::size_t d = 0; d < iv.size(); ++d) off += iv[d] * strides[d];
      visit(off, iv);
    });
  } else {
    for_each_index_grid(lo, hi, g.step, g.width, [&](const IndexVec& iv) {
      extent_t off = 0;
      for (std::size_t d = 0; d < iv.size(); ++d) off += iv[d] * strides[d];
      visit(off, iv);
    });
  }
}

// Decide whether this generator runs multithreaded under the current config.
inline bool run_parallel(const ResolvedGen& g) {
  const SacConfig& cfg = active_config();
  if (!cfg.mt_enabled) return false;
  if (g.count < cfg.mt_threshold) return false;
  if (g.lower.empty()) return false;  // rank-0
  return g.upper[0] - g.lower[0] >= 2;
}

// Assign body values into `out` over the generator set.  This is the heart
// of every with-loop variant.  The loops live in execute_assign_loops and
// execute_assign brackets the single call with plain clock reads instead of
// an obs::ScopedSpan: a span object in the loops' frame costs ~5% on the
// dense stencil path even when disabled (its non-trivial destructor pins
// extra live state and exception cleanups around the hot loops), and a
// second call site for the loops stops them inlining into the caller.
template <typename T, typename Body>
void execute_assign_loops(T* out, const Shape& shape, const ResolvedGen& g,
                          const Body& body) {
  const IndexVec strides = shape.strides();
  const std::size_t rank = shape.rank();

  // Rank-3 dense row-fill path: the body produces whole k-rows, reusing
  // per-chunk scratch across rows (kPlanes plane sums).  Checked before the
  // per-point specialisation so fused stencil expressions land here.  The
  // nested span uses plain clock reads for the same reason execute_assign
  // does — a span object in this frame would tax the loops even when off.
  if constexpr (RowFillBody<Body, T>) {
    if (rank == 3 && g.dense && active_config().specialize &&
        body.row_fill_enabled()) {
      const extent_t s0 = strides[0], s1 = strides[1];
      std::int64_t t0 = -1;
      if (obs::enabled()) [[unlikely]] t0 = obs::now_ns();
      auto chunk = [&](extent_t lo0, extent_t hi0, unsigned) {
        auto state = body.make_row_state();
        for (extent_t i = lo0; i < hi0; ++i) {
          for (extent_t j = g.lower[1]; j < g.upper[1]; ++j) {
            body.fill_row(state, i, j, out + i * s0 + j * s1, g.lower[2],
                          g.upper[2]);
          }
        }
      };
      if (run_parallel(g)) {
        stats().parallel_regions += 1;
        runtime().parallel_for(g.lower[0], g.upper[0], 1, chunk);
      } else {
        chunk(g.lower[0], g.upper[0], 0);
      }
      count_backend_rows(g);
      if (t0 >= 0) [[unlikely]] {
        obs::record_span(obs::SpanKind::kWithLoop, "with_loop_rows", t0,
                         obs::now_ns() - t0, g.count);
      }
      return;
    }
  }

  // Rank-3 dense specialised path (with-loop scalarisation + IVE).
  if constexpr (TripleIndexBody<Body>) {
    if (rank == 3 && g.dense && active_config().specialize) {
      const extent_t s0 = strides[0], s1 = strides[1];
      auto chunk = [&](extent_t lo0, extent_t hi0, unsigned) {
        for (extent_t i = lo0; i < hi0; ++i) {
          for (extent_t j = g.lower[1]; j < g.upper[1]; ++j) {
            T* row = out + i * s0 + j * s1;
            for (extent_t k = g.lower[2]; k < g.upper[2]; ++k) {
              row[k] = body(i, j, k);
            }
          }
        }
      };
      if (run_parallel(g)) {
        stats().parallel_regions += 1;
        runtime().parallel_for(g.lower[0], g.upper[0], 1, chunk);
      } else {
        chunk(g.lower[0], g.upper[0], 0);
      }
      return;
    }
  }

  // Generic path.
  auto chunk = [&](extent_t lo0, extent_t hi0, unsigned) {
    walk_range(g, strides, lo0, hi0,
               [&](extent_t off, const IndexVec& iv) { out[off] = body(iv); });
  };
  if (rank > 0 && run_parallel(g)) {
    stats().parallel_regions += 1;
    runtime().parallel_for(g.lower[0], g.upper[0], g.step[0], chunk);
  } else if (rank == 0) {
    out[0] = body(IndexVec{});
  } else {
    chunk(g.lower[0], g.upper[0], 0);
  }
}

template <typename T, typename Body>
void execute_assign(T* out, const Shape& shape, const ResolvedGen& g,
                    const Body& body) {
  stats().with_loops += 1;
  stats().elements += static_cast<std::uint64_t>(g.count);
  std::int64_t t0 = -1;
  if (obs::enabled()) [[unlikely]] t0 = obs::now_ns();
  execute_assign_loops(out, shape, g, body);
  if (t0 >= 0) [[unlikely]] {
    obs::record_span(obs::SpanKind::kWithLoop, "with_loop", t0,
                     obs::now_ns() - t0, g.count);
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// genarray / modarray / fold
// ---------------------------------------------------------------------------

namespace detail {

// Write `dflt` at every element outside a non-empty dense box: the whole
// planes before and after it along axis 0, then in each plane it crosses
// the same one axis down, ending with the two ends of each innermost row.
template <typename T>
void fill_outside_box(T* data, const Shape& shp, const ResolvedGen& g,
                      T dflt) {
  const std::size_t last = shp.rank() - 1;
  const IndexVec strides = shp.strides();
  auto ends = [&](T* row) {
    std::fill(row, row + g.lower[last], dflt);
    std::fill(row + g.upper[last], row + shp.extent(last), dflt);
  };
  auto fill = [&](auto& self, std::size_t d, T* base) -> void {
    const extent_t s = strides[d];
    std::fill(base, base + g.lower[d] * s, dflt);
    std::fill(base + g.upper[d] * s, base + shp.extent(d) * s, dflt);
    for (extent_t x = g.lower[d]; x < g.upper[d]; ++x) {
      if (d + 1 == last) {
        ends(base + x * s);
      } else {
        self(self, d + 1, base + x * s);
      }
    }
  };
  if (last == 0) {
    ends(data);
  } else {
    fill(fill, 0, data);
  }
}

}  // namespace detail

// with (gen) genarray(shp, body(iv)); elements outside the generator are
// `dflt` (SAC default: 0).  A dense generator's box is left to the body, so
// each element is written once; a strided one is filled whole first.
template <typename T, typename Body>
Array<T> with_genarray(const Shape& shp, const Gen& gen, const Body& body,
                       T dflt = T{}) {
  const auto g = detail::resolve(gen, shp);
  Array<T> out = Array<T>::uninitialized(shp);
  T* data = out.raw_data_unchecked();
  if (!g.full) {
    if (g.dense && g.count > 0) {
      detail::fill_outside_box(data, shp, g, dflt);
    } else {
      std::fill_n(data, static_cast<std::size_t>(shp.elem_count()), dflt);
    }
  }
  detail::execute_assign(data, shp, g, body);
  return out;
}

// Dense full-shape genarray: with (. <= iv <= .) genarray(shp, body).
template <typename T, typename Body>
Array<T> with_genarray(const Shape& shp, const Body& body) {
  return with_genarray<T>(shp, gen_all(), body);
}

// with (gen) modarray(base, body(iv)); elements outside the generator keep
// their value from `base`.  Takes `base` by value: when the caller's value
// was the last reference, the buffer is reused in place (SAC's
// reference-counting reuse); otherwise copy-on-write makes a private copy.
template <typename T, typename Body>
Array<T> with_modarray(Array<T> base, const Gen& gen, const Body& body) {
  const auto g = detail::resolve(gen, base.shape());
  T* data = base.mutable_data();
  detail::execute_assign(data, base.shape(), g, body);
  return base;
}

namespace detail {

// Loop bodies of with_fold; see execute_assign_loops for why the telemetry
// span must not share a frame with these loops.
template <typename T, typename FoldOp, typename Body>
T with_fold_loops(const FoldOp& op, T neutral, const Shape& space,
                  const ResolvedGen& g, const Body& body) {
  const IndexVec strides = space.strides();

  if (space.rank() == 0) {
    return op(neutral, body(IndexVec{}));
  }

  // Rank-3 dense row-fold path (RowFoldBody): the body folds whole k-rows
  // through the active backend's row primitives.  Chunk partials are
  // combined with op exactly like the generic MT path, so the scalar
  // backend stays bit-identical to the walker below at any thread count.
  if constexpr (RowFoldBody<Body, T>) {
    if (space.rank() == 3 && g.dense && active_config().specialize &&
        body.row_fold_enabled()) {
      auto fold_rows = [&](extent_t lo0, extent_t hi0) {
        T acc = neutral;
        for (extent_t i = lo0; i < hi0; ++i) {
          for (extent_t j = g.lower[1]; j < g.upper[1]; ++j) {
            acc = body.fold_row(acc, i, j, g.lower[2], g.upper[2]);
          }
        }
        return acc;
      };
      T acc = neutral;
      if (detail::run_parallel(g)) {
        stats().parallel_regions += 1;
        const unsigned participants = runtime().thread_count();
        std::vector<T> partial(participants, neutral);
        runtime().parallel_for(g.lower[0], g.upper[0], 1,
                               [&](extent_t lo0, extent_t hi0, unsigned who) {
                                 partial[who] = fold_rows(lo0, hi0);
                               });
        for (const T& p : partial) acc = op(acc, p);
      } else {
        acc = fold_rows(g.lower[0], g.upper[0]);
      }
      detail::count_backend_rows(g);
      return acc;
    }
  }

  if (detail::run_parallel(g)) {
    stats().parallel_regions += 1;
    const unsigned participants = runtime().thread_count();
    std::vector<T> partial(participants, neutral);
    runtime().parallel_for(
        g.lower[0], g.upper[0], g.step[0],
        [&](extent_t lo0, extent_t hi0, unsigned who) {
          T acc = neutral;
          detail::walk_range(g, strides, lo0, hi0,
                             [&](extent_t, const IndexVec& iv) {
                               acc = op(acc, body(iv));
                             });
          partial[who] = acc;
        });
    T acc = neutral;
    for (const T& p : partial) acc = op(acc, p);
    return acc;
  }

  T acc = neutral;
  detail::walk_range(g, strides, g.lower[0], g.upper[0],
                     [&](extent_t, const IndexVec& iv) {
                       acc = op(acc, body(iv));
                     });
  return acc;
}

}  // namespace detail

// with (gen) fold(op, neutral, body(iv)).  `op` must be associative and
// commutative (SAC's fold requirement); partial results of parallel chunks
// are combined with the same op.
template <typename T, typename FoldOp, typename Body>
T with_fold(const FoldOp& op, T neutral, const Shape& space, const Gen& gen,
            const Body& body) {
  const auto g = detail::resolve(gen, space);
  stats().with_loops += 1;
  stats().elements += static_cast<std::uint64_t>(g.count);
  std::int64_t t0 = -1;
  if (obs::enabled()) [[unlikely]] t0 = obs::now_ns();
  T result = detail::with_fold_loops(op, neutral, space, g, body);
  if (t0 >= 0) [[unlikely]] {
    obs::record_span(obs::SpanKind::kFold, "fold", t0, obs::now_ns() - t0,
                     g.count);
  }
  return result;
}

// Wrap a rank-3 element function f(i, j, k) into a body usable on both the
// specialised and the generic execution path (the generic path unpacks the
// index vector).
template <typename F>
struct Rank3Body {
  F f;
  auto operator()(extent_t i, extent_t j, extent_t k) const {
    return f(i, j, k);
  }
  auto operator()(const IndexVec& iv) const {
    SACPP_ASSERT(iv.size() == 3, "rank-3 body applied to non-rank-3 index");
    return f(iv[0], iv[1], iv[2]);
  }
};

template <typename F>
Rank3Body<F> rank3_body(F f) {
  return Rank3Body<F>{std::move(f)};
}

// ---------------------------------------------------------------------------
// Multi-partition with-loops
// ---------------------------------------------------------------------------
//
// SAC with-loops may carry several (generator, expression) partitions; the
// border-setup code uses one partition per grid face.  Partitions must be
// disjoint (unchecked, like SAC).

template <typename T>
struct Partition {
  Gen gen;
  std::function<T(const IndexVec&)> body;
};

template <typename T>
Array<T> with_modarray_parts(Array<T> base,
                             const std::vector<Partition<T>>& parts) {
  const Shape shp = base.shape();
  T* data = base.mutable_data();
  for (const auto& p : parts) {
    const auto g = detail::resolve(p.gen, shp);
    detail::execute_assign(data, shp, g, p.body);
  }
  return base;
}

template <typename T>
Array<T> with_genarray_parts(const Shape& shp,
                             const std::vector<Partition<T>>& parts,
                             T dflt = T{}) {
  Array<T> out(shp, dflt);
  return with_modarray_parts(std::move(out), parts);
}

// Multi-partition modarray whose partitions read the array being modified.
// Partitions execute in order, each seeing the writes of the previous ones.
// A partition comes in one of two kinds:
//  * opaque — `body(iv, data)` reads through the data pointer.  The caller
//    must guarantee that, within one partition, no generator element reads
//    a position written by another element of the same partition (the
//    property sac2c's reuse analysis proves for border exchange);
//  * shift — `body` empty: the element at iv becomes the array's own
//    element at iv + shift (shift_partition below).  The runtime checks the
//    hazard itself: the source box, the generator's bounding box moved by
//    `shift`, must lie inside the array and must not overlap the generator's
//    box.  A dense rank-3 shift partition runs on the specialised loop nest
//    with an unpacked (i, j, k) body; other ranks and strided generators
//    take the index-vector form, which gives the same values.
//
// With folding on (D1), a shared base whose partitions are all face-slab
// shift partitions yields a copy-free view instead (ShiftView below): no
// copy, no with-loop, until a raw-pointer access forces it.
template <typename T>
struct ReadingPartition {
  Gen gen;
  std::function<T(const IndexVec&, const T*)> body;
  IndexVec shift{};  // the shift kind's offset; used only when body is empty
};

// "with (gen) modarray(a, a[iv + shift])" as a reading partition.
template <typename T>
ReadingPartition<T> shift_partition(Gen gen, IndexVec shift) {
  return ReadingPartition<T>{std::move(gen), {}, std::move(shift)};
}

namespace detail {

// Body of a shift partition: the element `off` positions (the linearised
// shift) past the one being written.
template <typename T>
struct ShiftRead {
  const T* data;
  const Shape* shape;
  extent_t off;
  extent_t s0, s1;  // rank-3 strides of the specialised form

  T operator()(extent_t i, extent_t j, extent_t k) const {
    return data[i * s0 + j * s1 + k + off];
  }
  T operator()(const IndexVec& iv) const {
    return data[shape->linearize(iv) + off];
  }
};

// Check a shift partition against the hazard rule above and build its body.
// A strided generator's box ends at its last member, not at `upper`.
template <typename T>
ShiftRead<T> shift_read(const T* data, const Shape& shp, const ResolvedGen& g,
                        const IndexVec& shift) {
  const std::size_t rank = shp.rank();
  SACPP_REQUIRE(shift.size() == rank,
                "shift partition rank does not match the array");
  const IndexVec strides = shp.strides();
  extent_t off = 0;
  bool overlap = g.count > 0;
  for (std::size_t d = 0; d < rank; ++d) {
    off += shift[d] * strides[d];
    if (g.count == 0) continue;
    const extent_t span = g.upper[d] - 1 - g.lower[d];
    const extent_t last = g.lower[d] + span / g.step[d] * g.step[d] +
                          std::min(span % g.step[d], g.width[d] - 1);
    SACPP_REQUIRE(g.lower[d] + shift[d] >= 0 &&
                      last + shift[d] < shp.extent(d),
                  "shift partition reads outside the array");
    overlap = overlap && std::abs(shift[d]) <= last - g.lower[d];
  }
  SACPP_REQUIRE(!overlap, "shift partition source box overlaps its generator");
  return ShiftRead<T>{data, &shp, off, rank == 3 ? strides[0] : 0,
                      rank == 3 ? strides[1] : 0};
}

// The eager form: the partitions run in order on base's buffer, in place
// when it is uniquely owned, else on a copy-on-write copy.
template <typename T>
Array<T> modarray_reading(Array<T> base,
                          const std::vector<ReadingPartition<T>>& parts) {
  const Shape shp = base.shape();
  T* data = base.mutable_data();
  for (const auto& p : parts) {
    const auto g = resolve(p.gen, shp);
    if (p.body) {
      execute_assign(data, shp, g,
                     [&](const IndexVec& iv) { return p.body(iv, data); });
    } else {
      execute_assign(data, shp, g, shift_read<T>(data, shp, g, p.shift));
    }
  }
  return base;
}

// The view of face-slab shift partitions.  A face slab covers the whole
// array except along one axis d, where it writes a dense range from the
// range `shift` away (the shift is zero on every other axis), so it only
// rewrites axis d's index map: map_d[x] = map_d[x + shift] on the range.
// The partitions in order thus reduce to one map per axis, the identity
// except on the ghost layers for a periodic border.  Forcing replays them
// with the eager form, so a forced view holds exactly today's values.
template <typename T>
class ShiftView final : public ViewMap<T> {
 public:
  ShiftView(const Shape& shp, std::vector<std::vector<extent_t>> maps,
            std::vector<ReadingPartition<T>> parts)
      : ViewMap<T>(shp, std::move(maps)), parts_(std::move(parts)) {}

  Array<T> materialise(Array<T> base) const override {
    return modarray_reading(std::move(base), parts_);
  }

 private:
  std::vector<ReadingPartition<T>> parts_;
};

// The view of `parts` over shape `shp`, or nullptr when a partition is not
// a face-slab shift partition.  Every partition passes the eager form's
// hazard check first, so a bad partition fails the same way either way.
template <typename T>
std::shared_ptr<const ViewMap<T>> shift_view(
    const Shape& shp, const std::vector<ReadingPartition<T>>& parts) {
  const std::size_t rank = shp.rank();
  if (rank == 0) return nullptr;
  std::vector<std::vector<extent_t>> maps(rank);
  for (std::size_t d = 0; d < rank; ++d) {
    maps[d].resize(static_cast<std::size_t>(shp.extent(d)));
    std::iota(maps[d].begin(), maps[d].end(), extent_t{0});
  }
  for (const auto& p : parts) {
    if (p.body) return nullptr;
    const auto g = resolve(p.gen, shp);
    (void)shift_read<T>(nullptr, shp, g, p.shift);
    if (g.count == 0) continue;
    if (!g.dense) return nullptr;
    // The slab's axis: the one axis not covered whole and unshifted.  The
    // hazard check rules out a non-empty partition with none, and keeps the
    // source range off [lower, upper), so the map is rewritten in place.
    std::size_t axis = rank;
    for (std::size_t d = 0; d < rank; ++d) {
      if (p.shift[d] == 0 && g.lower[d] == 0 && g.upper[d] == shp.extent(d)) {
        continue;
      }
      if (axis != rank) return nullptr;
      axis = d;
    }
    std::vector<extent_t>& m = maps[axis];
    for (extent_t x = g.lower[axis]; x < g.upper[axis]; ++x) {
      m[static_cast<std::size_t>(x)] =
          m[static_cast<std::size_t>(x + p.shift[axis])];
    }
  }
  return std::make_shared<const ShiftView<T>>(shp, std::move(maps), parts);
}

}  // namespace detail

template <typename T>
Array<T> with_modarray_reading(Array<T> base,
                               const std::vector<ReadingPartition<T>>& parts) {
  if (active_config().folding && !base.is_view() && !base.unique()) {
    if (auto map = detail::shift_view(base.shape(), parts)) {
      return Array<T>::view(base, std::move(map));
    }
  }
  return detail::modarray_reading(std::move(base), parts);
}

}  // namespace sacpp::sac
