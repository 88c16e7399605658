// WITH-loop semantics: genarray / modarray / fold, generator resolution
// (dots, scalar replication, step/width), multi-partition loops (opaque and
// shift reading partitions), and the specialised rank-3 path's
// value-equivalence with the generic walker.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <random>

#include "sacpp/sac/array.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/sac/runtime.hpp"
#include "sacpp/sac/stats.hpp"
#include "sacpp/sac/with_loop.hpp"

namespace sacpp::sac {
namespace {

TEST(Genarray, FullShapeBodyOfIndexSum) {
  auto a = with_genarray<double>(Shape{2, 3}, [](const IndexVec& iv) {
    return static_cast<double>(iv[0] * 10 + iv[1]);
  });
  EXPECT_DOUBLE_EQ((a[IndexVec{0, 0}]), 0.0);
  EXPECT_DOUBLE_EQ((a[IndexVec{1, 2}]), 12.0);
}

TEST(Genarray, OutsideGeneratorGetsDefault) {
  auto a = with_genarray<double>(
      Shape{4}, gen_range({1}, {3}), [](const IndexVec&) { return 5.0; },
      -1.0);
  EXPECT_DOUBLE_EQ((a[IndexVec{0}]), -1.0);
  EXPECT_DOUBLE_EQ((a[IndexVec{1}]), 5.0);
  EXPECT_DOUBLE_EQ((a[IndexVec{2}]), 5.0);
  EXPECT_DOUBLE_EQ((a[IndexVec{3}]), -1.0);
}

TEST(Genarray, StepWidthGrid) {
  auto a = with_genarray<int>(
      Shape{10}, gen_range({0}, {10}).with_step(4).with_width(2),
      [](const IndexVec&) { return 1; }, 0);
  const int expect[10] = {1, 1, 0, 0, 1, 1, 0, 0, 1, 1};
  for (extent_t i = 0; i < 10; ++i) {
    EXPECT_EQ((a[IndexVec{i}]), expect[i]) << i;
  }
}

TEST(Genarray, ScalarReplicationOfBounds) {
  // A length-1 lower/upper bound replicates to the result rank (the paper's
  // scalar shorthand in generators).
  auto a = with_genarray<int>(
      Shape{4, 4}, gen_range({1}, {3}), [](const IndexVec&) { return 7; }, 0);
  int ones = 0;
  for (extent_t i = 0; i < a.elem_count(); ++i) ones += a.at_linear(i) == 7;
  EXPECT_EQ(ones, 4);  // the 2x2 interior box
}

TEST(Genarray, GenInteriorMargin) {
  auto a = with_genarray<int>(
      Shape{5, 5}, gen_interior(Shape{5, 5}, 2),
      [](const IndexVec&) { return 1; }, 0);
  int count = 0;
  for (extent_t i = 0; i < a.elem_count(); ++i) count += a.at_linear(i);
  EXPECT_EQ(count, 1);  // only the centre element
}

TEST(Genarray, GenInteriorDegenerateExtentThrows) {
  // An extent smaller than twice the margin would give upper < lower and a
  // negative-length axis; the generator must reject it, not wrap around.
  EXPECT_THROW(gen_interior(Shape{1, 5, 5}), ContractError);
  EXPECT_THROW(gen_interior(Shape{5, 5}, 3), ContractError);
  EXPECT_THROW(gen_interior(Shape{5, 5}, -1), ContractError);
  // Exactly 2 * margin is a legal empty interior: no elements, no throw.
  auto a = with_genarray<int>(Shape{4, 4}, gen_interior(Shape{4, 4}, 2),
                              [](const IndexVec&) { return 1; }, 0);
  for (extent_t i = 0; i < a.elem_count(); ++i) EXPECT_EQ(a.at_linear(i), 0);
}

TEST(Genarray, BoundsOutsideShapeThrow) {
  EXPECT_THROW(with_genarray<int>(Shape{3}, gen_range({0}, {4}),
                                  [](const IndexVec&) { return 0; }, 0),
               ContractError);
  EXPECT_THROW(with_genarray<int>(Shape{3}, gen_range({-1}, {2}),
                                  [](const IndexVec&) { return 0; }, 0),
               ContractError);
}

TEST(Genarray, WidthWithoutStepThrows) {
  Gen g = gen_range({0}, {3});
  g.width = IndexVec{1};
  EXPECT_THROW(with_genarray<int>(Shape{3}, g,
                                  [](const IndexVec&) { return 0; }, 0),
               ContractError);
}

TEST(Genarray, EmptyGeneratorYieldsAllDefault) {
  auto a = with_genarray<int>(
      Shape{3}, gen_range({2}, {2}), [](const IndexVec&) { return 1; }, 9);
  for (extent_t i = 0; i < 3; ++i) EXPECT_EQ((a[IndexVec{i}]), 9);
}

// A dense box writes the default only to its complement (planes, rows, row
// ends) and leaves the box to the body: on ranks 1-4 over random boxes,
// empty ones included, each element holds exactly one of the two.
TEST(Genarray, DenseBoxComplementGetsDefaultAndBoxGetsBody) {
  std::mt19937 rng(19);
  for (std::size_t rank = 1; rank <= 4; ++rank) {
    for (int round = 0; round < 50; ++round) {
      IndexVec ext(rank), lo(rank), hi(rank);
      for (std::size_t d = 0; d < rank; ++d) {
        ext[d] = 1 + static_cast<extent_t>(rng() % 7);
        lo[d] = static_cast<extent_t>(rng() % static_cast<unsigned>(ext[d] + 1));
        hi[d] = lo[d] + static_cast<extent_t>(
                            rng() % static_cast<unsigned>(ext[d] - lo[d] + 1));
      }
      const Shape shp(ext);
      auto body = [&](const IndexVec& iv) {
        return 1.0 + static_cast<double>(shp.linearize(iv));
      };
      const auto a = with_genarray<double>(shp, gen_range(lo, hi), body, -2.5);
      for_each_index(shp, [&](const IndexVec& iv) {
        bool inside = true;
        for (std::size_t d = 0; d < rank; ++d) {
          inside = inside && lo[d] <= iv[d] && iv[d] < hi[d];
        }
        ASSERT_EQ(a[iv], inside ? body(iv) : -2.5)
            << "rank " << rank << " round " << round;
      });
    }
  }
}

TEST(Genarray, Rank0ProducesScalar) {
  auto a = with_genarray<double>(Shape{}, [](const IndexVec& iv) {
    EXPECT_TRUE(iv.empty());
    return 3.0;
  });
  EXPECT_DOUBLE_EQ(a.scalar(), 3.0);
}

TEST(Modarray, OnlyGeneratorElementsChange) {
  Array<double> base(Shape{4}, 1.0);
  auto out = with_modarray(base, gen_range({1}, {3}),
                           [](const IndexVec&) { return 2.0; });
  EXPECT_DOUBLE_EQ((out[IndexVec{0}]), 1.0);
  EXPECT_DOUBLE_EQ((out[IndexVec{1}]), 2.0);
  EXPECT_DOUBLE_EQ((out[IndexVec{2}]), 2.0);
  EXPECT_DOUBLE_EQ((out[IndexVec{3}]), 1.0);
  // base was shared, so it must be unchanged
  EXPECT_DOUBLE_EQ((base[IndexVec{1}]), 1.0);
}

TEST(Modarray, LastUseReusesBufferInPlace) {
  Array<double> base(Shape{4}, 1.0);
  const double* p = base.data();
  auto out = with_modarray(std::move(base), gen_range({0}, {4}),
                           [](const IndexVec&) { return 2.0; });
  EXPECT_EQ(out.data(), p);  // SAC reference-counting reuse
}

TEST(Modarray, SharedBaseCopiesOnWrite) {
  Array<double> base(Shape{4}, 1.0);
  const double* p = base.data();
  auto out = with_modarray(base, gen_range({0}, {4}),
                           [](const IndexVec&) { return 2.0; });
  EXPECT_NE(out.data(), p);
  EXPECT_DOUBLE_EQ((base[IndexVec{0}]), 1.0);
}

TEST(Fold, SumOverFullSpace) {
  const Shape shp{4, 5};
  const double total = with_fold(
      std::plus<>{}, 0.0, shp, gen_all(),
      [&shp](const IndexVec& iv) {
        return static_cast<double>(shp.linearize(iv));
      });
  EXPECT_DOUBLE_EQ(total, 19.0 * 20.0 / 2.0);
}

TEST(Fold, MaxOverStridedGenerator) {
  const Shape shp{10};
  const double m = with_fold(
      [](double a, double b) { return a > b ? a : b; }, -1.0, shp,
      gen_range({0}, {10}).with_step(3),
      [](const IndexVec& iv) { return static_cast<double>(iv[0]); });
  EXPECT_DOUBLE_EQ(m, 9.0);
}

TEST(Fold, NeutralReturnedForEmptyGenerator) {
  const double r = with_fold(
      std::plus<>{}, 42.0, Shape{5}, gen_range({3}, {3}),
      [](const IndexVec&) { return 1.0; });
  EXPECT_DOUBLE_EQ(r, 42.0);
}

TEST(MultiPartition, DisjointPartitionsCompose) {
  std::vector<Partition<int>> parts;
  parts.push_back({gen_range({0}, {2}), [](const IndexVec&) { return 1; }});
  parts.push_back({gen_range({3}, {5}), [](const IndexVec&) { return 2; }});
  auto a = with_genarray_parts<int>(Shape{6}, parts, 0);
  const int expect[6] = {1, 1, 0, 2, 2, 0};
  for (extent_t i = 0; i < 6; ++i) EXPECT_EQ((a[IndexVec{i}]), expect[i]);
}

TEST(MultiPartition, LaterPartitionsSeeEarlierWrites) {
  // with_modarray_reading: second partition reads what the first wrote.
  Array<int> base(Shape{4}, 0);
  std::vector<ReadingPartition<int>> parts;
  parts.push_back(
      {gen_range({0}, {1}), [](const IndexVec&, const int*) { return 5; }});
  parts.push_back({gen_range({3}, {4}),
                   [](const IndexVec&, const int* p) { return p[0] + 1; }});
  auto out = with_modarray_reading(std::move(base), parts);
  EXPECT_EQ((out[IndexVec{0}]), 5);
  EXPECT_EQ((out[IndexVec{3}]), 6);
}

// -- shift partitions ---------------------------------------------------------

Array<double> random_array(const Shape& shp, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  return with_genarray<double>(shp, [&](const IndexVec&) { return dist(rng); });
}

bool bitwise_equal(const Array<double>& a, const Array<double>& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.elem_count()) *
                         sizeof(double)) == 0;
}

// A periodic border as reading partitions: per axis d, the iv[d] == 0 face
// reads iv + (n-2)·e_d and the iv[d] == n-1 face iv - (n-2)·e_d.  `opaque`
// writes the same reads as bodies; `strided` puts a step-2 grid (width 1)
// on every face.
std::vector<ReadingPartition<double>> border_parts(const Shape& shp,
                                                   bool opaque,
                                                   bool strided) {
  const std::size_t rank = shp.rank();
  std::vector<ReadingPartition<double>> parts;
  for (std::size_t d = 0; d < rank; ++d) {
    const extent_t n = shp.extent(d);
    for (const bool low : {true, false}) {
      IndexVec lower = uniform_vec(rank, 0);
      IndexVec upper(shp.extents().begin(), shp.extents().end());
      IndexVec shift = uniform_vec(rank, 0);
      if (low) {
        upper[d] = 1;
        shift[d] = n - 2;
      } else {
        lower[d] = n - 1;
        shift[d] = -(n - 2);
      }
      Gen g = gen_range(std::move(lower), std::move(upper));
      if (strided) g = std::move(g).with_step(2);
      if (opaque) {
        parts.push_back({std::move(g),
                         [shp, shift](const IndexVec& iv, const double* p) {
                           return p[shp.linearize(iv + shift)];
                         }});
      } else {
        parts.push_back(shift_partition<double>(std::move(g), shift));
      }
    }
  }
  return parts;
}

TEST(ShiftPartition, EqualsOpaqueBodiesOnRanksOneToFour) {
  for (std::size_t rank = 1; rank <= 4; ++rank) {
    const Shape shp = cube_shape(rank, 7);
    for (const bool strided : {false, true}) {
      for (const bool specialize : {true, false}) {
        SacConfig cfg = config();
        cfg.specialize = specialize;
        ScopedConfig guard(cfg);
        const Array<double> base = random_array(shp, 40 + rank);
        const auto shift = with_modarray_reading(
            base, border_parts(shp, /*opaque=*/false, strided));
        const auto opaque = with_modarray_reading(
            base, border_parts(shp, /*opaque=*/true, strided));
        EXPECT_TRUE(bitwise_equal(shift, opaque))
            << "rank " << rank << " strided " << strided << " specialize "
            << specialize;
        EXPECT_FALSE(bitwise_equal(shift, base)) << "the border was written";
      }
    }
  }
}

TEST(ShiftPartition, LaterPartitionsReadEarlierWrites) {
  // Each axis's faces read ghosts the earlier axes wrote, so every edge and
  // corner ends up holding the interior point it maps to periodically.
  const extent_t n = 6;
  const Shape shp = cube_shape(3, n);
  const Array<double> base = random_array(shp, 7);
  const auto out = with_modarray_reading(base, border_parts(shp, false, false));
  auto source = [n](extent_t x) {
    return x == 0 ? n - 2 : x == n - 1 ? extent_t{1} : x;
  };
  for_each_index(shp, [&](const IndexVec& iv) {
    const IndexVec src{source(iv[0]), source(iv[1]), source(iv[2])};
    ASSERT_EQ(out[iv], base[src]) << iv[0] << "," << iv[1] << "," << iv[2];
  });
  EXPECT_EQ(out(0, 0, 0), base(n - 2, n - 2, n - 2));  // a corner
  EXPECT_EQ(out(n - 1, 0, 3), base(1, n - 2, 3));      // an edge
}

TEST(ShiftPartition, SharedBaseIsLeftUnchanged) {
  const Array<double> base = random_array(cube_shape(3, 6), 8);
  const std::vector<double> snapshot(base.data(),
                                     base.data() + base.elem_count());
  const double* p = base.data();
  const auto out = with_modarray_reading(base, border_parts(base.shape(),
                                                            false, false));
  EXPECT_NE(out.data(), p);
  EXPECT_EQ(base.data(), p);
  EXPECT_EQ(std::memcmp(base.data(), snapshot.data(),
                        snapshot.size() * sizeof(double)),
            0);
}

TEST(ShiftPartition, EachPartitionCountsOnceWithItsElements) {
  const Shape shp = cube_shape(3, 6);
  Array<double> base = random_array(shp, 9);
  const auto parts = border_parts(shp, false, false);
  reset_stats();
  base = with_modarray_reading(std::move(base), parts);
  EXPECT_EQ(stats().with_loops, 6u);
  EXPECT_EQ(stats().elements, 6u * 36u);
}

TEST(ShiftPartition, MultithreadedFacesMatchSequentialBitwise) {
  const Shape shp = cube_shape(3, 66);  // a 66x66 face exceeds mt_threshold
  const Array<double> base = random_array(shp, 10);
  const auto parts = border_parts(shp, false, false);
  // The base is shared, so each border is a view; forcing it runs the face
  // with-loops under the configuration in force at that point.
  const auto seq = with_modarray_reading(base, parts);
  seq.materialise();
  SacConfig cfg = config();
  cfg.mt_enabled = true;
  cfg.mt_threads = 4;
  ASSERT_GT(66 * 66, cfg.mt_threshold);
  {
    ScopedConfig guard(cfg);
    reset_stats();
    const auto par = with_modarray_reading(base, parts);
    par.materialise();
    EXPECT_GT(stats().parallel_regions, 0u);
    EXPECT_TRUE(bitwise_equal(par, seq));
  }
  shutdown_runtime();
}

// -- copy-free views ----------------------------------------------------------

// The eager border of `base`: the partitions run on a private copy.
Array<double> eager_border(const Array<double>& base) {
  Array<double> own = base;
  own.mutable_data();  // unshare first, so the partitions run in place
  return with_modarray_reading(std::move(own),
                               border_parts(base.shape(), false, false));
}

TEST(ShiftView, SharedBaseGivesAViewThatReadsLikeTheBorder) {
  for (std::size_t rank = 1; rank <= 4; ++rank) {
    const Shape shp = cube_shape(rank, 5);
    const Array<double> base = random_array(shp, 60 + rank);
    const Array<double> want = eager_border(base);
    reset_stats();
    const auto view =
        with_modarray_reading(base, border_parts(shp, false, false));
    ASSERT_TRUE(view.is_view()) << "rank " << rank;
    EXPECT_FALSE(view.unique());
    EXPECT_EQ(view.base_data(), base.base_data());  // shares the buffer
    EXPECT_EQ(stats().with_loops, 0u);
    EXPECT_EQ(stats().allocations, 0u);
    for (extent_t i = 0; i < shp.elem_count(); ++i) {
      ASSERT_EQ(view.at_linear(i), want.at_linear(i)) << "rank " << rank;
    }
    for_each_index(shp, [&](const IndexVec& iv) {
      ASSERT_EQ(view[iv], want[iv]) << "rank " << rank;
      if (rank == 3) {
        ASSERT_EQ(view(iv[0], iv[1], iv[2]), want[iv]);
      }
    });
    EXPECT_TRUE(view.is_view());  // element reads never force
    EXPECT_TRUE(bitwise_equal(view, want));
    EXPECT_FALSE(view.is_view());
  }
}

TEST(ShiftView, OnlySharedFaceSlabsUnderFoldingBecomeViews) {
  const Shape shp = cube_shape(3, 6);
  const Array<double> base = random_array(shp, 61);
  auto parts = [&](bool opaque, bool strided) {
    return border_parts(shp, opaque, strided);
  };
  EXPECT_FALSE(with_modarray_reading(base, parts(true, false)).is_view());
  EXPECT_FALSE(with_modarray_reading(base, parts(false, true)).is_view());
  // A face that covers part of another axis, and a shift along two axes.
  std::vector<ReadingPartition<double>> partial;
  partial.push_back(shift_partition<double>(gen_range({0, 0, 0}, {1, 3, 6}),
                                            {4, 0, 0}));
  EXPECT_FALSE(with_modarray_reading(base, partial).is_view());
  std::vector<ReadingPartition<double>> diagonal;
  diagonal.push_back(shift_partition<double>(gen_range({0, 0, 0}, {1, 6, 5}),
                                             {4, 0, 1}));
  EXPECT_FALSE(with_modarray_reading(base, diagonal).is_view());
  // A unique base is written in place, and D1 off keeps the copy.
  Array<double> own = random_array(shp, 62);
  const double* p = own.data();
  const auto in_place =
      with_modarray_reading(std::move(own), parts(false, false));
  EXPECT_FALSE(in_place.is_view());
  EXPECT_EQ(in_place.data(), p);
  SacConfig cfg = config();
  cfg.folding = false;
  ScopedConfig guard(cfg);
  reset_stats();
  const auto copied = with_modarray_reading(base, parts(false, false));
  EXPECT_FALSE(copied.is_view());
  EXPECT_EQ(stats().copies_on_write, 1u);
  EXPECT_EQ(stats().with_loops, 6u);
}

TEST(ShiftView, ViewPathChecksHazardsLikeTheEagerPath) {
  const Array<double> base(Shape{6}, 1.0);
  auto run = [&](Gen g, IndexVec shift) {
    std::vector<ReadingPartition<double>> parts;
    parts.push_back(shift_partition<double>(std::move(g), std::move(shift)));
    return with_modarray_reading(base, parts);
  };
  EXPECT_THROW(run(gen_range({0}, {3}), {1}), ContractError);
  EXPECT_THROW(run(gen_range({0}, {3}), {4}), ContractError);
  EXPECT_TRUE(run(gen_range({0}, {3}), {3}).is_view());
  EXPECT_TRUE(run(gen_range({2}, {2}), {9}).is_view());  // empty: identity
}

TEST(ShiftView, ForcingCopiesOnlyWhileTheBaseIsHeld) {
  const Shape shp = cube_shape(3, 6);
  Array<double> base = random_array(shp, 63);
  const Array<double> want = eager_border(base);
  auto held = with_modarray_reading(base, border_parts(shp, false, false));
  auto last = with_modarray_reading(base, border_parts(shp, false, false));
  reset_stats();
  held.materialise();  // `base` and `last` still hold the buffer
  EXPECT_EQ(stats().copies_on_write, 1u);
  const double* p = base.data();
  base = Array<double>();
  last.materialise();  // the view is the last holder: in place
  EXPECT_EQ(stats().copies_on_write, 1u);
  EXPECT_EQ(last.data(), p);
  EXPECT_TRUE(bitwise_equal(held, want));
  EXPECT_TRUE(bitwise_equal(last, want));
}

TEST(ShiftPartition, OverlappingOrOutOfBoundsSourceIsRejected) {
  auto run = [](const Shape& shp, Gen g, IndexVec shift) {
    std::vector<ReadingPartition<double>> parts;
    parts.push_back(shift_partition<double>(std::move(g), std::move(shift)));
    return with_modarray_reading(Array<double>(shp, 1.0), parts);
  };
  // Reads [1, 4) while writing [0, 3).
  EXPECT_THROW(run(Shape{6}, gen_range({0}, {3}), {1}), ContractError);
  // Rank 2: the boxes overlap on both axes.
  EXPECT_THROW(run(Shape{6, 6}, gen_range({0, 0}, {3, 3}), {2, 0}),
               ContractError);
  // The members 0, 2, 4 read 1, 3, 5, but the boxes [0, 4] and [1, 5]
  // overlap: the rule is about boxes.
  EXPECT_THROW(run(Shape{6}, gen_range({0}, {6}).with_step(2), {1}),
               ContractError);
  // Reads outside the array, and a shift of the wrong rank.
  EXPECT_THROW(run(Shape{6}, gen_range({0}, {3}), {4}), ContractError);
  EXPECT_THROW(run(Shape{6}, gen_range({3}, {6}), {-4}), ContractError);
  EXPECT_THROW(run(Shape{6, 6}, gen_range({0, 0}, {1, 6}), {4}),
               ContractError);
  // Disjoint boxes are fine.  A strided box ends at its last member (4),
  // not at its upper bound, so reading 5 past it fits a 10-element array;
  // an empty generator reads nothing.
  EXPECT_NO_THROW(run(Shape{6}, gen_range({0}, {3}), {3}));
  EXPECT_NO_THROW(run(Shape{10}, gen_range({0}, {6}).with_step(2), {5}));
  EXPECT_THROW(run(Shape{10}, gen_range({0}, {6}).with_step(2), {4}),
               ContractError);
  EXPECT_NO_THROW(run(Shape{6}, gen_range({2}, {2}), {9}));
}

TEST(Rank3Specialization, MatchesGenericWalker) {
  const Shape shp{5, 6, 7};
  auto body = [](extent_t i, extent_t j, extent_t k) {
    return static_cast<double>(i * 100 + j * 10 + k);
  };
  SacConfig cfg = config();
  cfg.specialize = true;
  Array<double> fast;
  {
    ScopedConfig guard(cfg);
    fast = with_genarray<double>(shp, gen_all(), rank3_body(body));
  }
  cfg.specialize = false;
  Array<double> slow;
  {
    ScopedConfig guard(cfg);
    slow = with_genarray<double>(shp, gen_all(), rank3_body(body));
  }
  for (extent_t i = 0; i < shp.elem_count(); ++i) {
    ASSERT_DOUBLE_EQ(fast.at_linear(i), slow.at_linear(i));
  }
}

TEST(Rank3Specialization, InteriorGeneratorAlsoSpecialises) {
  const Shape shp{4, 4, 4};
  auto a = with_genarray<double>(
      shp, gen_interior(shp),
      rank3_body([](extent_t, extent_t, extent_t) { return 1.0; }), 0.0);
  double total = 0.0;
  for (extent_t i = 0; i < shp.elem_count(); ++i) total += a.at_linear(i);
  EXPECT_DOUBLE_EQ(total, 8.0);  // the 2^3 interior
}

TEST(Stats, WithLoopAndElementCounters) {
  reset_stats();
  (void)with_genarray<int>(Shape{4, 4}, gen_all(),
                           [](const IndexVec&) { return 1; });
  EXPECT_EQ(stats().with_loops, 1u);
  EXPECT_EQ(stats().elements, 16u);
  (void)with_fold(std::plus<>{}, 0, Shape{3}, gen_all(),
                  [](const IndexVec&) { return 1; });
  EXPECT_EQ(stats().with_loops, 2u);
  EXPECT_EQ(stats().elements, 19u);
}

}  // namespace
}  // namespace sacpp::sac
