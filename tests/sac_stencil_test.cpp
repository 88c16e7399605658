// Coefficient-class stencils: grouped, naive and shared-plane-sum (kPlanes)
// evaluation against a brute-force reference, across ranks, plus linearity
// and symmetry properties.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/sac.hpp"

namespace sacpp::sac {
namespace {

Array<double> random_array(const Shape& shp, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  return with_genarray<double>(shp,
                               [&](const IndexVec&) { return dist(rng); });
}

// Brute-force reference: sum over all offsets in {-1,0,1}^rank with the
// class coefficient; zero on the boundary ring.
Array<double> brute_force_relax(const Array<double>& a,
                                const StencilCoeffs& c) {
  const Shape& shp = a.shape();
  return with_genarray<double>(
      shp,
      [&](const IndexVec& iv) -> double {
        for (std::size_t d = 0; d < iv.size(); ++d) {
          if (iv[d] < 1 || iv[d] >= shp.extent(d) - 1) return 0.0;
        }
        double acc = 0.0;
        for (const auto& e : StencilTable::for_rank(shp.rank()).entries()) {
          acc += c[static_cast<std::size_t>(e.cls)] * a[iv + e.offset];
        }
        return acc;
      });
}

constexpr StencilCoeffs kTestCoeffs{{-0.5, 0.125, 0.0625, 0.03125}};

TEST(StencilTable, Rank3Has27EntriesWithCorrectClassCounts) {
  const auto& t = StencilTable::for_rank(3);
  ASSERT_EQ(t.entries().size(), 27u);
  int counts[4] = {0, 0, 0, 0};
  for (const auto& e : t.entries()) ++counts[e.cls];
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 6);
  EXPECT_EQ(counts[2], 12);
  EXPECT_EQ(counts[3], 8);
}

TEST(StencilTable, Rank1And2Sizes) {
  EXPECT_EQ(StencilTable::for_rank(1).entries().size(), 3u);
  EXPECT_EQ(StencilTable::for_rank(2).entries().size(), 9u);
}

class RelaxRank : public ::testing::TestWithParam<int> {};

TEST_P(RelaxRank, GroupedMatchesBruteForce) {
  const int rank = GetParam();
  const Shape shp = cube_shape(static_cast<std::size_t>(rank), 6);
  auto a = random_array(shp, 42);
  auto expect = brute_force_relax(a, kTestCoeffs);
  auto got = relax_kernel(a, kTestCoeffs, StencilMode::kGrouped);
  ASSERT_EQ(got.shape(), expect.shape());
  for (extent_t i = 0; i < got.elem_count(); ++i) {
    ASSERT_NEAR(got.at_linear(i), expect.at_linear(i), 1e-14) << i;
  }
}

TEST_P(RelaxRank, NaiveMatchesGrouped) {
  const int rank = GetParam();
  const Shape shp = cube_shape(static_cast<std::size_t>(rank), 5);
  auto a = random_array(shp, 7);
  auto grouped = relax_kernel(a, kTestCoeffs, StencilMode::kGrouped);
  auto naive = relax_kernel(a, kTestCoeffs, StencilMode::kNaive);
  for (extent_t i = 0; i < grouped.elem_count(); ++i) {
    ASSERT_NEAR(grouped.at_linear(i), naive.at_linear(i), 1e-14) << i;
  }
}

// kPlanes reassociates the class-2/3 sums (docs/stencil.md), so it matches
// kGrouped only up to rounding — hence NEAR at 1e-12, not bitwise equality.
TEST_P(RelaxRank, PlanesMatchesGroupedOnRandomInput) {
  const int rank = GetParam();
  const Shape shp = cube_shape(static_cast<std::size_t>(rank), 8);
  auto a = random_array(shp, 23);
  SacConfig cfg = config();
  cfg.stencil_planes_cutover = 0;  // row path active even on this small grid
  ScopedConfig guard(cfg);
  auto grouped = relax_kernel(a, kTestCoeffs, StencilMode::kGrouped);
  auto planes = relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);
  for (extent_t i = 0; i < grouped.elem_count(); ++i) {
    ASSERT_NEAR(grouped.at_linear(i), planes.at_linear(i), 1e-12) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, RelaxRank, ::testing::Values(1, 2, 3));

TEST(Planes, BelowCutoverFallsBackToGroupedBitwise) {
  // Grids under the cutover evaluate kPlanes per point through the grouped
  // association tree, so the fallback is bit-identical, not just close.
  auto a = random_array(Shape{6, 6, 6}, 29);
  auto grouped = relax_kernel(a, kTestCoeffs, StencilMode::kGrouped);
  auto planes = relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);
  for (extent_t i = 0; i < grouped.elem_count(); ++i) {
    ASSERT_DOUBLE_EQ(grouped.at_linear(i), planes.at_linear(i)) << i;
  }
}

TEST(Planes, RowPathCountsReusedRows) {
  const Shape shp{20, 20, 20};
  auto a = random_array(shp, 31);
  const std::uint64_t before = stats().stencil_rows_reused;
  auto r = relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);  // cutover 18
  (void)r;
  // One row per interior (i, j) pair.
  EXPECT_EQ(stats().stencil_rows_reused - before, 18u * 18u);
}

TEST(Planes, MatchesBruteForceOnRandomInput) {
  const Shape shp{10, 9, 11};  // non-cube: catches stride mix-ups
  auto a = random_array(shp, 37);
  SacConfig cfg = config();
  cfg.stencil_planes_cutover = 0;
  ScopedConfig guard(cfg);
  auto expect = brute_force_relax(a, kTestCoeffs);
  auto got = relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);
  for (extent_t i = 0; i < got.elem_count(); ++i) {
    ASSERT_NEAR(got.at_linear(i), expect.at_linear(i), 1e-12) << i;
  }
}

TEST(Planes, FusedEwiseLandsOnRowPathAndMatchesGrouped) {
  const Shape shp{12, 12, 12};
  auto a = random_array(shp, 41);
  auto v = random_array(shp, 43);
  SacConfig cfg = config();
  cfg.stencil_planes_cutover = 0;
  ScopedConfig guard(cfg);
  auto grouped = force(
      ewise(v, StencilExpr(a, kTestCoeffs, StencilMode::kGrouped),
            std::minus<>{}));
  const std::uint64_t before = stats().stencil_rows_reused;
  auto planes = force(
      ewise(v, StencilExpr(a, kTestCoeffs, StencilMode::kPlanes),
            std::minus<>{}));
  EXPECT_GT(stats().stencil_rows_reused, before);  // took the row path
  for (extent_t i = 0; i < grouped.elem_count(); ++i) {
    ASSERT_NEAR(grouped.at_linear(i), planes.at_linear(i), 1e-12) << i;
  }
}

TEST(Planes, MultithreadedSweepBitIdenticalToSerial) {
  // Rows are computed independently, so the planes sweep must not depend on
  // the chunking: MT and serial results are bitwise equal, for the
  // fixed-boundary and the periodic form.
  const Shape shp{24, 24, 24};
  auto a = random_array(shp, 47);
  for (const bool periodic : {false, true}) {
    auto sweep = [&] {
      return periodic
                 ? relax_kernel_periodic(a, kTestCoeffs, StencilMode::kPlanes)
                 : relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);
    };
    SacConfig cfg = config();
    cfg.stencil_planes_cutover = 0;
    Array<double> serial;
    {
      ScopedConfig guard(cfg);
      serial = sweep();
    }
    cfg.mt_enabled = true;
    cfg.mt_threads = 4;
    cfg.mt_threshold = 1;
    ScopedConfig guard(cfg);
    auto mt = sweep();
    for (extent_t i = 0; i < serial.elem_count(); ++i) {
      ASSERT_DOUBLE_EQ(serial.at_linear(i), mt.at_linear(i))
          << (periodic ? "periodic " : "fixed ") << i;
    }
  }
}

TEST(PlanesPeriodic, MatchesGroupedEverywhereIncludingBoundary) {
  const Shape shp{8, 6, 10};
  auto a = random_array(shp, 53);
  SacConfig cfg = config();
  cfg.stencil_planes_cutover = 0;
  ScopedConfig guard(cfg);
  auto grouped = relax_kernel_periodic(a, kTestCoeffs, StencilMode::kGrouped);
  auto planes = relax_kernel_periodic(a, kTestCoeffs, StencilMode::kPlanes);
  for (extent_t i = 0; i < grouped.elem_count(); ++i) {
    ASSERT_NEAR(grouped.at_linear(i), planes.at_linear(i), 1e-12) << i;
  }
}

TEST(PlanesPeriodic, WrappedRowsMatchGenericReference) {
  // Cross-check the wrapped rows and the special combine at k = 0 and
  // k = n-1 against the per-point periodic evaluator on every point,
  // boundary ring included.
  const Shape shp{6, 7, 9};
  auto a = random_array(shp, 59);
  SacConfig cfg = config();
  cfg.stencil_planes_cutover = 0;
  ScopedConfig guard(cfg);
  const auto ref = StencilExpr::periodic(a, kTestCoeffs, StencilMode::kGrouped);
  auto planes = relax_kernel_periodic(a, kTestCoeffs, StencilMode::kPlanes);
  for_each_index(shp, [&](const IndexVec& iv) {
    ASSERT_NEAR(planes[iv], ref(iv), 1e-12);
  });
}

TEST(Planes, ScratchComesFromThePoolWhenEnabled) {
  const Shape shp{20, 20, 20};
  auto a = random_array(shp, 61);
  SacConfig cfg = config();
  cfg.pool = true;
  ScopedConfig guard(cfg);
  relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);  // warm the size class
  const std::uint64_t hits_before = stats().pool_hits;
  relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);
  // The second run's scratch block recycles the first run's release.
  EXPECT_GT(stats().pool_hits, hits_before);
}

TEST(Relax, BoundaryRingIsZero) {
  auto a = random_array(Shape{5, 5, 5}, 3);
  auto r = relax_kernel(a, kTestCoeffs);
  for_each_index(r.shape(), [&](const IndexVec& iv) {
    bool interior = true;
    for (std::size_t d = 0; d < 3; ++d) {
      if (iv[d] < 1 || iv[d] > 3) interior = false;
    }
    if (!interior) {
      ASSERT_DOUBLE_EQ(r[iv], 0.0);
    }
  });
}

TEST(Relax, LinearInInput) {
  // relax(alpha * a + b) == alpha * relax(a) + relax(b)
  const Shape shp{6, 6, 6};
  auto a = random_array(shp, 1);
  auto b = random_array(shp, 2);
  const double alpha = 2.5;
  auto lhs = relax_kernel(a * alpha + b, kTestCoeffs);
  auto rhs = relax_kernel(a, kTestCoeffs) * alpha + relax_kernel(b, kTestCoeffs);
  for (extent_t i = 0; i < lhs.elem_count(); ++i) {
    ASSERT_NEAR(lhs.at_linear(i), rhs.at_linear(i), 1e-12) << i;
  }
}

TEST(Relax, ConstantFieldScalesBySumOfCoefficients) {
  // On a constant field every interior point sees the same value:
  // (c0 + 6 c1 + 12 c2 + 8 c3) * value for rank 3.
  const Shape shp{5, 5, 5};
  auto a = genarray_const(shp, 2.0);
  auto r = relax_kernel(a, kTestCoeffs);
  const double factor = kTestCoeffs[0] + 6.0 * kTestCoeffs[1] +
                        12.0 * kTestCoeffs[2] + 8.0 * kTestCoeffs[3];
  for_each_index(r.shape(), [&](const IndexVec& iv) {
    bool interior = true;
    for (std::size_t d = 0; d < 3; ++d) {
      if (iv[d] < 1 || iv[d] > 3) interior = false;
    }
    if (interior) {
      ASSERT_NEAR(r[iv], factor * 2.0, 1e-14);
    }
  });
}

TEST(Relax, TranslationEquivariantInInterior) {
  // Shifting the input shifts the output (away from boundaries).
  const Shape shp{8, 8, 8};
  auto a = random_array(shp, 11);
  auto ra = relax_kernel(a, kTestCoeffs);
  auto sa = shift({1, 0, 0}, a);
  auto rsa = relax_kernel(sa, kTestCoeffs);
  // compare rsa(i, j, k) with ra(i-1, j, k) on the deep interior
  for (extent_t i = 2; i < 7; ++i) {
    for (extent_t j = 1; j < 7; ++j) {
      for (extent_t k = 1; k < 7; ++k) {
        ASSERT_NEAR(rsa(i, j, k), ra(i - 1, j, k), 1e-14);
      }
    }
  }
}

TEST(Relax, PointSourceSpreadsByClassCoefficients) {
  const Shape shp{7, 7, 7};
  auto a = with_genarray<double>(shp, [](const IndexVec& iv) {
    return (iv[0] == 3 && iv[1] == 3 && iv[2] == 3) ? 1.0 : 0.0;
  });
  auto r = relax_kernel(a, kTestCoeffs);
  EXPECT_DOUBLE_EQ(r(3, 3, 3), kTestCoeffs[0]);
  EXPECT_DOUBLE_EQ(r(2, 3, 3), kTestCoeffs[1]);
  EXPECT_DOUBLE_EQ(r(3, 4, 3), kTestCoeffs[1]);
  EXPECT_DOUBLE_EQ(r(2, 4, 3), kTestCoeffs[2]);
  EXPECT_DOUBLE_EQ(r(2, 4, 4), kTestCoeffs[3]);
  EXPECT_DOUBLE_EQ(r(5, 3, 3), 0.0);
}

TEST(Relax, SpecializationOnOffAgree) {
  const Shape shp{6, 6, 6};
  auto a = random_array(shp, 5);
  SacConfig cfg = config();
  cfg.specialize = true;
  Array<double> fast;
  {
    ScopedConfig guard(cfg);
    fast = relax_kernel(a, kTestCoeffs);
  }
  cfg.specialize = false;
  Array<double> slow;
  {
    ScopedConfig guard(cfg);
    slow = relax_kernel(a, kTestCoeffs);
  }
  for (extent_t i = 0; i < fast.elem_count(); ++i) {
    ASSERT_DOUBLE_EQ(fast.at_linear(i), slow.at_linear(i)) << i;
  }
}

TEST(Relax, ExtentTooSmallThrows) {
  auto a = genarray_const(Shape{2, 5, 5}, 1.0);
  EXPECT_THROW(relax_kernel(a, kTestCoeffs), ContractError);
}

TEST(StencilExpr, InteriorPredicateAndZeroBoundary) {
  auto a = random_array(Shape{5, 5, 5}, 9);
  StencilExpr st(a, kTestCoeffs);
  EXPECT_TRUE(st.is_interior({1, 1, 1}));
  EXPECT_FALSE(st.is_interior({0, 1, 1}));
  EXPECT_FALSE(st.is_interior({1, 4, 1}));
  EXPECT_DOUBLE_EQ(st(0, 2, 2), 0.0);
  EXPECT_DOUBLE_EQ((st(IndexVec{0, 2, 2})), 0.0);
}

TEST(StencilExpr, IndexVectorAndUnpackedAccessAgree) {
  auto a = random_array(Shape{6, 6, 6}, 13);
  StencilExpr st(a, kTestCoeffs);
  for_each_index(a.shape(), [&](const IndexVec& iv) {
    ASSERT_DOUBLE_EQ(st(iv), st(iv[0], iv[1], iv[2]));
  });
}

// -- the stencil over a stride-2 scatter (scatter_stencil.hpp) ---------------
//
// The differential battery: relax_kernel over take(scatter(2, src)) must
// equal relax_kernel over the materialised take∘scatter, element by element
// under == (dropping the exact-zero taps may flip the sign of an exact
// zero, nothing else), on every engine, stencil mode, thread count and
// source kind.

// The MG prolongation Q, whose power-of-two coefficients multiply exactly,
// and coefficients that round, so that multiplying each tap and
// multiplying their sum give different bits.
constexpr StencilCoeffs kQ{{1.0, 0.5, 0.25, 0.125}};
constexpr StencilCoeffs kRounding{{-8.0 / 3.0, 0.3, 1.0 / 6.0, 1.0 / 12.0}};

// An engine: a kind and, for kSimd, the instance it is pinned to (nullptr:
// this host's own).
struct Engine {
  BackendKind kind;
  const Backend* pin = nullptr;
};

struct Combo {
  StencilMode mode;
  Engine engine;
  unsigned threads;
  std::int64_t cutover;  // SacConfig::stencil_planes_cutover
};

// kSimd runs on this host's instance and on the baseline one; the jit
// engine joins under SACPP_JIT_SYNC=1.
std::vector<Combo> scatter_combos() {
  std::vector<Engine> engines{{BackendKind::kScalar},
                              {BackendKind::kSimd},
                              {BackendKind::kSimd, &detail::portable_backend()}};
  const char* sync = std::getenv("SACPP_JIT_SYNC");
  if (sync != nullptr && std::string(sync) == "1") {
    engines.push_back({BackendKind::kJit});
  }
  std::vector<Combo> v;
  for (const StencilMode mode :
       {StencilMode::kNaive, StencilMode::kGrouped, StencilMode::kPlanes}) {
    for (const Engine& be : engines) {
      for (const unsigned threads : {1u, 4u}) {
        v.push_back(Combo{mode, be, threads, 18});
        if (mode == StencilMode::kPlanes) {
          v.push_back(Combo{mode, be, threads, 0});
        }
      }
    }
  }
  return v;
}

// The MG periodic border of `shp` as face-slab shift partitions: over a
// shared base, a copy-free view.
std::vector<ReadingPartition<double>> border_parts(const Shape& shp) {
  std::vector<ReadingPartition<double>> parts;
  const std::size_t rank = shp.rank();
  for (std::size_t d = 0; d < rank; ++d) {
    const extent_t n = shp.extent(d);
    IndexVec shift = uniform_vec(rank, 0);
    IndexVec low_up(shp.extents().begin(), shp.extents().end());
    low_up[d] = 1;
    shift[d] = n - 2;
    parts.push_back(shift_partition<double>(
        gen_range(uniform_vec(rank, 0), std::move(low_up)), shift));
    IndexVec high_lo = uniform_vec(rank, 0);
    high_lo[d] = n - 1;
    shift[d] = -(n - 2);
    parts.push_back(shift_partition<double>(
        gen_range(std::move(high_lo), shp.extents()), std::move(shift)));
  }
  return parts;
}

// The source of a `fine`-shaped take: fine/2 + 1 per axis (coarse2fine's
// 2n - 2 for even extents), at least 3 so that it can carry a border.
Shape scatter_source_shape(const Shape& fine) {
  IndexVec ext(fine.rank());
  for (std::size_t d = 0; d < fine.rank(); ++d) {
    ext[d] = std::max<extent_t>(3, fine.extent(d) / 2 + 1);
  }
  return Shape(ext);
}

std::string scatter_label(const Shape& fine, const Combo& c, bool view,
                          extent_t phase, const StencilCoeffs& q) {
  std::ostringstream os;
  os << "fine {";
  for (std::size_t d = 0; d < fine.rank(); ++d) {
    os << (d ? "," : "") << fine.extent(d);
  }
  os << "} " << stencil_mode_name(c.mode) << " cutover " << c.cutover << " "
     << backend_name(c.engine.kind);
  if (c.engine.pin != nullptr) os << " [" << c.engine.pin->name() << "]";
  os << " threads " << c.threads << (view ? " view" : " concrete")
     << " phase " << phase << " c0 " << q[0];
  return os.str();
}

// A combination's configuration; every with-loop may go parallel.
SacConfig combo_config(const Combo& c) {
  SacConfig cfg = config();
  cfg.stencil_mode = c.mode;
  cfg.backend = c.engine.kind;
  cfg.mt_enabled = c.threads > 1;
  cfg.mt_threads = c.threads;
  cfg.mt_threshold = 1;
  cfg.stencil_planes_cutover = c.cutover;
  return cfg;
}

void check_scatter_stencil(const Shape& fine, unsigned seed, const Combo& c,
                           bool view, extent_t phase,
                           const StencilCoeffs& q = kQ) {
  // The input first: random_array's generator must run sequentially.
  const Shape coarse = scatter_source_shape(fine);
  const Array<double> base = random_array(coarse, seed);
  const ScopedConfig guard(combo_config(c));
  const detail::ScopedSimdOverride pin(c.engine.pin);
  const std::string where = scatter_label(fine, c, view, phase, q);

  const Array<double> src =
      view ? with_modarray_reading(base, border_parts(coarse)) : base;
  ASSERT_EQ(src.is_view(), view) << where;
  auto gather = [&] {
    return lazy_take(fine.extents(), lazy_scatter(2, src, phase));
  };
  const Array<double> got = relax_kernel(gather(), q);
  const Array<double> want = relax_kernel(force(gather()), q);
  ASSERT_EQ(got.shape(), want.shape()) << where;
  for (extent_t x = 0; x < got.elem_count(); ++x) {
    ASSERT_EQ(got.at_linear(x), want.at_linear(x))
        << "element " << x << ", " << where;
  }
  EXPECT_EQ(src.is_view(), view) << "the source was forced, " << where;
}

// Every combination over small, awkward and non-cubic shapes of ranks 1-3,
// both source kinds and both phases.
TEST(ScatterStencil, EveryEngineModeAndThreadCount) {
  const std::vector<Shape> shapes{
      Shape{3},        Shape{8},          Shape{11},        Shape{4, 4},
      Shape{7, 12},    Shape{3, 3, 3},    Shape{4, 4, 4},   Shape{5, 18, 7},
      Shape{18, 6, 34}, Shape{3, 20, 19}, Shape{19, 20, 21}, cube_shape(3, 34)};
  unsigned seed = 1;
  for (const Combo& c : scatter_combos()) {
    for (const Shape& shp : shapes) {
      for (const bool view : {false, true}) {
        check_scatter_stencil(shp, seed, c, view, seed % 2,
                              seed % 3 == 0 ? kQ : kRounding);
        ++seed;
      }
    }
  }
  shutdown_runtime();
}

// Every cubic extent 3-66 of every rank, rotating through the combinations
// so that each one meets many extents, plus the benchmark's configuration
// (planes on the host's simd instance) at every rank-3 extent.
TEST(ScatterStencil, CubicExtents3To66) {
  const std::vector<Combo> combos = scatter_combos();
  for (extent_t n = 3; n <= 66; ++n) {
    const auto idx = static_cast<std::size_t>(n);
    for (std::size_t rank = 1; rank <= 3; ++rank) {
      const auto seed = static_cast<unsigned>(1000 * rank + idx);
      check_scatter_stencil(cube_shape(rank, n), seed,
                            combos[(idx + rank) % combos.size()], n % 2 == 0,
                            rank == 3 ? 0 : seed % 2, kRounding);
    }
    check_scatter_stencil(cube_shape(3, n), 4000 + static_cast<unsigned>(n),
                          Combo{StencilMode::kPlanes, {BackendKind::kSimd},
                                n % 2 == 0 ? 4u : 1u, 18},
                          true, 0);
  }
  shutdown_runtime();
}

// Every sub-range of every row of `st` writes `want`'s values there and
// nothing outside itself.
void check_row_sub_ranges(const ScatterStencilExpr& st,
                          const Array<double>& want, const std::string& where) {
  ASSERT_TRUE(st.row_fill_enabled()) << where;
  const Shape& fine = st.shape();
  auto state = st.make_row_state();
  const extent_t n2 = fine.extent(2);
  for (extent_t i = 0; i < fine.extent(0); ++i) {
    for (extent_t j = 0; j < fine.extent(1); ++j) {
      for (extent_t lo = 0; lo <= n2; ++lo) {
        for (extent_t hi = lo; hi <= n2; ++hi) {
          std::vector<double> row(static_cast<std::size_t>(n2), -7.0);
          st.fill_row(state, i, j, row.data(), lo, hi);
          for (extent_t k = 0; k < n2; ++k) {
            const double expect =
                k >= lo && k < hi ? want[IndexVec{i, j, k}] : -7.0;
            ASSERT_EQ(row[static_cast<std::size_t>(k)], expect)
                << "row (" << i << ", " << j << ") [" << lo << ", " << hi
                << ") k " << k << ", " << where;
          }
        }
      }
    }
  }
}

// The row protocol on sub-ranges, which a gather over the expression may
// request; the periodic form's include the point that wraps.
TEST(ScatterStencil, RowSubRangesWriteOnlyTheirRange) {
  SacConfig cfg = config();
  cfg.stencil_mode = StencilMode::kPlanes;
  cfg.stencil_planes_cutover = 0;
  cfg.backend = BackendKind::kSimd;
  ScopedConfig guard(cfg);
  for (const extent_t phase : {0, 1}) {
    const std::string where = "phase " + std::to_string(phase);
    for (const Shape& fine : {Shape{6, 7, 12}, Shape{5, 4, 9}}) {
      const Array<double> src = random_array(scatter_source_shape(fine), 3);
      check_row_sub_ranges(
          ScatterStencilExpr(ScatterSource{src, phase, fine}, kQ),
          relax_kernel(
              force(lazy_take(fine.extents(), lazy_scatter(2, src, phase))),
              kQ),
          where);
    }
    for (const Shape& coarse : {Shape{3, 2, 5}, Shape{2, 3, 1}}) {
      const Array<double> src = random_array(coarse, 4);
      const Shape fine(2 * coarse.extents());
      check_row_sub_ranges(
          ScatterStencilExpr::periodic(ScatterSource{src, phase, fine},
                                       kRounding),
          relax_kernel_periodic(force(lazy_scatter(2, src, phase)),
                                kRounding),
          "periodic " + where);
    }
  }
}

// Any other gather is forced and relaxed as an array; a take larger than
// the scatter is one.
TEST(ScatterStencil, OtherGathersAreForcedFirst) {
  const Array<double> src = random_array(Shape{7, 8, 6}, 21);
  const auto cond = lazy_condense(2, src);
  EXPECT_FALSE(detail::scatter_source(cond).has_value());
  const auto wide = lazy_take(IndexVec{15, 16, 13}, lazy_scatter(2, src));
  EXPECT_FALSE(detail::scatter_source(wide).has_value());
  const auto mg = lazy_take(IndexVec{12, 14, 10}, lazy_scatter(2, src));
  EXPECT_TRUE(detail::scatter_source(mg).has_value());
  for (const bool forced : {false, true}) {
    const Array<double> got =
        forced ? relax_kernel(wide, kQ) : relax_kernel(cond, kQ);
    const Array<double> want =
        forced ? relax_kernel(force(wide), kQ) : relax_kernel(force(cond), kQ);
    for (extent_t x = 0; x < got.elem_count(); ++x) {
      ASSERT_EQ(got.at_linear(x), want.at_linear(x)) << x;
    }
  }
}

// -- the periodic form (ScatterStencilExpr::periodic) ------------------------
//
// relax_kernel_periodic over scatter(2, src, phase) must equal the periodic
// stencil over the forced scatter under ==, like the battery above, with
// coefficients that round so that each mode's association order shows.

void check_periodic_scatter_stencil(const Shape& coarse, unsigned seed,
                                    const Combo& c, bool view,
                                    extent_t phase) {
  // The input first: random_array's generator must run sequentially.
  const Array<double> base = random_array(coarse, seed);
  const ScopedConfig guard(combo_config(c));
  const detail::ScopedSimdOverride pin(c.engine.pin);
  const std::string where =
      "periodic " +
      scatter_label(Shape(2 * coarse.extents()), c, view, phase, kRounding);

  const Array<double> src =
      view ? with_modarray_reading(base, border_parts(coarse)) : base;
  ASSERT_EQ(src.is_view(), view) << where;
  const Array<double> got =
      relax_kernel_periodic(lazy_scatter(2, src, phase), kRounding);
  const Array<double> want =
      relax_kernel_periodic(force(lazy_scatter(2, src, phase)), kRounding);
  ASSERT_EQ(got.shape(), want.shape()) << where;
  for (extent_t x = 0; x < got.elem_count(); ++x) {
    ASSERT_EQ(got.at_linear(x), want.at_linear(x))
        << "element " << x << ", " << where;
  }
  EXPECT_EQ(src.is_view(), view) << "the source was forced, " << where;
}

// Coarse extents 2 (where the wrap entries land on the two elements: -1 on
// 1, 2 on 0), 3, 8 and 17 on every rank, mixed shapes whose short axis
// sits on each axis in turn, and one whose rows run the planes path at the
// default cutover; both phases, and a view source wherever a border fits
// (extent >= 3).
TEST(PeriodicScatterStencil, EveryEngineModeAndThreadCount) {
  std::vector<Shape> shapes;
  for (std::size_t rank = 1; rank <= 3; ++rank) {
    for (const extent_t m : {2, 3, 8, 17}) {
      shapes.push_back(cube_shape(rank, m));
    }
  }
  for (const Shape& mixed : {Shape{17, 2, 8}, Shape{3, 17, 2}, Shape{2, 8, 3},
                             Shape{9, 17, 10}, Shape{3, 8}, Shape{17, 2}}) {
    shapes.push_back(mixed);
  }
  unsigned seed = 1;
  for (const Combo& c : scatter_combos()) {
    for (const Shape& coarse : shapes) {
      bool border_fits = true;
      for (std::size_t d = 0; d < coarse.rank(); ++d) {
        border_fits = border_fits && coarse.extent(d) >= 3;
      }
      for (const extent_t phase : {0, 1}) {
        for (const bool view : {false, true}) {
          if (view && !border_fits) continue;
          check_periodic_scatter_stencil(coarse, seed++, c, view, phase);
        }
      }
    }
  }
  shutdown_runtime();
}

// Only a stride-2 scatter over its whole shape is read straight from its
// source; any other gather is forced and relaxed as an array.
TEST(PeriodicScatterStencil, OtherGathersAreForcedFirst) {
  const Array<double> src = random_array(Shape{4, 6, 8}, 22);
  EXPECT_TRUE(detail::periodic_scatter_source(lazy_scatter(2, src, 1))
                  .has_value());
  const auto cond = lazy_condense(2, src);
  const auto part = lazy_take(IndexVec{8, 12, 14}, lazy_scatter(2, src));
  const auto stride3 = lazy_scatter(3, src);
  EXPECT_FALSE(detail::periodic_scatter_source(cond).has_value());
  EXPECT_FALSE(detail::periodic_scatter_source(part).has_value());
  EXPECT_FALSE(detail::periodic_scatter_source(stride3).has_value());
  auto same = [](const Array<double>& got, const Array<double>& want) {
    ASSERT_EQ(got.shape(), want.shape());
    for (extent_t x = 0; x < got.elem_count(); ++x) {
      ASSERT_EQ(got.at_linear(x), want.at_linear(x)) << x;
    }
  };
  same(relax_kernel_periodic(cond, kQ), relax_kernel_periodic(force(cond), kQ));
  same(relax_kernel_periodic(part, kQ), relax_kernel_periodic(force(part), kQ));
  same(relax_kernel_periodic(stride3, kQ),
       relax_kernel_periodic(force(stride3), kQ));
}

}  // namespace
}  // namespace sacpp::sac
