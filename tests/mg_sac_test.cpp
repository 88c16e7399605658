// The high-level SAC MG implementation: border setup, grid-transfer shapes
// and values, rank genericity (the paper's double[+] claim), and V-cycle
// structure.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "sacpp/mg/mg_sac.hpp"
#include "sacpp/mg/problem.hpp"
#include "sacpp/sac/pool.hpp"
#include "sacpp/sac/runtime.hpp"

namespace sacpp::mg {
namespace {

using sac::Array;

Array<double> random_extended(const Shape& shp, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  return sac::with_genarray<double>(shp,
                                    [&](const IndexVec&) { return dist(rng); });
}

TEST(Border, GhostsEqualOppositeInterior) {
  const Shape shp{6, 6, 6};
  auto a = MgSac::setup_periodic_border(random_extended(shp, 1));
  for_each_index(shp, [&](const IndexVec& iv) {
    // map each ghost coordinate to its interior source
    IndexVec src(iv.begin(), iv.end());
    for (std::size_t d = 0; d < 3; ++d) {
      if (src[d] == 0) src[d] = 4;
      if (src[d] == 5) src[d] = 1;
    }
    ASSERT_DOUBLE_EQ(a[iv], a[src]);
  });
}

TEST(Border, MatchesLowLevelComm3) {
  const extent_t n = 6;
  const Shape shp{n, n, n};
  auto a = random_extended(shp, 2);
  // low-level reference
  std::vector<double> flat(a.data(), a.data() + a.elem_count());
  periodic_border_3d(flat, n);
  auto b = MgSac::setup_periodic_border(a);
  for (extent_t i = 0; i < b.elem_count(); ++i) {
    ASSERT_DOUBLE_EQ(b.at_linear(i), flat[static_cast<std::size_t>(i)]) << i;
  }
}

TEST(Border, InPlaceWhenUnique) {
  auto a = random_extended(Shape{6, 6, 6}, 3);
  const double* p = a.data();
  auto b = MgSac::setup_periodic_border(std::move(a));
  EXPECT_EQ(b.data(), p);
}

// A shared array's border is a copy-free view: nothing is allocated until
// the first raw-pointer access, which makes the one copy-on-write.
TEST(Border, CopiesWhenShared) {
  auto a = random_extended(Shape{6, 6, 6}, 4);
  const double* p = a.data();
  const std::vector<double> before(p, p + a.elem_count());
  sac::reset_stats();
  auto b = MgSac::setup_periodic_border(a);
  EXPECT_TRUE(b.is_view());
  EXPECT_EQ(sac::stats().allocations, 0u);
  EXPECT_EQ(sac::stats().with_loops, 0u);
  EXPECT_NE(b.data(), p);
  EXPECT_FALSE(b.is_view());
  EXPECT_EQ(sac::stats().copies_on_write, 1u);
  EXPECT_EQ(sac::stats().allocations, 1u);
  EXPECT_EQ(sac::stats().with_loops, 6u);  // one per face
  EXPECT_EQ(a.data(), p);                  // original untouched
  EXPECT_EQ(std::memcmp(p, before.data(), before.size() * sizeof(double)), 0);
}

bool same_bits(const double* a, const double* b, extent_t count) {
  return std::memcmp(a, b, static_cast<std::size_t>(count) * sizeof(double)) ==
         0;
}

// Every cubic extent of the V-cycle's range, bit for bit against the NPB
// comm3 port: in place on a unique array, and on a shared one, which must
// keep its values; sequentially and with the faces split over 4 threads.
TEST(Border, MatchesComm3BitwiseForExtents3To66) {
  for (const bool mt : {false, true}) {
    for (extent_t n = 3; n <= 66; ++n) {
      const Array<double> a = random_extended(cube_shape(3, n), 100 + n);
      Array<double> unique = random_extended(cube_shape(3, n), 100 + n);
      const std::vector<double> before(a.data(), a.data() + a.elem_count());
      std::vector<double> expect = before;
      periodic_border_3d(expect, n);

      sac::SacConfig cfg = sac::config();
      cfg.mt_enabled = mt;
      cfg.mt_threads = 4;
      cfg.mt_threshold = 1;
      sac::ScopedConfig guard(cfg);
      const auto shared = MgSac::setup_periodic_border(a);
      EXPECT_TRUE(same_bits(shared.data(), expect.data(), a.elem_count()))
          << "shared, n = " << n << ", mt " << mt;
      EXPECT_TRUE(same_bits(a.data(), before.data(), a.elem_count()))
          << "the shared array changed, n = " << n << ", mt " << mt;

      const double* p = unique.data();
      const auto in_place = MgSac::setup_periodic_border(std::move(unique));
      EXPECT_EQ(in_place.data(), p);
      EXPECT_TRUE(same_bits(in_place.data(), expect.data(), a.elem_count()))
          << "in place, n = " << n << ", mt " << mt;
    }
  }
  sac::shutdown_runtime();
}

TEST(Border, WorksForRank1And2) {
  auto v = MgSac::setup_periodic_border(sac::with_genarray<double>(
      Shape{6}, [](const IndexVec& iv) { return static_cast<double>(iv[0]); }));
  EXPECT_DOUBLE_EQ((v[IndexVec{0}]), 4.0);
  EXPECT_DOUBLE_EQ((v[IndexVec{5}]), 1.0);

  auto m = MgSac::setup_periodic_border(random_extended(Shape{4, 4}, 5));
  EXPECT_DOUBLE_EQ((m[IndexVec{0, 0}]), (m[IndexVec{2, 2}]));  // corner
}

class MgSacOps : public ::testing::Test {
 protected:
  MgSpec spec_ = MgSpec::custom(8, 1);
  MgSac mg_{spec_};
};

TEST_F(MgSacOps, ResidOfZeroIsZero) {
  auto u = sac::genarray_const(cube_shape(3, 10), 0.0);
  auto r = mg_.resid(u);
  EXPECT_DOUBLE_EQ(sac::max_abs(r), 0.0);
}

TEST_F(MgSacOps, Fine2CoarseHalvesTheGrid) {
  auto r = random_extended(cube_shape(3, 10), 6);  // 8^3 interior
  auto rn = mg_.fine2coarse(r);
  EXPECT_EQ(rn.shape(), cube_shape(3, 6));  // 4^3 interior + ghosts
}

TEST_F(MgSacOps, Coarse2FineDoublesTheGrid) {
  auto rn = random_extended(cube_shape(3, 6), 7);
  auto z = mg_.coarse2fine(rn);
  EXPECT_EQ(z.shape(), cube_shape(3, 10));
}

TEST_F(MgSacOps, TransferRoundTripPreservesConstantFields) {
  // Restriction of a constant periodic field is constant (sum of P weights
  // is 1: 1/2 + 6/4/6... the 27 weighted coefficients sum to
  // p0 + 6 p1 + 12 p2 + 8 p3 = 0.5 + 1.5 + 1.5 + 0.5 = 4... here we verify
  // the coarse interior is uniform, which only holds if the stencil and the
  // grid transfer respect periodicity.
  auto c = sac::genarray_const(cube_shape(3, 10), 3.0);
  auto rn = mg_.fine2coarse(c);
  const double v0 = rn(1, 1, 1);
  for (extent_t i = 1; i < 5; ++i) {
    for (extent_t j = 1; j < 5; ++j) {
      for (extent_t k = 1; k < 5; ++k) {
        ASSERT_NEAR(rn(i, j, k), v0, 1e-13);
      }
    }
  }
}

TEST_F(MgSacOps, FusedAndUnfusedOperationsAgree) {
  auto r = random_extended(cube_shape(3, 10), 8);
  sac::SacConfig cfg = sac::config();

  cfg.folding = false;
  Array<double> vc_unfused;
  {
    sac::ScopedConfig guard(cfg);
    vc_unfused = mg_.vcycle(r);
  }
  cfg.folding = true;
  Array<double> vc_fused;
  {
    sac::ScopedConfig guard(cfg);
    vc_fused = mg_.vcycle(r);
  }
  ASSERT_EQ(vc_fused.shape(), vc_unfused.shape());
  for (extent_t i = 0; i < vc_fused.elem_count(); ++i) {
    ASSERT_NEAR(vc_fused.at_linear(i), vc_unfused.at_linear(i), 1e-13) << i;
  }
}

TEST_F(MgSacOps, VCycleTerminationAtCoarsestGrid) {
  // On the 2+2 grid VCycle must be a single smoothing step.
  auto r = random_extended(cube_shape(3, 4), 9);
  auto direct = mg_.smooth(r);
  auto vc = mg_.vcycle(r);
  for (extent_t i = 0; i < vc.elem_count(); ++i) {
    ASSERT_DOUBLE_EQ(vc.at_linear(i), direct.at_linear(i)) << i;
  }
}

TEST_F(MgSacOps, ResidualEqualsVMinusResid) {
  auto u = random_extended(cube_shape(3, 10), 10);
  auto v = random_extended(cube_shape(3, 10), 11);
  auto direct = v - mg_.resid(u);
  auto fused = mg_.residual(v, u);
  for (extent_t i = 0; i < fused.elem_count(); ++i) {
    ASSERT_NEAR(fused.at_linear(i), direct.at_linear(i), 1e-14) << i;
  }
}

// The paper's genericity claim: the identical MGrid code runs on 1-D and
// 2-D problems without alteration.
class RankGeneric : public ::testing::TestWithParam<int> {};

TEST_P(RankGeneric, MGridReducesResidualInAnyRank) {
  const int rank = GetParam();
  const MgSpec spec = MgSpec::custom(16, 1);
  MgSac mg(spec);
  const Shape shp = cube_shape(static_cast<std::size_t>(rank), 18);
  // a +-1 charge pair as RHS
  auto v = sac::with_genarray<double>(shp, [&](const IndexVec& iv) -> double {
    if (iv[0] == 3) return 1.0;
    if (iv[0] == 9) return -1.0;
    return 0.0;
  });
  v = MgSac::setup_periodic_border(std::move(v));

  auto u0 = sac::genarray_const(shp, 0.0);
  const double norm0 = mg.residual_norm(v, u0);
  auto u2 = mg.mgrid(v, 2);
  const double norm2 = mg.residual_norm(v, u2);
  EXPECT_LT(norm2, norm0 * 0.25)
      << "V-cycle failed to reduce the residual in rank " << rank;
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankGeneric, ::testing::Values(1, 2, 3));

// The resets' rank-3 genarray_const (specialised loop nest) equals a plain
// constant fill, with and without the specialisation.
TEST(GenarrayConst, Rank3EqualsConstantFill) {
  for (const bool specialize : {true, false}) {
    sac::SacConfig cfg = sac::config();
    cfg.specialize = specialize;
    sac::ScopedConfig guard(cfg);
    for (const Shape& shp : {Shape{5, 6, 7}, cube_shape(3, 66)}) {
      for (const double v : {0.0, -0.0, 3.25}) {
        const auto c = sac::genarray_const(shp, v);
        const std::vector<double> fill(static_cast<std::size_t>(
                                           shp.elem_count()),
                                       v);
        EXPECT_TRUE(same_bits(c.data(), fill.data(), shp.elem_count()))
            << "value " << v << " specialize " << specialize;
      }
    }
  }
}

// One class-W iteration of mgrid — the stats of mgrid(v, 2) less those of
// mgrid(v, 1) — reads every border as a view: no copy-on-write, and the
// six face with-loops, their copies and their parallel regions are gone
// (with eager borders the same iteration counts 22 copies and 160
// with-loops, 49 allocations and 32 regions).  Each of the five levels
// above the coarsest relaxes Q straight from the coarse grid, with no
// scattered grid to build, and writes r - A z into r; the top level's last
// smoothing and the update u + z are one sweep, u + (z + S r2): 22
// with-loops, 12 regions at 4 threads and 17 allocations.  The planes row
// path at 4 threads and the grouped per-point path at 1 count alike.
struct IterationCounts {
  std::uint64_t copies, with_loops, allocations, regions;
};

IterationCounts class_w_iteration(sac::StencilMode mode,
                                  sac::BackendKind backend, unsigned threads) {
  // Before the threads: random_extended's generator must run sequentially.
  const Array<double> v = random_extended(cube_shape(3, 66), 12);
  sac::SacConfig cfg = sac::config();
  cfg.stencil_mode = mode;
  cfg.backend = backend;
  cfg.mt_enabled = threads > 1;
  cfg.mt_threads = threads;
  sac::ScopedConfig guard(cfg);
  const MgSac mg(MgSpec::for_class(MgClass::W));
  auto counts = [&](int iter) {
    sac::reset_stats();
    (void)mg.mgrid(v, iter);
    const sac::RuntimeStats& st = sac::stats();
    return IterationCounts{st.copies_on_write, st.with_loops, st.allocations,
                           st.parallel_regions};
  };
  // Both measured calls must start alike for their set-up to cancel: a
  // first call leaves a 66^3 block cached, so each call's zero u is a
  // recycled block its genarray_const fills (on a fresh mapping it would
  // run no with-loop, docs/memory.md).
  (void)counts(1);
  const IterationCounts one = counts(1);
  const IterationCounts two = counts(2);
  sac::shutdown_runtime();
  return IterationCounts{two.copies - one.copies,
                         two.with_loops - one.with_loops,
                         two.allocations - one.allocations,
                         two.regions - one.regions};
}

TEST(MgSacIteration, ClassWBordersCopyNothing) {
  const IterationCounts planes = class_w_iteration(
      sac::StencilMode::kPlanes, sac::BackendKind::kSimd, 4);
  EXPECT_EQ(planes.copies, 0u);
  EXPECT_EQ(planes.with_loops, 22u);
  EXPECT_EQ(planes.allocations, 17u);
  EXPECT_EQ(planes.regions, 12u);

  const IterationCounts grouped = class_w_iteration(
      sac::StencilMode::kGrouped, sac::BackendKind::kScalar, 1);
  EXPECT_EQ(grouped.copies, 0u);
  EXPECT_EQ(grouped.with_loops, 22u);
  EXPECT_EQ(grouped.allocations, 17u);
  EXPECT_EQ(grouped.regions, 0u);
}

// One mgrid iteration on a 130^3 grid: its 17.6 MB grids are big pool
// blocks and nothing below them is, so the blocks freed at quiescence are
// the big mappings the solve used.  Four grids are live at its peak: v, u,
// the residual r (which the V-cycle overwrites with r - A z) and the
// prolonged correction z; no scattered fine grid and no separate r - A z
// is allocated.
TEST(MgSacIteration, Grid130MapsFourBigBlocks) {
  sac::SacConfig cfg = sac::config();
  cfg.pool = true;
  sac::ScopedConfig guard(cfg);
  const std::uint64_t before = sac::BufferPool::instance().totals().big_freed;
  {
    const Array<double> v = random_extended(cube_shape(3, 130), 13);
    const MgSac mg(MgSpec::custom(128, 1));
    (void)mg.mgrid(v, 1);
  }
  EXPECT_EQ(sac::BufferPool::instance().live_big_blocks(), 0u);
  EXPECT_EQ(sac::BufferPool::instance().totals().big_freed - before, 4u);
}

TEST(MgSacValidation, NonPowerOfTwoGridRejected) {
  MgSac mg(MgSpec::custom(8, 1));
  auto v = sac::genarray_const(Shape{9, 9, 9}, 0.0);
  EXPECT_THROW(mg.mgrid(v, 1), ContractError);
}

TEST(MgSacValidation, CustomSpecRejectsBadSizes) {
  EXPECT_THROW(MgSpec::custom(10, 1), ContractError);
  EXPECT_THROW(MgSpec::custom(0, 1), ContractError);
  EXPECT_THROW(MgSpec::custom(8, -1), ContractError);
}

}  // namespace
}  // namespace sacpp::mg
