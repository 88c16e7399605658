// The ghost-free direct-periodic MG (the paper's future-work item): the
// periodic stencil must equal border-setup + fixed-boundary relaxation, and
// the whole direct V-cycle must reproduce the ghost-layer implementations'
// norms on the benchmark input.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "sacpp/mg/mg_ref.hpp"
#include "sacpp/mg/mg_sac.hpp"
#include "sacpp/mg/mg_sac_direct.hpp"
#include "sacpp/mg/problem.hpp"

namespace sacpp::mg {
namespace {

using sac::Array;

Array<double> random_pure(const Shape& shp, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  return sac::with_genarray<double>(shp,
                                    [&](const IndexVec&) { return dist(rng); });
}

// Extend a pure 2^k cube with ghost layers (inverse of strip_ghosts).
Array<double> add_ghosts(const Array<double>& pure) {
  IndexVec ext(pure.rank());
  for (std::size_t d = 0; d < pure.rank(); ++d) {
    ext[d] = pure.shape().extent(d) + 2;
  }
  auto e = sac::embed(ext, uniform_vec(pure.rank(), 1), pure);
  return MgSac::setup_periodic_border(std::move(e));
}

constexpr sac::StencilCoeffs kC{{-0.5, 0.125, 0.0625, 0.03125}};

class PeriodicRank : public ::testing::TestWithParam<int> {};

// The periodic stencil and border setup + the fixed-boundary stencil read
// the same operands in the same order, so they agree bit for bit in every
// mode, kPlanes rows included (cutover 0), down to the coarsest extent 2.
TEST_P(PeriodicRank, PeriodicRelaxEqualsBorderSetupPlusFixedRelax) {
  const int rank = GetParam();
  sac::SacConfig cfg = sac::config();
  cfg.stencil_planes_cutover = 0;
  sac::ScopedConfig guard(cfg);
  for (const sac::StencilMode mode :
       {sac::StencilMode::kNaive, sac::StencilMode::kGrouped,
        sac::StencilMode::kPlanes}) {
    for (const extent_t n : {2, 4, 8, 20}) {
      const Shape shp = cube_shape(static_cast<std::size_t>(rank), n);
      auto pure = random_pure(shp, 1);
      // ghost-free path
      auto direct = sac::relax_kernel_periodic(pure, kC, mode);
      // ghost-layer path: extend, border-setup, fixed relax, strip
      auto viaGhosts = MgSacDirect::strip_ghosts(
          sac::relax_kernel(add_ghosts(pure), kC, mode));
      ASSERT_EQ(direct.shape(), viaGhosts.shape());
      for (extent_t i = 0; i < direct.elem_count(); ++i) {
        ASSERT_EQ(direct.at_linear(i), viaGhosts.at_linear(i))
            << sac::stencil_mode_name(mode) << " n=" << n << " at " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, PeriodicRank, ::testing::Values(1, 2, 3));

TEST(PeriodicStencil, InteriorIsBitwiseEqualToFixedStencil) {
  const Shape shp{8, 8, 8};
  auto pure = random_pure(shp, 2);
  const auto per = sac::StencilExpr::periodic(pure, kC);
  const sac::StencilExpr fixed(pure, kC);
  for (extent_t i = 1; i < 7; ++i) {
    for (extent_t j = 1; j < 7; ++j) {
      for (extent_t k = 1; k < 7; ++k) {
        ASSERT_EQ(per(i, j, k), fixed(i, j, k));
      }
    }
  }
}

TEST(PeriodicStencil, WrapsAtAllBoundaries) {
  // A point source at the origin must leak to the opposite corners.
  const Shape shp{4, 4, 4};
  auto src = sac::with_genarray<double>(shp, [](const IndexVec& iv) {
    return (iv[0] == 0 && iv[1] == 0 && iv[2] == 0) ? 1.0 : 0.0;
  });
  auto r = sac::relax_kernel_periodic(src, kC);
  EXPECT_DOUBLE_EQ(r(0, 0, 0), kC[0]);
  EXPECT_DOUBLE_EQ(r(3, 0, 0), kC[1]);  // face via wrap
  EXPECT_DOUBLE_EQ(r(3, 3, 0), kC[2]);  // edge via wrap
  EXPECT_DOUBLE_EQ(r(3, 3, 3), kC[3]);  // corner via wrap
  EXPECT_DOUBLE_EQ(r(2, 0, 0), 0.0);
}

TEST(PeriodicStencil, ConstantFieldStaysUniform) {
  const Shape shp{4, 4, 4};
  auto c = sac::genarray_const(shp, 2.0);
  auto r = sac::relax_kernel_periodic(c, kC);
  const double factor =
      kC[0] + 6.0 * kC[1] + 12.0 * kC[2] + 8.0 * kC[3];
  for (extent_t i = 0; i < r.elem_count(); ++i) {
    ASSERT_NEAR(r.at_linear(i), factor * 2.0, 1e-14);
  }
}

TEST(PeriodicStencil, MinimumExtentEnforced) {
  auto tiny = sac::genarray_const(Shape{1, 4, 4}, 1.0);
  EXPECT_THROW(sac::relax_kernel_periodic(tiny, kC), ContractError);
}

// -- the direct V-cycle against the ghost-layer implementations --------------

class DirectVsGhost : public ::testing::TestWithParam<std::pair<extent_t, int>> {
};

TEST_P(DirectVsGhost, IterationNormsAgreeWithReference) {
  const auto [nx, nit] = GetParam();
  const MgSpec spec = MgSpec::custom(nx, nit);

  // reference: the Fortran-77 port on the standard extended input
  MgRef ref(spec);
  ref.setup_default_rhs();
  ref.zero_u();
  ref.initial_resid();

  // direct: the same physical input without ghosts
  const extent_t n = nx + 2;
  std::vector<double> v_ext(static_cast<std::size_t>(n * n * n));
  fill_rhs(v_ext, nx);
  const Shape ext_shape{n, n, n};
  auto v_extended = sac::with_genarray<double>(
      ext_shape, [&](const IndexVec& iv) {
        return v_ext[static_cast<std::size_t>(ext_shape.linearize(iv))];
      });
  auto v = MgSacDirect::strip_ghosts(v_extended);

  MgSacDirect direct(spec);
  auto u = sac::genarray_const(v.shape(), 0.0);
  for (int it = 0; it < nit; ++it) {
    ref.iterate(1);
    auto r = direct.residual(v, u);
    u = std::move(u) + direct.vcycle(r);
    const double dn = direct.residual_norm(v, u);
    const double rn = ref.residual_norm();
    ASSERT_NEAR(dn, rn, rn * 1e-11 + 1e-18) << "iteration " << it;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DirectVsGhost,
                         ::testing::Values(std::pair<extent_t, int>{8, 2},
                                           std::pair<extent_t, int>{16, 3},
                                           std::pair<extent_t, int>{32, 4}));

TEST(Direct, ClassSVerificationValue) {
  const MgSpec spec = MgSpec::for_class(MgClass::S);
  const extent_t n = spec.nx + 2;
  std::vector<double> v_ext(static_cast<std::size_t>(n * n * n));
  fill_rhs(v_ext, spec.nx);
  const Shape ext_shape{n, n, n};
  auto v = MgSacDirect::strip_ghosts(sac::with_genarray<double>(
      ext_shape, [&](const IndexVec& iv) {
        return v_ext[static_cast<std::size_t>(ext_shape.linearize(iv))];
      }));
  MgSacDirect direct(spec);
  auto u = direct.mgrid(v, spec.nit);
  EXPECT_NEAR(direct.residual_norm(v, u), 0.530770700573e-04, 1e-14);
}

TEST(Direct, FoldingOnOffAgree) {
  const MgSpec spec = MgSpec::custom(16, 2);
  const Shape shp = cube_shape(3, 16);
  auto v = random_pure(shp, 7);
  MgSacDirect direct(spec);
  double norms[2];
  int i = 0;
  for (bool folding : {false, true}) {
    sac::SacConfig cfg = sac::config();
    cfg.folding = folding;
    sac::ScopedConfig guard(cfg);
    auto u = direct.mgrid(v, 2);
    norms[i++] = direct.residual_norm(v, u);
  }
  EXPECT_NEAR(norms[0], norms[1], std::abs(norms[0]) * 1e-12);
}

TEST(Direct, RankGenericResidualReduction) {
  for (int rank : {1, 2}) {
    const MgSpec spec = MgSpec::custom(16, 2);
    MgSacDirect direct(spec);
    const Shape shp = cube_shape(static_cast<std::size_t>(rank), 16);
    auto v = sac::with_genarray<double>(shp, [](const IndexVec& iv) -> double {
      if (iv[0] == 2) return 1.0;
      if (iv[0] == 9) return -1.0;
      return 0.0;
    });
    auto u0 = sac::genarray_const(shp, 0.0);
    const double n0 = direct.residual_norm(v, u0);
    auto u = direct.mgrid(v, 2);
    EXPECT_LT(direct.residual_norm(v, u), n0 * 0.25) << "rank " << rank;
  }
}

TEST(Direct, NonPowerOfTwoRejected) {
  MgSacDirect direct(MgSpec::custom(8, 1));
  auto v = sac::genarray_const(Shape{9, 9, 9}, 0.0);
  EXPECT_THROW(direct.mgrid(v, 1), ContractError);
}

// -- the red-black (multi-colour) Gauss-Seidel extension ---------------------

TEST(RbGs, SweepReducesResidualOfPoissonEquation) {
  const MgSpec spec = MgSpec::custom(16, 1);
  MgSacDirect direct(spec);
  const Shape shp = cube_shape(3, 16);
  auto v = random_pure(shp, 21);
  // remove the mean so the periodic problem is consistent
  const double mean = sac::sum(v) / static_cast<double>(v.elem_count());
  v = v - mean;
  auto u = sac::genarray_const(shp, 0.0);
  double prev = direct.residual_norm(v, u);
  for (int sweep = 0; sweep < 5; ++sweep) {
    u = direct.smooth_rbgs(std::move(u), v);
    const double now = direct.residual_norm(v, u);
    ASSERT_LT(now, prev) << "sweep " << sweep;
    prev = now;
  }
}

TEST(RbGs, DeterministicUnderMultithreading) {
  const MgSpec spec = MgSpec::custom(16, 1);
  MgSacDirect direct(spec);
  const Shape shp = cube_shape(3, 16);
  auto v = random_pure(shp, 22);
  auto seq = direct.smooth_rbgs(sac::genarray_const(shp, 0.0), v);
  sac::SacConfig cfg = sac::config();
  cfg.mt_enabled = true;
  cfg.mt_threads = 4;
  cfg.mt_threshold = 1;
  sac::ScopedConfig guard(cfg);
  auto par = direct.smooth_rbgs(sac::genarray_const(shp, 0.0), v);
  sac::shutdown_runtime();
  for (extent_t i = 0; i < seq.elem_count(); ++i) {
    // per-axis-parity colours are mutually non-adjacent, so parallel
    // execution within a colour is exact
    ASSERT_DOUBLE_EQ(par.at_linear(i), seq.at_linear(i)) << i;
  }
}

TEST(RbGs, InPlaceWhenUnique) {
  MgSacDirect direct(MgSpec::custom(8, 1));
  auto v = random_pure(cube_shape(3, 8), 23);
  auto u = sac::genarray_const(cube_shape(3, 8), 0.0);
  const double* p = u.data();
  u = direct.smooth_rbgs(std::move(u), v);
  EXPECT_EQ(u.data(), p);
}

TEST(RbGs, VCycleContractsAtLeastAsFastAsBenchmarkSmoother) {
  const MgSpec spec = MgSpec::custom(32, 1);
  MgSacDirect direct(spec);
  const extent_t n = spec.nx + 2;
  std::vector<double> v_ext(static_cast<std::size_t>(n * n * n));
  fill_rhs(v_ext, spec.nx);
  const Shape ext_shape{n, n, n};
  auto v = MgSacDirect::strip_ghosts(sac::with_genarray<double>(
      ext_shape, [&](const IndexVec& iv) {
        return v_ext[static_cast<std::size_t>(ext_shape.linearize(iv))];
      }));
  auto u0 = sac::genarray_const(v.shape(), 0.0);
  const double norm0 = direct.residual_norm(v, u0);

  auto u_npb = direct.mgrid(v, 2);
  auto u_rb = direct.mgrid_rbgs(v, 2);
  const double c_npb = norm0 / direct.residual_norm(v, u_npb);
  const double c_rb = norm0 / direct.residual_norm(v, u_rb);
  EXPECT_GT(c_rb, c_npb * 0.8)
      << "RB-GS V-cycle should contract comparably: " << c_rb << " vs "
      << c_npb;
  EXPECT_GT(c_rb, 10.0);
}

TEST(RbGs, WorksInRank2) {
  const MgSpec spec = MgSpec::custom(16, 1);
  MgSacDirect direct(spec);
  const Shape shp = cube_shape(2, 16);
  auto v = random_pure(shp, 24);
  v = v - sac::sum(v) / static_cast<double>(v.elem_count());
  auto u = direct.smooth_rbgs(sac::genarray_const(shp, 0.0), v);
  EXPECT_LT(direct.residual_norm(v, u),
            direct.residual_norm(v, sac::genarray_const(shp, 0.0)));
}

TEST(Direct, StripGhostsInverseOfAddGhosts) {
  auto pure = random_pure(Shape{6, 6, 6}, 9);
  auto round = MgSacDirect::strip_ghosts(add_ghosts(pure));
  for (extent_t i = 0; i < pure.elem_count(); ++i) {
    ASSERT_DOUBLE_EQ(round.at_linear(i), pure.at_linear(i));
  }
}

// One class-W iteration of the ghost-free mgrid — the stats of mgrid(v, 2)
// less those of mgrid(v, 1), MgSacIteration's method.  Each of the five
// levels above the coarsest prolongs in one with-loop straight from the
// coarse grid, then writes r - A z into r and z + S r into z, the V-cycle's
// last references, in place — at the top level z + S r goes straight into
// the update, u + (z + S r), in u's buffer: 17 allocations, where a fresh
// grid per update would make 27 and building the scattered grid 5 more.
// 22 with-loops, and at 4 threads 12 parallel regions: mg_sac's counts.
struct IterationCounts {
  std::uint64_t copies, with_loops, allocations, regions;
};

IterationCounts class_w_iteration(sac::StencilMode mode,
                                  sac::BackendKind backend, unsigned threads) {
  // Before the threads: random_pure's generator must run sequentially.
  const Array<double> v = random_pure(cube_shape(3, 64), 12);
  sac::SacConfig cfg = sac::config();
  cfg.stencil_mode = mode;
  cfg.backend = backend;
  cfg.mt_enabled = threads > 1;
  cfg.mt_threads = threads;
  sac::ScopedConfig guard(cfg);
  const MgSacDirect mg(MgSpec::for_class(MgClass::W));
  auto counts = [&](int iter) {
    sac::reset_stats();
    (void)mg.mgrid(v, iter);
    const sac::RuntimeStats& st = sac::stats();
    return IterationCounts{st.copies_on_write, st.with_loops, st.allocations,
                           st.parallel_regions};
  };
  // As in MgSacIteration: a first call leaves the 64^3 blocks cached, so
  // both measured calls start alike.
  (void)counts(1);
  const IterationCounts one = counts(1);
  const IterationCounts two = counts(2);
  sac::shutdown_runtime();
  return IterationCounts{two.copies - one.copies,
                         two.with_loops - one.with_loops,
                         two.allocations - one.allocations,
                         two.regions - one.regions};
}

TEST(MgSacDirectIteration, ClassWUpdatesInPlace) {
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

// One mgrid iteration on a 128^3 grid: its 16.8 MB grids are big pool
// blocks and nothing below them is, so the blocks freed at quiescence are
// the big mappings the solve used.  Four: v, u, r (which takes r - A z) and
// z (which takes z + S r); coarse2fine reads the coarse grid straight
// through and builds no scattered grid.
TEST(MgSacDirectIteration, Grid128MapsFewBigBlocks) {
  sac::SacConfig cfg = sac::config();
  cfg.pool = true;
  sac::ScopedConfig guard(cfg);
  const std::uint64_t before = sac::BufferPool::instance().totals().big_freed;
  {
    const Array<double> v = random_pure(cube_shape(3, 128), 13);
    const MgSacDirect mg(MgSpec::custom(128, 1));
    (void)mg.mgrid(v, 1);
  }
  EXPECT_EQ(sac::BufferPool::instance().live_big_blocks(), 0u);
  EXPECT_EQ(sac::BufferPool::instance().totals().big_freed - before, 4u);
}

}  // namespace
}  // namespace sacpp::mg
