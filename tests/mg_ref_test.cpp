// The Fortran-77 reference port: each hand-optimised kernel is checked
// against the independent SAC implementation on random grids (the
// plane-sharing buffers must not change any value), the shared plane-range
// kernels against their own full-range call, plus arena/static-layout
// properties.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "sacpp/mg/mg_ref.hpp"
#include "sacpp/mg/mg_sac.hpp"
#include "sacpp/mg/problem.hpp"

namespace sacpp::mg {
namespace {

using sac::Array;

std::vector<double> random_cube(extent_t n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> a(static_cast<std::size_t>(n * n * n));
  for (double& x : a) x = dist(rng);
  periodic_border_3d(a, n);
  return a;
}

Array<double> wrap(const std::vector<double>& flat, extent_t n) {
  const Shape shp{n, n, n};
  return sac::with_genarray<double>(shp, [&](const IndexVec& iv) {
    return flat[static_cast<std::size_t>(shp.linearize(iv))];
  });
}

class RefKernels : public ::testing::TestWithParam<extent_t> {
 protected:
  MgSpec spec_ = MgSpec::for_class(MgClass::S);
  MgRef ref_{spec_};
  MgSac sacmg_{spec_};
};

TEST_P(RefKernels, ResidMatchesSacComposition) {
  const extent_t n = GetParam();
  auto u = random_cube(n, 1);
  auto v = random_cube(n, 2);
  std::vector<double> r(u.size(), 0.0);
  ref_.kernel_resid(u.data(), v.data(), r.data(), n);

  // SAC composition: border-setup already applied to u; r = v - A u, then
  // comm3 on the result (the ref kernel exchanges its output).
  auto r_sac = wrap(v, n) - sacmg_.resid(wrap(u, n));
  std::vector<double> expect(r_sac.data(), r_sac.data() + r_sac.elem_count());
  periodic_border_3d(expect, n);
  for (std::size_t i = 0; i < r.size(); ++i) {
    ASSERT_NEAR(r[i], expect[i], 1e-13) << "at " << i;
  }
}

TEST_P(RefKernels, PsinvMatchesSacSmooth) {
  const extent_t n = GetParam();
  auto r = random_cube(n, 3);
  auto u = random_cube(n, 4);
  std::vector<double> u_ref = u;
  ref_.kernel_psinv(r.data(), u_ref.data(), n);

  auto u_sac = wrap(u, n) + sacmg_.smooth(wrap(r, n));
  std::vector<double> expect(u_sac.data(), u_sac.data() + u_sac.elem_count());
  periodic_border_3d(expect, n);
  for (std::size_t i = 0; i < u_ref.size(); ++i) {
    ASSERT_NEAR(u_ref[i], expect[i], 1e-13) << "at " << i;
  }
}

TEST_P(RefKernels, Rprj3MatchesSacFine2Coarse) {
  const extent_t nf = GetParam();
  const extent_t nc = (nf - 2) / 2 + 2;
  auto rf = random_cube(nf, 5);
  std::vector<double> rc(static_cast<std::size_t>(nc * nc * nc), 0.0);
  ref_.kernel_rprj3(rf.data(), nf, rc.data(), nc);

  auto rn = sacmg_.fine2coarse(wrap(rf, nf));
  std::vector<double> expect(rn.data(), rn.data() + rn.elem_count());
  periodic_border_3d(expect, nc);
  for (std::size_t i = 0; i < rc.size(); ++i) {
    ASSERT_NEAR(rc[i], expect[i], 1e-13) << "at " << i;
  }
}

TEST_P(RefKernels, InterpMatchesSacCoarse2Fine) {
  const extent_t nf = GetParam();
  const extent_t nc = (nf - 2) / 2 + 2;
  auto zc = random_cube(nc, 6);
  std::vector<double> uf(static_cast<std::size_t>(nf * nf * nf), 0.0);
  ref_.kernel_interp(zc.data(), nc, uf.data(), nf);

  auto z = sacmg_.coarse2fine(wrap(zc, nc));
  // The SAC Coarse2Fine leaves the result's ghost ring zero (genarray
  // default); the additive NPB interp writes ghosts too.  Interior values
  // must agree exactly.
  for (extent_t i = 1; i < nf - 1; ++i) {
    for (extent_t j = 1; j < nf - 1; ++j) {
      for (extent_t k = 1; k < nf - 1; ++k) {
        const auto idx = static_cast<std::size_t>((i * nf + j) * nf + k);
        ASSERT_NEAR(uf[idx], z(i, j, k), 1e-13)
            << "at (" << i << "," << j << "," << k << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GridSizes, RefKernels,
                         ::testing::Values<extent_t>(6, 10, 18));

TEST(RefKernelAliasing, ResidSupportsVAliasingR) {
  // mg3P calls resid with v == r (in-place residual update).
  const MgSpec spec = MgSpec::for_class(MgClass::S);
  MgRef ref(spec);
  const extent_t n = 10;
  auto u = random_cube(n, 7);
  auto v = random_cube(n, 8);
  std::vector<double> separate(v.size(), 0.0);
  ref.kernel_resid(u.data(), v.data(), separate.data(), n);
  std::vector<double> aliased = v;
  ref.kernel_resid(u.data(), aliased.data(), aliased.data(), n);
  for (std::size_t i = 0; i < aliased.size(); ++i) {
    ASSERT_DOUBLE_EQ(aliased[i], separate[i]) << i;
  }
}

// -- plane-range kernels ----------------------------------------------------
//
// MgOmp runs each shared kernel one plane at a time and MgMpi's overlapped
// sweeps run boundary planes before the interior, so any split of a plane
// range must give the full-range call's bits, and a call must write no plane
// outside its range (nor, for interp, outside its fine window).  Outputs
// that are only written start as a NaN sentinel; psinv and interp add into
// theirs, where NaN + x would hide a stray write, so those planes must keep
// their random starting bits instead.

constexpr double kSentinel = std::numeric_limits<double>::quiet_NaN();
using Range = std::pair<extent_t, extent_t>;

// [lo, hi) cut into consecutive blocks of 0..3 planes: single planes, empty
// ranges and uneven blocks all occur.
std::vector<Range> random_split(extent_t lo, extent_t hi, std::mt19937_64& rng) {
  std::uniform_int_distribution<extent_t> len(0, 3);
  std::vector<Range> blocks;
  for (extent_t a = lo; a < hi;) {
    const extent_t b = std::min(hi, a + len(rng));
    blocks.emplace_back(a, b);
    a = b;
  }
  return blocks;
}

// A random non-empty sub-range of [lo, hi).
Range random_subrange(extent_t lo, extent_t hi, std::mt19937_64& rng) {
  std::uniform_int_distribution<extent_t> pick(lo, hi - 1);
  const extent_t a = pick(rng), b = pick(rng);
  return {std::min(a, b), std::max(a, b) + 1};
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Inside [lo, hi) every plane of `got` (an extended cube of extent n) holds
// `want`'s bits; outside it still holds `before`'s.
void expect_planes(const std::vector<double>& got,
                   const std::vector<double>& want,
                   const std::vector<double>& before, extent_t n, Range in) {
  const auto pe = static_cast<std::size_t>(n * n);
  for (extent_t p = 0; p < n; ++p) {
    const bool inside = p >= in.first && p < in.second;
    const double* expect = (inside ? want : before).data() +
                           static_cast<std::size_t>(p) * pe;
    EXPECT_EQ(std::memcmp(got.data() + static_cast<std::size_t>(p) * pe,
                          expect, pe * sizeof(double)),
              0)
        << "plane " << p << (inside ? " differs from the full-range call"
                                    : " outside the range was written")
        << " (range [" << in.first << ", " << in.second << "))";
  }
}

class PlaneRangeKernels : public ::testing::TestWithParam<unsigned> {
 protected:
  MgSpec spec_ = MgSpec::for_class(MgClass::S);
  std::mt19937_64 rng_{GetParam()};
  std::vector<double> b1_ = std::vector<double>(32), b2_ = b1_, b3_ = b1_;
};

TEST_P(PlaneRangeKernels, ResidAnySplitEqualsFullRange) {
  const extent_t n = 18;
  const auto u = random_cube(n, GetParam() + 10);
  const auto v = random_cube(n, GetParam() + 11);
  std::vector<double> full(u.size(), kSentinel);
  resid_planes(spec_, u.data(), v.data(), full.data(), n, 1, n - 1,
               b1_.data(), b2_.data());
  std::vector<double> split(u.size(), kSentinel);
  for (const auto& [lo, hi] : random_split(1, n - 1, rng_)) {
    resid_planes(spec_, u.data(), v.data(), split.data(), n, lo, hi,
                 b1_.data(), b2_.data());
  }
  EXPECT_TRUE(same_bits(split, full));
  // In place (v aliasing r), as mg3P's upward leg runs it.
  std::vector<double> in_place = v;
  for (const auto& [lo, hi] : random_split(1, n - 1, rng_)) {
    resid_planes(spec_, u.data(), in_place.data(), in_place.data(), n, lo,
                 hi, b1_.data(), b2_.data());
  }
  std::vector<double> separate = v;
  resid_planes(spec_, u.data(), v.data(), separate.data(), n, 1, n - 1,
               b1_.data(), b2_.data());
  EXPECT_TRUE(same_bits(in_place, separate));

  const Range sub = random_subrange(1, n - 1, rng_);
  const std::vector<double> before(u.size(), kSentinel);
  std::vector<double> part = before;
  resid_planes(spec_, u.data(), v.data(), part.data(), n, sub.first,
               sub.second, b1_.data(), b2_.data());
  expect_planes(part, full, before, n, sub);
}

TEST_P(PlaneRangeKernels, PsinvAnySplitEqualsFullRange) {
  const extent_t n = 18;
  const auto r = random_cube(n, GetParam() + 20);
  const auto u0 = random_cube(n, GetParam() + 21);
  std::vector<double> full = u0;
  psinv_planes(spec_, r.data(), full.data(), n, 1, n - 1, b1_.data(),
               b2_.data());
  std::vector<double> split = u0;
  for (const auto& [lo, hi] : random_split(1, n - 1, rng_)) {
    psinv_planes(spec_, r.data(), split.data(), n, lo, hi, b1_.data(),
                 b2_.data());
  }
  EXPECT_TRUE(same_bits(split, full));

  const Range sub = random_subrange(1, n - 1, rng_);
  std::vector<double> part = u0;
  psinv_planes(spec_, r.data(), part.data(), n, sub.first, sub.second,
               b1_.data(), b2_.data());
  expect_planes(part, full, u0, n, sub);
}

TEST_P(PlaneRangeKernels, Rprj3AnySplitEqualsFullRange) {
  const extent_t nf = 18, nc = 10;
  const auto fine = random_cube(nf, GetParam() + 30);
  const auto cube = static_cast<std::size_t>(nc * nc * nc);
  std::vector<double> full(cube, kSentinel);
  rprj3_planes(spec_, fine.data(), nf, full.data(), nc, 1, nc - 1,
               b1_.data(), b2_.data());
  std::vector<double> split(cube, kSentinel);
  for (const auto& [lo, hi] : random_split(1, nc - 1, rng_)) {
    rprj3_planes(spec_, fine.data(), nf, split.data(), nc, lo, hi,
                 b1_.data(), b2_.data());
  }
  EXPECT_TRUE(same_bits(split, full));

  const Range sub = random_subrange(1, nc - 1, rng_);
  const std::vector<double> before(cube, kSentinel);
  std::vector<double> part = before;
  rprj3_planes(spec_, fine.data(), nf, part.data(), nc, sub.first,
               sub.second, b1_.data(), b2_.data());
  expect_planes(part, full, before, nc, sub);
}

TEST_P(PlaneRangeKernels, InterpAnySplitEqualsFullRange) {
  const extent_t nf = 18, nc = 10;
  const auto coarse = random_cube(nc, GetParam() + 40);
  const auto f0 = random_cube(nf, GetParam() + 41);
  auto interp = [&](std::vector<double>& fine, Range cells, Range window) {
    interp_planes(spec_, coarse.data(), nc, fine.data(), nf, cells.first,
                  cells.second, window.first, window.second, b1_.data(),
                  b2_.data(), b3_.data());
  };
  std::vector<double> full = f0;
  interp(full, {0, nc - 1}, {0, nf});
  std::vector<double> split = f0;
  for (const Range& cells : random_split(0, nc - 1, rng_)) {
    interp(split, cells, {0, nf});
  }
  EXPECT_TRUE(same_bits(split, full));

  // Cells [lo, hi) own fine planes [2 lo, 2 hi).
  const Range cells = random_subrange(0, nc - 1, rng_);
  std::vector<double> part = f0;
  interp(part, cells, {0, nf});
  expect_planes(part, full, f0, nf, {2 * cells.first, 2 * cells.second});

  // A fine window, as a slab passes its owned planes: every cell runs, only
  // the window's planes change, each to its full-range value.
  const Range window = random_subrange(0, nf, rng_);
  std::vector<double> windowed = f0;
  for (const Range& c : random_split(0, nc - 1, rng_)) {
    interp(windowed, c, window);
  }
  expect_planes(windowed, full, f0, nf, window);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlaneRangeKernels,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(RefState, StaticLayoutSingleArena) {
  const MgSpec spec = MgSpec::for_class(MgClass::S);
  MgRef ref(spec);
  // all level views live inside one contiguous allocation
  const double* base = ref.u().data();
  EXPECT_LE(base, ref.r().data());
  EXPECT_LE(base, ref.v().data());
}

TEST(RefState, InitialResidualEqualsRhsForZeroSolution) {
  const MgSpec spec = MgSpec::custom(8, 1);
  MgRef ref(spec);
  ref.setup_default_rhs();
  ref.zero_u();
  ref.initial_resid();
  // A 0 == 0, so r == v on the interior
  const auto v = ref.v();
  const auto r = ref.r();
  const extent_t n = spec.nx + 2;
  for (extent_t i = 1; i < n - 1; ++i) {
    for (extent_t j = 1; j < n - 1; ++j) {
      for (extent_t k = 1; k < n - 1; ++k) {
        const auto idx = static_cast<std::size_t>((i * n + j) * n + k);
        ASSERT_DOUBLE_EQ(r[idx], v[idx]);
      }
    }
  }
}

TEST(RefState, IterationReducesResidual) {
  const MgSpec spec = MgSpec::custom(16, 1);
  MgRef ref(spec);
  ref.setup_default_rhs();
  ref.zero_u();
  ref.initial_resid();
  const double before = ref.residual_norm();
  ref.iterate(1);
  EXPECT_LT(ref.residual_norm(), before * 0.5);
}

TEST(RefState, SetRhsValidatesSize) {
  MgRef ref(MgSpec::custom(8, 1));
  std::vector<double> tiny(8);
  EXPECT_THROW(ref.set_rhs(tiny), ContractError);
}

}  // namespace
}  // namespace sacpp::mg
