// MG input generation (zran3 charges) and grid utilities: periodic border,
// interior norms.  The streaming generator is checked against the oracle
// it replaced: the stored nx^3 deviate field, sorted for its charges, then
// the charges placed and the borders exchanged.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>

#include "sacpp/mg/problem.hpp"
#include "sacpp/nasrand/nasrand.hpp"
#include "sacpp/sac/array_lib.hpp"
#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/sac/pool.hpp"

namespace sacpp::mg {
namespace {

// -- oracle ------------------------------------------------------------------

// The nx^3 interior field of deviates in NPB order, built the way NPB's
// zran3 does: one vranlc row per (i2, i3), the row start jumped by a^nx per
// row and a^(nx*nx) per plane.
std::vector<double> random_field(extent_t nx) {
  using namespace sacpp::nasrand;
  std::vector<double> field(static_cast<std::size_t>(nx * nx * nx));
  const double a1 = ipow46(kDefaultMultiplier, nx);       // one row
  const double a2 = ipow46(kDefaultMultiplier, nx * nx);  // one plane
  double x0 = kDefaultSeed;
  for (extent_t i3 = 0; i3 < nx; ++i3) {
    double x1 = x0;
    for (extent_t i2 = 0; i2 < nx; ++i2) {
      double xx = x1;
      double* row = field.data() + (i3 * nx + i2) * nx;
      vranlc(&xx, kDefaultMultiplier,
             std::span<double>(row, static_cast<std::size_t>(nx)));
      randlc(&x1, a1);
    }
    randlc(&x0, a2);
  }
  return field;
}

// The ten largest / ten smallest positions of `field` by sorting, ties in
// scan order.
Charges find_charges(const std::vector<double>& field, extent_t nx) {
  const std::size_t want = std::min<std::size_t>(10, field.size());
  std::vector<std::size_t> order(field.size());
  auto pos_of = [nx](std::size_t flat) {
    IndexVec iv(3);
    iv[2] = static_cast<extent_t>(flat) % nx;
    iv[1] = (static_cast<extent_t>(flat) / nx) % nx;
    iv[0] = static_cast<extent_t>(flat) / (nx * nx);
    return iv;
  };
  auto select = [&](auto better) {
    std::iota(order.begin(), order.end(), 0);
    std::partial_sort(order.begin(), order.begin() + static_cast<long>(want),
                      order.end(), [&](std::size_t x, std::size_t y) {
                        if (field[x] != field[y]) {
                          return better(field[x], field[y]);
                        }
                        return x < y;
                      });
    std::vector<IndexVec> out;
    for (std::size_t i = 0; i < want; ++i) out.push_back(pos_of(order[i]));
    return out;
  };
  Charges ch;
  ch.plus = select(std::greater<>{});
  ch.minus = select(std::less<>{});
  return ch;
}

// The extended right-hand side the way it was built before zran3 streamed:
// charges into a zero cube, then the comm3 border exchange.
std::vector<double> oracle_rhs(extent_t nx) {
  const extent_t n = nx + 2;
  std::vector<double> v(static_cast<std::size_t>(n * n * n), 0.0);
  const Charges ch = find_charges(random_field(nx), nx);
  auto at = [&](const IndexVec& c) -> double& {
    return v[static_cast<std::size_t>(((c[0] + 1) * n + c[1] + 1) * n + c[2] +
                                      1)];
  };
  for (const auto& p : ch.plus) at(p) = +1.0;
  for (const auto& m : ch.minus) at(m) = -1.0;
  periodic_border_3d(v, n);
  return v;
}

std::vector<std::array<extent_t, 3>> triples(const std::vector<IndexVec>& ps) {
  std::vector<std::array<extent_t, 3>> out;
  for (const IndexVec& p : ps) out.push_back({p[0], p[1], p[2]});
  return out;
}

TEST(RandomField, MatchesContiguousSequence) {
  // The row/plane jump structure must equal one contiguous deviate stream.
  const extent_t nx = 8;
  const auto field = random_field(nx);
  nasrand::NasRandom rng;
  for (std::size_t i = 0; i < field.size(); ++i) {
    ASSERT_DOUBLE_EQ(field[i], rng.next()) << "at " << i;
  }
}

TEST(RandomField, Deterministic) {
  EXPECT_EQ(random_field(4), random_field(4));
}

TEST(Charges, ExactlyTenEach) {
  const extent_t nx = 8;
  const Charges ch = find_charges(random_field(nx), nx);
  EXPECT_EQ(ch.plus.size(), 10u);
  EXPECT_EQ(ch.minus.size(), 10u);
}

TEST(Charges, PositionsAreDistinctAndInRange) {
  const extent_t nx = 8;
  const Charges ch = find_charges(random_field(nx), nx);
  std::set<std::array<extent_t, 3>> seen;
  auto check = [&](const IndexVec& p) {
    ASSERT_EQ(p.size(), 3u);
    for (std::size_t d = 0; d < 3; ++d) {
      ASSERT_GE(p[d], 0);
      ASSERT_LT(p[d], nx);
    }
    EXPECT_TRUE(seen.insert({p[0], p[1], p[2]}).second) << "duplicate charge";
  };
  for (const auto& p : ch.plus) check(p);
  for (const auto& m : ch.minus) check(m);
}

TEST(Charges, PlusAreLargestMinusAreSmallest) {
  const extent_t nx = 4;
  const auto field = random_field(nx);
  const Charges ch = find_charges(field, nx);
  auto value_at = [&](const IndexVec& p) {
    return field[static_cast<std::size_t>((p[0] * nx + p[1]) * nx + p[2])];
  };
  double min_plus = 1.0, max_minus = 0.0;
  for (const auto& p : ch.plus) min_plus = std::min(min_plus, value_at(p));
  for (const auto& m : ch.minus) max_minus = std::max(max_minus, value_at(m));
  // every non-charge value lies between the groups
  std::set<std::size_t> charged;
  for (const auto& p : ch.plus) {
    charged.insert(static_cast<std::size_t>((p[0] * nx + p[1]) * nx + p[2]));
  }
  for (const auto& m : ch.minus) {
    charged.insert(static_cast<std::size_t>((m[0] * nx + m[1]) * nx + m[2]));
  }
  for (std::size_t i = 0; i < field.size(); ++i) {
    if (charged.count(i)) continue;
    ASSERT_LT(field[i], min_plus);
    ASSERT_GT(field[i], max_minus);
  }
}

TEST(FillRhs, SumOfChargesIsZeroAndValuesAreSigns) {
  const extent_t nx = 8;
  const extent_t n = nx + 2;
  std::vector<double> v(static_cast<std::size_t>(n * n * n));
  fill_rhs(v, nx);
  int plus = 0, minus = 0;
  // interior census
  for (extent_t i = 1; i < n - 1; ++i) {
    for (extent_t j = 1; j < n - 1; ++j) {
      for (extent_t k = 1; k < n - 1; ++k) {
        const double x = v[static_cast<std::size_t>((i * n + j) * n + k)];
        ASSERT_TRUE(x == 0.0 || x == 1.0 || x == -1.0);
        plus += x == 1.0;
        minus += x == -1.0;
      }
    }
  }
  EXPECT_EQ(plus, 10);
  EXPECT_EQ(minus, 10);
}

TEST(FillRhs, GhostLayersArePeriodic) {
  const extent_t nx = 4;
  const extent_t n = nx + 2;
  std::vector<double> v(static_cast<std::size_t>(n * n * n));
  fill_rhs(v, nx);
  auto at = [&](extent_t i, extent_t j, extent_t k) {
    return v[static_cast<std::size_t>((i * n + j) * n + k)];
  };
  for (extent_t j = 0; j < n; ++j) {
    for (extent_t k = 0; k < n; ++k) {
      ASSERT_DOUBLE_EQ(at(0, j, k), at(n - 2, j, k));
      ASSERT_DOUBLE_EQ(at(n - 1, j, k), at(1, j, k));
    }
  }
}

TEST(PeriodicBorder, CopiesOppositeFacesInOrder) {
  const extent_t n = 4;
  std::vector<double> a(static_cast<std::size_t>(n * n * n));
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<double>(i);
  periodic_border_3d(a, n);
  auto at = [&](extent_t i, extent_t j, extent_t k) {
    return a[static_cast<std::size_t>((i * n + j) * n + k)];
  };
  // all three axes periodic, including edges and corners
  for (extent_t i = 0; i < n; ++i) {
    for (extent_t j = 0; j < n; ++j) {
      ASSERT_DOUBLE_EQ(at(i, j, 0), at(i, j, n - 2));
      ASSERT_DOUBLE_EQ(at(i, j, n - 1), at(i, j, 1));
      ASSERT_DOUBLE_EQ(at(i, 0, j), at(i, n - 2, j));
      ASSERT_DOUBLE_EQ(at(i, n - 1, j), at(i, 1, j));
      ASSERT_DOUBLE_EQ(at(0, i, j), at(n - 2, i, j));
      ASSERT_DOUBLE_EQ(at(n - 1, i, j), at(1, i, j));
    }
  }
}

TEST(PeriodicBorder, Idempotent) {
  const extent_t n = 6;
  std::vector<double> a(static_cast<std::size_t>(n * n * n));
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = std::sin(static_cast<double>(i));
  }
  periodic_border_3d(a, n);
  std::vector<double> once = a;
  periodic_border_3d(a, n);
  EXPECT_EQ(a, once);
}

TEST(InteriorNorm, KnownValues) {
  const extent_t n = 4;  // nx = 2, 8 interior points
  std::vector<double> a(static_cast<std::size_t>(n * n * n), 0.0);
  // set all 8 interior points to 2.0
  for (extent_t i = 1; i < 3; ++i) {
    for (extent_t j = 1; j < 3; ++j) {
      for (extent_t k = 1; k < 3; ++k) {
        a[static_cast<std::size_t>((i * n + j) * n + k)] = 2.0;
      }
    }
  }
  // ghost values must not contribute
  a[0] = 100.0;
  EXPECT_DOUBLE_EQ(interior_l2_norm(a, n), 2.0);
  EXPECT_DOUBLE_EQ(interior_max_abs(a, n), 2.0);
}

TEST(InteriorNorm, ZeroField) {
  const extent_t n = 4;
  std::vector<double> a(static_cast<std::size_t>(n * n * n), 0.0);
  EXPECT_DOUBLE_EQ(interior_l2_norm(a, n), 0.0);
  EXPECT_DOUBLE_EQ(interior_max_abs(a, n), 0.0);
}

TEST(FillRhs, WrongBufferSizeThrows) {
  std::vector<double> v(10);
  EXPECT_THROW(fill_rhs(v, 8), ContractError);
}

// -- streaming zran3 ---------------------------------------------------------

class StreamedCharges : public ::testing::TestWithParam<extent_t> {};

TEST_P(StreamedCharges, EqualSortedField) {
  const extent_t nx = GetParam();
  const Charges streamed = zran3_charges(nx);
  const Charges sorted = find_charges(random_field(nx), nx);
  EXPECT_EQ(triples(streamed.plus), triples(sorted.plus));
  EXPECT_EQ(triples(streamed.minus), triples(sorted.minus));
}

INSTANTIATE_TEST_SUITE_P(Sizes, StreamedCharges,
                         ::testing::Values<extent_t>(1, 2, 3, 4, 5, 7, 8, 32,
                                                     64));

// The 16-chain scan against the one-chain scan, over sizes whose nx^3 is
// and is not a multiple of the 16 chains, up to the class-A field.
TEST(Zran3Charges, VectorisedScanEqualsOneChain) {
  if (!sac::cpu_has_avx2()) GTEST_SKIP() << "the vectorised scan needs AVX2";
  for (const extent_t nx : {1, 2, 3, 5, 7, 32, 64, 256}) {
    const Charges one = detail::zran3_charges(nx, false);
    const Charges vec = detail::zran3_charges(nx, true);
    EXPECT_EQ(triples(vec.plus), triples(one.plus)) << "nx " << nx;
    EXPECT_EQ(triples(vec.minus), triples(one.minus)) << "nx " << nx;
  }
}

// Classes A and B share the 256^3 field; its charges, computed once with
// an independent integer implementation of the generator.
TEST(Zran3Charges, ClassAbPositionsArePinned) {
  const Charges ch = zran3_charges(256);
  const std::vector<std::array<extent_t, 3>> plus = {
      {38, 207, 52}, {12, 170, 241}, {196, 16, 201}, {207, 81, 200},
      {205, 121, 113}, {246, 5, 210}, {232, 192, 43}, {162, 244, 174},
      {173, 116, 3}, {165, 118, 55}};
  const std::vector<std::array<extent_t, 3>> minus = {
      {238, 40, 221}, {34, 160, 152}, {253, 182, 80}, {155, 168, 248},
      {201, 5, 197}, {203, 61, 90}, {30, 203, 15}, {57, 154, 99},
      {110, 136, 100}, {96, 152, 209}};
  EXPECT_EQ(triples(ch.plus), plus);
  EXPECT_EQ(triples(ch.minus), minus);
}

TEST(FillRhs, EqualsChargesPlusBorderExchange) {
  for (const extent_t nx : {1, 2, 4, 8, 32}) {
    const extent_t n = nx + 2;
    std::vector<double> v(static_cast<std::size_t>(n * n * n), 7.0);
    fill_rhs(v, nx);
    EXPECT_EQ(v, oracle_rhs(nx)) << "nx " << nx;
  }
}

TEST(FillRhs, EveryPlaneRangeEqualsTheSamePlanesOfTheCube) {
  const extent_t nx = 8;
  const extent_t n = nx + 2;
  const std::vector<double> full = oracle_rhs(nx);
  const auto plane = static_cast<std::size_t>(n * n);
  for (extent_t first = 0; first <= n; ++first) {
    for (extent_t count = 0; first + count <= n; ++count) {
      std::vector<double> planes(static_cast<std::size_t>(count) * plane,
                                 7.0);
      fill_rhs_planes(planes, nx, first, count);
      const auto begin = full.begin() + static_cast<long>(
                                            static_cast<std::size_t>(first) *
                                            plane);
      ASSERT_TRUE(std::equal(planes.begin(), planes.end(), begin))
          << "planes [" << first << ", " << first + count << ")";
    }
  }
}

TEST(FillRhs, PlaneRangeOutsideTheCubeThrows) {
  const extent_t n = 10;
  std::vector<double> planes(static_cast<std::size_t>(2 * n * n));
  EXPECT_THROW(fill_rhs_planes(planes, 8, 9, 2), ContractError);
  EXPECT_THROW(fill_rhs_planes(planes, 8, -1, 2), ContractError);
  EXPECT_THROW(fill_rhs_planes(planes, 8, 0, 3), ContractError);
}

// -- the right-hand side as an array ------------------------------------------

bool same_bits(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

// The oracle cube's interior, (nx)^3 values.
std::vector<double> interior(const std::vector<double>& cube, extent_t nx) {
  const extent_t n = nx + 2;
  std::vector<double> out;
  for (extent_t i = 1; i <= nx; ++i) {
    for (extent_t j = 1; j <= nx; ++j) {
      const auto row = cube.begin() + (i * n + j) * n;
      out.insert(out.end(), row + 1, row + 1 + nx);
    }
  }
  return out;
}

// rhs_array equals the oracle bit for bit, as the cube (lo 0) and as its
// interior (lo 1), whatever block it lands on: a fresh one (after drain()),
// a recycled one dirtied with NaNs, or one taken with the pool off.  At nx 1
// and 2 every point is a charge; the larger grids have charges on faces and
// edges, whose ghost images lo 0 must write.
TEST(RhsArray, EqualsTheOracleBitForBit) {
  for (const extent_t nx : {1, 2, 3, 8, 32}) {
    const std::vector<double> cube = oracle_rhs(nx);
    const std::vector<double> inner = interior(cube, nx);
    for (const extent_t lo : {0, 1}) {
      const std::vector<double>& want = lo == 0 ? cube : inner;
      const Shape shp = cube_shape(3, nx + 2 - 2 * lo);
      sac::SacConfig cfg = sac::config();
      for (const bool pooled : {true, false}) {
        cfg.pool = pooled;
        sac::ScopedConfig guard(cfg);
        sac::BufferPool::instance().drain();
        const sac::Array<double> fresh = rhs_array(nx, lo);
        ASSERT_EQ(fresh.shape(), shp);
        EXPECT_TRUE(same_bits(fresh.data(), want.data(), want.size()))
            << "nx " << nx << " lo " << lo << " pool " << pooled;
        {
          const sac::Array<double> dirty = sac::genarray_const(
              shp, std::numeric_limits<double>::quiet_NaN());
        }
        const sac::Array<double> recycled = rhs_array(nx, lo);
        EXPECT_TRUE(same_bits(recycled.data(), want.data(), want.size()))
            << "nx " << nx << " lo " << lo << " pool " << pooled
            << " after NaNs";
      }
    }
  }
}

// Pages of [p, p + bytes) that hold memory of their own: present in
// /proc/self/pagemap and mapped by this process alone (bit 56).  A page on
// the kernel's shared zero page is present but not exclusive.  mincore
// counts such a page as resident, and smaps' Rss, which does not, covers
// the whole merged mapping the kernel makes of adjacent anonymous blocks.
std::size_t private_pages(const void* p, std::size_t bytes) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const int fd = ::open("/proc/self/pagemap", O_RDONLY);
  if (fd < 0) return SIZE_MAX;
  const std::uintptr_t first = reinterpret_cast<std::uintptr_t>(p) / page;
  const std::uintptr_t last =
      (reinterpret_cast<std::uintptr_t>(p) + bytes - 1) / page;
  std::size_t n = 0;
  for (std::uintptr_t pg = first; pg <= last; ++pg) {
    std::uint64_t entry = 0;
    if (::pread(fd, &entry, sizeof(entry),
                static_cast<off_t>(pg * sizeof(entry))) != sizeof(entry)) {
      n = SIZE_MAX;
      break;
    }
    if ((entry >> 63 & 1) != 0 && (entry >> 56 & 1) != 0) ++n;
  }
  ::close(fd);
  return n;
}

// On a drained pool the right-hand side's block is a fresh mapping, and
// only the pages holding a charge are written: after a full read at most a
// quarter of the block holds memory of its own.  Both blocks are under
// 2 MiB, so only a huge page spanning a merged neighbour could back one
// (THP `always`).
TEST(RhsArray, WritesOnlyTheChargedPagesOfAFreshBlock) {
  sac::SacConfig cfg = sac::config();
  cfg.pool = true;
  sac::ScopedConfig guard(cfg);
  for (const extent_t lo : {0, 1}) {
    sac::BufferPool::instance().drain();
    const sac::Array<double> v = rhs_array(40, lo);
    const double* d = v.data();
    double charge = 0.0;
    for (extent_t i = 0; i < v.elem_count(); ++i) charge += std::abs(d[i]);
    EXPECT_GE(charge, 20.0);
    const std::size_t bytes =
        static_cast<std::size_t>(v.elem_count()) * sizeof(double);
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t written = private_pages(d, bytes);
    ASSERT_NE(written, SIZE_MAX) << "cannot read /proc/self/pagemap";
    EXPECT_LE(written * page, bytes / 4)
        << "lo " << lo << ": " << written << " of "
        << (bytes + page - 1) / page << " pages written";
  }
}

}  // namespace
}  // namespace sacpp::mg
