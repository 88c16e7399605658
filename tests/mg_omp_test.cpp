// The C/OpenMP port: kernels must equal the Fortran reference port
// bit-for-bit (identical arithmetic, different parallel decoration), under
// any team size.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sacpp/mg/mg_omp.hpp"
#include "sacpp/mg/mg_ref.hpp"
#include "sacpp/mg/problem.hpp"

namespace sacpp::mg {
namespace {

std::vector<double> random_cube(extent_t n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> a(static_cast<std::size_t>(n * n * n));
  for (double& x : a) x = dist(rng);
  periodic_border_3d(a, n);
  return a;
}

class OmpKernels : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { MgOmp::omp_threads(GetParam()); }
  void TearDown() override { MgOmp::omp_threads(1); }
  MgSpec spec_ = MgSpec::for_class(MgClass::S);
  MgRef ref_{spec_};
  MgOmp omp_{spec_};
};

TEST_P(OmpKernels, ResidBitwiseEqualsReference) {
  const extent_t n = 18;
  auto u = random_cube(n, 1);
  auto v = random_cube(n, 2);
  std::vector<double> r_ref(u.size(), 0.0), r_omp(u.size(), 0.0);
  ref_.kernel_resid(u.data(), v.data(), r_ref.data(), n);
  omp_.kernel_resid(u.data(), v.data(), r_omp.data(), n);
  for (std::size_t i = 0; i < r_ref.size(); ++i) {
    ASSERT_EQ(r_omp[i], r_ref[i]) << i;
  }
}

TEST_P(OmpKernels, PsinvBitwiseEqualsReference) {
  const extent_t n = 18;
  auto r = random_cube(n, 3);
  auto u = random_cube(n, 4);
  std::vector<double> u_ref = u, u_omp = u;
  ref_.kernel_psinv(r.data(), u_ref.data(), n);
  omp_.kernel_psinv(r.data(), u_omp.data(), n);
  for (std::size_t i = 0; i < u_ref.size(); ++i) {
    ASSERT_EQ(u_omp[i], u_ref[i]) << i;
  }
}

TEST_P(OmpKernels, Rprj3BitwiseEqualsReference) {
  const extent_t nf = 18, nc = 10;
  auto rf = random_cube(nf, 5);
  std::vector<double> c_ref(static_cast<std::size_t>(nc * nc * nc), 0.0);
  std::vector<double> c_omp = c_ref;
  ref_.kernel_rprj3(rf.data(), nf, c_ref.data(), nc);
  omp_.kernel_rprj3(rf.data(), nf, c_omp.data(), nc);
  for (std::size_t i = 0; i < c_ref.size(); ++i) {
    ASSERT_EQ(c_omp[i], c_ref[i]) << i;
  }
}

TEST_P(OmpKernels, InterpBitwiseEqualsReference) {
  const extent_t nf = 18, nc = 10;
  auto zc = random_cube(nc, 6);
  std::vector<double> f_ref(static_cast<std::size_t>(nf * nf * nf), 0.25);
  std::vector<double> f_omp = f_ref;
  ref_.kernel_interp(zc.data(), nc, f_ref.data(), nf);
  omp_.kernel_interp(zc.data(), nc, f_omp.data(), nf);
  for (std::size_t i = 0; i < f_ref.size(); ++i) {
    ASSERT_EQ(f_omp[i], f_ref[i]) << i;
  }
}

// A team of 3 splits the 16 interior planes unevenly.
INSTANTIATE_TEST_SUITE_P(Teams, OmpKernels, ::testing::Values(1, 2, 3, 4));

TEST(OmpEndToEnd, FullRunEqualsReferenceRun) {
  const MgSpec spec = MgSpec::custom(16, 3);
  MgRef ref(spec);
  MgOmp omp(spec);
  ref.setup_default_rhs();
  omp.setup_default_rhs();
  ref.zero_u();
  omp.zero_u();
  ref.initial_resid();
  omp.initial_resid();
  for (int it = 0; it < 3; ++it) {
    ref.iterate(1);
    omp.iterate(1);
    ASSERT_DOUBLE_EQ(omp.residual_norm(), ref.residual_norm())
        << "iteration " << it;
  }
}

TEST(OmpEndToEnd, TeamSizeDoesNotChangeResults) {
  const MgSpec spec = MgSpec::custom(16, 2);
  auto run_with = [&](int threads) {
    MgOmp::omp_threads(threads);
    MgOmp solver(spec);
    solver.setup_default_rhs();
    solver.zero_u();
    solver.initial_resid();
    solver.iterate(2);
    MgOmp::omp_threads(1);
    return solver.residual_norm();
  };
  const double t1 = run_with(1);
  const double t4 = run_with(4);
  EXPECT_DOUBLE_EQ(t1, t4);
}

TEST(OmpEndToEnd, ReportsOpenMpAvailability) {
  // informational: the container toolchain decides this; both values legal
  const bool avail = MgOmp::openmp_available();
  SUCCEED() << "OpenMP available: " << avail;
}

}  // namespace
}  // namespace sacpp::mg
