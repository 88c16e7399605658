// Poisson solver: use the rank-generic multigrid as a library component.
//
//   $ poisson_solver [--size 64] [--rank 3] [--iterations 6]
//
// Solves del^2 u = v with periodic boundaries for a user-chosen right-hand
// side (a dipole pair of smooth Gaussian charges rather than the NAS +-1
// point charges), in any rank — the paper's "reusable for grids of any
// dimension without alteration" claim exercised as an application.

#include <cmath>
#include <cstdio>

#include "sacpp/common/cli.hpp"
#include "sacpp/mg/mg_sac.hpp"
#include "sacpp/sac/sac.hpp"

using namespace sacpp;
using sac::Array;

namespace {

// Smooth dipole: a positive and a negative Gaussian blob, with the mean
// removed so the periodic Poisson problem is solvable.
Array<double> make_rhs(const Shape& shp) {
  const double n = static_cast<double>(shp.extent(0) - 2);
  auto v = sac::with_genarray<double>(shp, [&](const IndexVec& iv) {
    double d_plus = 0.0, d_minus = 0.0;
    for (std::size_t d = 0; d < iv.size(); ++d) {
      const double x = static_cast<double>(iv[d] - 1) / n;  // in [0, 1)
      const double p = x - 0.3, m = x - 0.7;
      d_plus += p * p;
      d_minus += m * m;
    }
    const double sigma2 = 0.01;
    return std::exp(-d_plus / sigma2) - std::exp(-d_minus / sigma2);
  });
  // remove the mean over the interior so a periodic solution exists
  const Shape& s = v.shape();
  double interior = 1.0;
  for (std::size_t d = 0; d < s.rank(); ++d) {
    interior *= static_cast<double>(s.extent(d) - 2);
  }
  const double mean =
      sac::with_fold(std::plus<>{}, 0.0, s, sac::gen_interior(s),
                     [&](const IndexVec& iv) { return v[iv]; }) /
      interior;
  Array<double> prev = v;  // shared handle: the body reads the old values
  v = sac::with_modarray(std::move(v), sac::gen_interior(s),
                         [uc = std::move(prev), mean](const IndexVec& iv) {
                           return uc[iv] - mean;
                         });
  return mg::MgSac::setup_periodic_border(std::move(v));
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_option("size", "64", "interior grid points per dimension (2^k)");
  cli.add_option("rank", "3", "problem dimensionality (1, 2 or 3)");
  cli.add_option("iterations", "6", "V-cycle iterations");
  if (!cli.parse(argc, argv)) return 1;

  const extent_t nx = cli.get_int("size");
  const auto rank = static_cast<std::size_t>(cli.get_int("rank"));
  const int iters = static_cast<int>(cli.get_int("iterations"));

  const mg::MgSpec spec = mg::MgSpec::custom(nx, iters);
  mg::MgSac solver(spec);
  const Shape shp = cube_shape(rank, nx + 2);

  std::printf("Poisson del^2 u = v on a %lld^%zu periodic grid, %d V-cycles\n",
              static_cast<long long>(nx), rank, iters);

  const Array<double> v = make_rhs(shp);
  Array<double> u = sac::genarray_const(shp, 0.0);
  std::printf("  %-10s %-14s %s\n", "iteration", "residual norm",
              "contraction");
  double prev = solver.residual_norm(v, u);
  std::printf("  %-10d %-14.6e %s\n", 0, prev, "-");
  for (int it = 1; it <= iters; ++it) {
    Array<double> r = solver.residual(v, u);
    u = solver.add_vcycle(std::move(u), std::move(r));
    const double norm = solver.residual_norm(v, u);
    std::printf("  %-10d %-14.6e %.1fx\n", it, norm, prev / norm);
    prev = norm;
  }

  // physical sanity: the solution is anti-symmetric under swapping the two
  // charge centres, so its interior mean is ~0
  const Shape& s = u.shape();
  double interior = 1.0;
  for (std::size_t d = 0; d < s.rank(); ++d) {
    interior *= static_cast<double>(s.extent(d) - 2);
  }
  const double mean =
      sac::with_fold(std::plus<>{}, 0.0, s, sac::gen_interior(s),
                     [&](const IndexVec& iv) { return u[iv]; }) /
      interior;
  std::printf("solution interior mean: %.3e (should be ~0)\n", mean);
  std::printf("solution max |u|:        %.6e\n", sac::max_abs(u));
  return 0;
}
