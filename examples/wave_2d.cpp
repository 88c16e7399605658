// 2-D wave equation on a periodic domain — leapfrog time stepping with the
// ghost-free periodic stencil, checkpoint/restore through the binary array
// format, and ASCII rendering.
//
//   $ wave_2d [--size 96] [--steps 240] [--courant 0.4]
//
// The update  u' = 2 u - u_prev + c^2 (L u)  uses the coefficient-class
// Laplacian (centre -4, faces 1) with periodicity inside the kernel — the
// paper's Sec. 7 "direct" style on a non-MG problem.  Half way through,
// the state is checkpointed with sac::save and reloaded, and the run
// asserts the restored trajectory is bitwise identical.

#include <cmath>
#include <cstdio>
#include <string>

#include "sacpp/common/cli.hpp"
#include "sacpp/sac/sac.hpp"

using namespace sacpp;
using sac::Array;

namespace {

// 5-point periodic Laplacian as a coefficient-class stencil (rank 2:
// classes are centre/edge/corner; corners get weight 0).
const sac::StencilCoeffs kLaplace{{-4.0, 1.0, 0.0, 0.0}};

Array<double> step(const Array<double>& u, const Array<double>& u_prev,
                   double c2) {
  // u' = 2u - u_prev + c2 * L u, fused into one traversal
  auto lap = sac::StencilExpr::periodic(u, kLaplace);
  return sac::force(sac::ewise(
      sac::ewise(u, u_prev,
                 [](double a, double b) { return 2.0 * a - b; }),
      std::move(lap), [c2](double lhs, double l) { return lhs + c2 * l; }));
}

void render(const Array<double>& u, extent_t cells) {
  const extent_t n = u.shape().extent(0);
  const char shades[] = " .:-=+*#%@";
  for (extent_t r = 0; r < cells; ++r) {
    for (extent_t c = 0; c < cells; ++c) {
      const double v = u[IndexVec{r * n / cells, c * n / cells}];
      const int s =
          std::min(9, std::max(0, static_cast<int>((v + 1.0) * 5.0)));
      std::putchar(shades[s]);
    }
    std::putchar('\n');
  }
}

double energy(const Array<double>& u, const Array<double>& u_prev) {
  // kinetic + potential proxy: sum((u - u_prev)^2) + sum(|grad u|^2)/2
  auto vel = u - u_prev;
  const double kinetic = sac::dot(vel, vel);
  auto lap = sac::relax_kernel_periodic(u, kLaplace);
  return kinetic - 0.5 * sac::dot(u, lap);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_option("size", "96", "grid points per side (power of two)");
  cli.add_option("steps", "240", "leapfrog steps");
  cli.add_option("courant", "0.4", "Courant number c*dt/dx (stable < 0.5)");
  cli.add_option("checkpoint", "/tmp/wave_checkpoint",
                 "checkpoint file prefix");
  if (!cli.parse(argc, argv)) return 1;

  const extent_t n = cli.get_int("size");
  const int steps = static_cast<int>(cli.get_int("steps"));
  const double c2 = cli.get_double("courant") * cli.get_double("courant");
  const Shape shp{n, n};

  // initial condition: a Gaussian bump, at rest
  Array<double> u = sac::with_genarray<double>(shp, [&](const IndexVec& iv) {
    const double dy = static_cast<double>(iv[0]) - 0.5 * static_cast<double>(n);
    const double dx = static_cast<double>(iv[1]) - 0.5 * static_cast<double>(n);
    return std::exp(-(dx * dx + dy * dy) / (0.01 * static_cast<double>(n * n)));
  });
  Array<double> u_prev = u;

  std::printf("2-D periodic wave equation, %lldx%lld, %d steps\n\n",
              static_cast<long long>(n), static_cast<long long>(n), steps);
  std::printf("t = 0:\n");
  render(u, 24);
  const double e0 = energy(u, u_prev);

  const std::string ck = cli.get("checkpoint");
  const int half = steps / 2;
  for (int t = 0; t < half; ++t) {
    Array<double> next = step(u, u_prev, c2);
    u_prev = std::move(u);
    u = std::move(next);
  }

  // checkpoint, keep going, then restore and replay to verify determinism
  sac::save(ck + "_u.arr", u);
  sac::save(ck + "_prev.arr", u_prev);
  Array<double> u_cont = u, prev_cont = u_prev;
  for (int t = half; t < steps; ++t) {
    Array<double> next = step(u_cont, prev_cont, c2);
    prev_cont = std::move(u_cont);
    u_cont = std::move(next);
  }
  Array<double> u_re = sac::load(ck + "_u.arr");
  Array<double> prev_re = sac::load(ck + "_prev.arr");
  for (int t = half; t < steps; ++t) {
    Array<double> next = step(u_re, prev_re, c2);
    prev_re = std::move(u_re);
    u_re = std::move(next);
  }
  double max_dev = 0.0;
  for (extent_t i = 0; i < u_cont.elem_count(); ++i) {
    max_dev = std::max(max_dev,
                       std::abs(u_cont.at_linear(i) - u_re.at_linear(i)));
  }

  std::printf("\nt = %d:\n", steps);
  render(u_cont, 24);
  // crude diagnostic: the bump disperses but the (unstaggered) energy
  // proxy must stay bounded — an exploding scheme would blow it up
  const double drift = std::abs(energy(u_cont, prev_cont) - e0) / e0;
  std::printf("\nenergy-proxy change: %.3f (stable run: O(1); unstable: "
              "explodes)\n",
              drift);
  std::printf("checkpoint replay deviation: %.1e (must be 0)\n", max_dev);
  std::remove((ck + "_u.arr").c_str());
  std::remove((ck + "_prev.arr").c_str());
  return max_dev == 0.0 ? 0 : 1;
}
