#include "sacpp/nasrand/nasrand.hpp"

#include <cmath>

#include "sacpp/common/error.hpp"

namespace sacpp::nasrand {

namespace {

// Split constants: r23 = 2^-23, t23 = 2^23, r46 = 2^-46, t46 = 2^46.
constexpr double r23 = 1.0 / 8388608.0;
constexpr double t23 = 8388608.0;
constexpr double r46 = r23 * r23;
constexpr double t46 = t23 * t23;

// Truncate toward zero, like Fortran AINT on the non-negative values
// appearing here.
inline double aint(double v) { return std::trunc(v); }

}  // namespace

double randlc(double* x, double a) {
  // Break a and x into two 23-bit halves: a = 2^23*a1 + a2, x = 2^23*x1 + x2.
  const double t1a = r23 * a;
  const double a1 = aint(t1a);
  const double a2 = a - t23 * a1;

  const double t1x = r23 * (*x);
  const double x1 = aint(t1x);
  const double x2 = *x - t23 * x1;

  // z = lower 23 bits of (a1*x2 + a2*x1); then combine with a2*x2 and keep
  // the lower 46 bits of the full product.
  const double t1 = a1 * x2 + a2 * x1;
  const double t2 = aint(r23 * t1);
  const double z = t1 - t23 * t2;
  const double t3 = t23 * z + a2 * x2;
  const double t4 = aint(r46 * t3);
  *x = t3 - t46 * t4;
  return r46 * (*x);
}

void vranlc(double* x, double a, std::span<double> out) {
  const double t1a = r23 * a;
  const double a1 = aint(t1a);
  const double a2 = a - t23 * a1;

  double xv = *x;
  for (double& o : out) {
    const double t1x = r23 * xv;
    const double x1 = aint(t1x);
    const double x2 = xv - t23 * x1;
    const double t1 = a1 * x2 + a2 * x1;
    const double t2 = aint(r23 * t1);
    const double z = t1 - t23 * t2;
    const double t3 = t23 * z + a2 * x2;
    const double t4 = aint(r46 * t3);
    xv = t3 - t46 * t4;
    o = r46 * xv;
  }
  *x = xv;
}

double ipow46(double a, std::int64_t exponent) {
  SACPP_REQUIRE(exponent >= 0, "ipow46 exponent must be non-negative");
  // Square-and-multiply entirely in the 46-bit modular domain, using randlc
  // as the modular-product primitive (NPB `power` does the same).
  double result = 1.0;
  double base = a;
  std::int64_t n = exponent;
  while (n > 0) {
    if (n % 2 == 1) {
      randlc(&result, base);  // result <- base * result mod 2^46
    }
    double sq = base;
    randlc(&sq, base);  // sq <- base^2 mod 2^46
    base = sq;
    n /= 2;
  }
  return result;
}

std::uint64_t randlc_exact(std::uint64_t* x, std::uint64_t a) {
  const unsigned __int128 prod =
      static_cast<unsigned __int128>(*x) * static_cast<unsigned __int128>(a);
  *x = static_cast<std::uint64_t>(prod) & kMask46;
  return *x;
}

}  // namespace sacpp::nasrand
