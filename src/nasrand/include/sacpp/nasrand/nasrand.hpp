#pragma once
// The NAS Parallel Benchmarks pseudo-random number generator.
//
// NPB generates its input data with the linear congruential generator
//
//   x_{k+1} = a * x_k  (mod 2^46),   r_k = x_k * 2^-46
//
// with a = 5^13 = 1220703125 and seed x_0 = 314159265.  The reference
// implementation (randlc/vranlc in the NPB Fortran sources) performs the
// 46-bit modular product in double precision by splitting operands into
// 23-bit halves; we reproduce that algorithm bit-exactly so the MG input
// field matches the benchmark definition.  lcg46_step is the same step on an
// integer state, which MG's streaming charge scan uses, and randlc_exact an
// independent 128-bit implementation the tests validate both against.
//
// References: Bailey et al., "The NAS Parallel Benchmarks", RNR-94-007.

#include <cstdint>
#include <span>

namespace sacpp::nasrand {

// Default multiplier and seed used by all NPB kernels.
inline constexpr double kDefaultMultiplier = 1220703125.0;  // 5^13
inline constexpr double kDefaultSeed = 314159265.0;

// Advance *x once (x <- a*x mod 2^46) and return the uniform deviate
// x * 2^-46 in (0, 1).  Port of NPB randlc.
double randlc(double* x, double a);

// Fill `out` with the next out.size() deviates, advancing *x accordingly.
// Port of NPB vranlc; equivalent to calling randlc in a loop but kept
// separate because NPB fills MG's input field row-wise with it.
void vranlc(double* x, double a, std::span<double> out);

// a^exponent mod 2^46, as a double holding the 46-bit integer result.
// Used to jump the sequence to an arbitrary offset (NPB `power`).
double ipow46(double a, std::int64_t exponent);

// Exact reference implementation on 128-bit integers (tests only; the
// benchmarks use the double-precision port above).
std::uint64_t randlc_exact(std::uint64_t* x, std::uint64_t a);

inline constexpr std::uint64_t kMask46 = (std::uint64_t{1} << 46) - 1;

// One generator step on an integer state: a * x mod 2^46 for a, x < 2^46,
// bit-identical to randlc on the same values (the deviate is x * 2^-46).
// The unsigned 64-bit product wraps mod 2^64, and because 2^46 divides 2^64
// its low 46 bits are those of the exact 92-bit product, so one multiply
// and one mask replace randlc's split into 23-bit halves.
constexpr std::uint64_t lcg46_step(std::uint64_t x, std::uint64_t a) {
  return (x * a) & kMask46;
}

// Convenience stateful wrapper around randlc with sequence jumping.
class NasRandom {
 public:
  explicit NasRandom(double seed = kDefaultSeed,
                     double multiplier = kDefaultMultiplier)
      : x_(seed), a_(multiplier) {}

  // Next uniform deviate in (0, 1).
  double next() { return randlc(&x_, a_); }

  // Fill a span with consecutive deviates.
  void fill(std::span<double> out) { vranlc(&x_, a_, out); }

  // Jump the state forward by `count` steps in O(log count).
  void jump(std::int64_t count) {
    const double an = ipow46(a_, count);
    randlc(&x_, an);  // x <- an * x mod 2^46 (discard the deviate)
  }

  // Raw 46-bit state (as a double-held integer).
  double state() const { return x_; }

 private:
  double x_;
  double a_;
};

}  // namespace sacpp::nasrand
