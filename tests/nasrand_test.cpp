// The NAS pseudo-random generator: the double-precision randlc port and the
// integer lcg46_step are validated against an exact 128-bit integer
// implementation, and the sequence-jumping (ipow46) against step-by-step
// generation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "sacpp/common/error.hpp"
#include "sacpp/nasrand/nasrand.hpp"

namespace sacpp::nasrand {
namespace {

constexpr double kTwoPow46 = 70368744177664.0;  // 2^46

TEST(Randlc, MatchesExactIntegerImplementation) {
  double x = kDefaultSeed;
  std::uint64_t xi = static_cast<std::uint64_t>(kDefaultSeed);
  const auto ai = static_cast<std::uint64_t>(kDefaultMultiplier);
  for (int i = 0; i < 20000; ++i) {
    const double r = randlc(&x, kDefaultMultiplier);
    const std::uint64_t e = randlc_exact(&xi, ai);
    ASSERT_EQ(static_cast<std::uint64_t>(x), e) << "diverged at step " << i;
    ASSERT_DOUBLE_EQ(r, static_cast<double>(e) / kTwoPow46);
  }
}

TEST(Lcg46Step, EqualsRandlcAndExactForAMillionSteps) {
  const auto a = static_cast<std::uint64_t>(kDefaultMultiplier);
  auto x = static_cast<std::uint64_t>(kDefaultSeed);
  std::uint64_t xe = x;
  double xd = kDefaultSeed;
  for (int i = 0; i < 1'000'000; ++i) {
    x = lcg46_step(x, a);
    const double r = randlc(&xd, kDefaultMultiplier);
    ASSERT_EQ(x, randlc_exact(&xe, a)) << "diverged at step " << i;
    ASSERT_EQ(static_cast<double>(x), xd) << "diverged at step " << i;
    ASSERT_EQ(static_cast<double>(x) / kTwoPow46, r);
  }
}

// Stepping with a jump multiplier a^k from ipow46 lands where k single
// steps do, for the integer step, randlc and the exact product alike.
TEST(Lcg46Step, JumpsEqualStepwiseAdvance) {
  const auto a = static_cast<std::uint64_t>(kDefaultMultiplier);
  const auto seed = static_cast<std::uint64_t>(kDefaultSeed);
  std::uint64_t stepped = seed;
  std::int64_t done = 0;
  for (const std::int64_t k : {1, 2, 3, 64, 4097, 65536, 262144, 1 << 20}) {
    for (; done < k; ++done) stepped = lcg46_step(stepped, a);
    const double ak = ipow46(kDefaultMultiplier, k);
    const auto aki = static_cast<std::uint64_t>(ak);
    EXPECT_EQ(lcg46_step(seed, aki), stepped) << "k = " << k;
    std::uint64_t xe = seed;
    EXPECT_EQ(randlc_exact(&xe, aki), stepped) << "k = " << k;
    double xd = kDefaultSeed;
    randlc(&xd, ak);
    EXPECT_EQ(static_cast<std::uint64_t>(xd), stepped) << "k = " << k;
  }
}

TEST(Lcg46Step, WrapsOnlyAbove46Bits) {
  // Largest operands: the 92-bit product overflows 64 bits, the low 46
  // bits must still match the exact product.
  std::uint64_t x = kMask46;
  const std::uint64_t a = kMask46 - 2;
  const std::uint64_t expect = randlc_exact(&x, a);
  EXPECT_EQ(lcg46_step(kMask46, a), expect);
}

TEST(Randlc, DeviatesAreInOpenUnitInterval) {
  double x = kDefaultSeed;
  for (int i = 0; i < 10000; ++i) {
    const double r = randlc(&x, kDefaultMultiplier);
    ASSERT_GT(r, 0.0);
    ASSERT_LT(r, 1.0);
  }
}

TEST(Randlc, StateIsA46BitInteger) {
  double x = kDefaultSeed;
  for (int i = 0; i < 1000; ++i) {
    randlc(&x, kDefaultMultiplier);
    ASSERT_EQ(x, std::floor(x));
    ASSERT_LT(x, kTwoPow46);
    ASSERT_GE(x, 0.0);
  }
}

TEST(Randlc, SequenceIsDeterministic) {
  double x1 = kDefaultSeed, x2 = kDefaultSeed;
  for (int i = 0; i < 100; ++i) {
    ASSERT_DOUBLE_EQ(randlc(&x1, kDefaultMultiplier),
                     randlc(&x2, kDefaultMultiplier));
  }
}

TEST(Vranlc, EqualsRepeatedRandlc) {
  double xs = kDefaultSeed;
  std::vector<double> scalar(257);
  for (double& v : scalar) v = randlc(&xs, kDefaultMultiplier);

  double xv = kDefaultSeed;
  std::vector<double> vec(257);
  vranlc(&xv, kDefaultMultiplier, vec);

  EXPECT_EQ(xs, xv);  // identical final state
  for (std::size_t i = 0; i < vec.size(); ++i) {
    ASSERT_DOUBLE_EQ(vec[i], scalar[i]);
  }
}

TEST(Vranlc, EmptySpanLeavesStateUntouched) {
  double x = kDefaultSeed;
  vranlc(&x, kDefaultMultiplier, {});
  EXPECT_DOUBLE_EQ(x, kDefaultSeed);
}

TEST(Ipow46, PowerZeroIsOne) {
  EXPECT_DOUBLE_EQ(ipow46(kDefaultMultiplier, 0), 1.0);
}

TEST(Ipow46, PowerOneIsMultiplier) {
  EXPECT_DOUBLE_EQ(ipow46(kDefaultMultiplier, 1), kDefaultMultiplier);
}

class IpowJump : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(IpowJump, JumpEqualsStepwiseAdvance) {
  const std::int64_t steps = GetParam();
  // stepwise
  double xs = kDefaultSeed;
  for (std::int64_t i = 0; i < steps; ++i) randlc(&xs, kDefaultMultiplier);
  // jump
  NasRandom rng;
  rng.jump(steps);
  EXPECT_DOUBLE_EQ(rng.state(), xs);
}

INSTANTIATE_TEST_SUITE_P(Jumps, IpowJump,
                         ::testing::Values<std::int64_t>(1, 2, 3, 7, 64, 100,
                                                         1000, 4097, 65536));

TEST(Ipow46, CompositionOfJumps) {
  // a^(m+n) applied once == a^m then a^n.
  NasRandom once;
  once.jump(300);
  NasRandom twice;
  twice.jump(113);
  twice.jump(187);
  EXPECT_DOUBLE_EQ(once.state(), twice.state());
}

TEST(NasRandom, FillMatchesNext) {
  NasRandom a, b;
  std::vector<double> buf(64);
  a.fill(buf);
  for (double v : buf) ASSERT_DOUBLE_EQ(v, b.next());
}

TEST(NasRandom, MeanOfDeviatesIsNearHalf) {
  NasRandom rng;
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next();
  EXPECT_NEAR(sum / n, 0.5, 5e-3);
}

TEST(NasRandom, NoShortCycle) {
  // The generator has period 2^44; the state must not repeat quickly.
  NasRandom rng;
  const double first = rng.next();
  for (int i = 0; i < 10000; ++i) {
    ASSERT_NE(rng.next(), first);
  }
}

TEST(Ipow46, NegativeExponentRejected) {
  EXPECT_THROW(ipow46(kDefaultMultiplier, -1), sacpp::ContractError);
}

}  // namespace
}  // namespace sacpp::nasrand
