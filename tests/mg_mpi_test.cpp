// Distributed MG: the slab-decomposed message-passing implementation must
// reproduce the serial reference norms for any power-of-two rank count,
// including the gather-to-root coarse tail.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "sacpp/mg/mg_mpi.hpp"
#include "sacpp/mg/mg_ref.hpp"
#include "sacpp/mg/problem.hpp"

namespace sacpp::mg {
namespace {

std::vector<double> serial_norms(const MgSpec& spec, int nit) {
  MgRef ref(spec);
  ref.setup_default_rhs();
  ref.zero_u();
  ref.initial_resid();
  std::vector<double> norms;
  for (int it = 0; it < nit; ++it) {
    ref.iterate(1);
    norms.push_back(ref.residual_norm());
  }
  return norms;
}

class MpiRanks : public ::testing::TestWithParam<int> {};

TEST_P(MpiRanks, NormsMatchSerialReferenceEveryIteration) {
  const int ranks = GetParam();
  const MgSpec spec = MgSpec::custom(16, 3);
  const auto serial = serial_norms(spec, 3);

  MgMpi mpi(spec, ranks);
  const MgMpi::Result res = mpi.run(3, /*warmup=*/false);
  ASSERT_EQ(res.norms.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_NEAR(res.norms[i], serial[i], serial[i] * 1e-12 + 1e-18)
        << "ranks=" << ranks << " iteration " << i;
  }
}

TEST_P(MpiRanks, ClassSVerificationValue) {
  const int ranks = GetParam();
  const MgSpec spec = MgSpec::for_class(MgClass::S);
  MgMpi mpi(spec, ranks);
  const MgMpi::Result res = mpi.run(spec.nit, /*warmup=*/false);
  EXPECT_NEAR(res.final_norm, 0.530770700573e-04, 1e-13) << "ranks=" << ranks;
}

// Each rank builds only its slab of the right-hand side; halos included,
// the slabs must be the matching planes of the whole extended cube.
TEST_P(MpiRanks, ClassSRhsSlabsEqualPlanesOfTheFullRhs) {
  const int ranks = GetParam();
  const MgSpec spec = MgSpec::for_class(MgClass::S);
  const extent_t n = spec.nx + 2;
  const extent_t m = spec.nx / ranks;
  std::vector<double> full(static_cast<std::size_t>(n * n * n));
  fill_rhs(full, spec.nx);

  const MgMpi mpi(spec, ranks);
  const auto plane = static_cast<std::size_t>(n * n);
  for (int rank = 0; rank < ranks; ++rank) {
    const std::vector<double> slab = mpi.rhs_slab(rank);
    ASSERT_EQ(slab.size(), static_cast<std::size_t>(m + 2) * plane);
    const auto begin = full.begin() + static_cast<long>(
                                          static_cast<std::size_t>(rank * m) *
                                          plane);
    EXPECT_TRUE(std::equal(slab.begin(), slab.end(), begin))
        << "rank " << rank << " of " << ranks;
  }
}

// The in-process traffic of a class-S solve's timed section, pinned: halo
// planes, the coarse tail's gather/scatter, and the collectives (barrier and
// allreduce tokens stay out of messages and bytes; one barrier per
// Comm::barrier, one reduction per norm).
TEST_P(MpiRanks, ClassSTrafficIsPinned) {
  const int ranks = GetParam();
  struct Traffic {
    std::uint64_t messages, bytes;
  };
  const Traffic want = ranks == 1   ? Traffic{144, 415'744}
                       : ranks == 2 ? Traffic{288, 831'488}
                                    : Traffic{472, 1'643'264};
  const MgSpec spec = MgSpec::for_class(MgClass::S);
  const msg::WorldStats got = MgMpi(spec, ranks).run(spec.nit).comm;
  EXPECT_EQ(got.messages, want.messages) << "ranks=" << ranks;
  EXPECT_EQ(got.bytes, want.bytes) << "ranks=" << ranks;
  EXPECT_EQ(got.reductions, 4u) << "ranks=" << ranks;
  EXPECT_EQ(got.barriers, 5u) << "ranks=" << ranks;
}

INSTANTIATE_TEST_SUITE_P(Ranks, MpiRanks, ::testing::Values(1, 2, 4));

TEST(MgMpi, EightRanksOnClassS) {
  // Deeper coarse tail (kd = 3): three serial levels under five distributed.
  const MgSpec spec = MgSpec::for_class(MgClass::S);
  MgMpi mpi(spec, 8);
  const MgMpi::Result res = mpi.run(spec.nit, /*warmup=*/false);
  EXPECT_NEAR(res.final_norm, 0.530770700573e-04, 1e-13);
}

TEST(MgMpi, WarmupDoesNotChangeNorms) {
  const MgSpec spec = MgSpec::custom(16, 2);
  MgMpi mpi(spec, 2);
  const auto with = mpi.run(2, /*warmup=*/true);
  const auto without = mpi.run(2, /*warmup=*/false);
  ASSERT_EQ(with.norms.size(), without.norms.size());
  for (std::size_t i = 0; i < with.norms.size(); ++i) {
    EXPECT_DOUBLE_EQ(with.norms[i], without.norms[i]);
  }
}

TEST(MgMpi, CommunicationVolumeScalesWithRanks) {
  const MgSpec spec = MgSpec::custom(16, 1);
  const auto r2 = MgMpi(spec, 2).run(1, false);
  const auto r4 = MgMpi(spec, 4).run(1, false);
  EXPECT_GT(r2.comm.messages, 0u);
  EXPECT_GT(r4.comm.messages, r2.comm.messages);
  EXPECT_GT(r2.comm.bytes, 0u);
  // per-rank halo volume stays a plane, so total bytes grow with ranks
  EXPECT_GT(r4.comm.bytes, r2.comm.bytes);
}

TEST(MgMpi, SingleRankHasOnlySelfMessages) {
  const MgSpec spec = MgSpec::custom(8, 1);
  const auto res = MgMpi(spec, 1).run(1, false);
  EXPECT_GT(res.comm.messages, 0u);  // self-exchange of halo planes
  EXPECT_GT(res.final_norm, 0.0);
}

TEST(MgMpi, InvalidConfigurationsRejected) {
  const MgSpec spec = MgSpec::custom(8, 1);
  EXPECT_THROW(MgMpi(spec, 3), ContractError);   // not a power of two
  EXPECT_THROW(MgMpi(spec, 8), ContractError);   // fewer than 2 planes/rank
  (void)MgMpi(spec, 4);                          // boundary case is fine
}

}  // namespace
}  // namespace sacpp::mg
