// Generator-partition verifier: exact on step/width grids, silent on a
// disjoint tiling, loud on overlaps, gaps and invalid generators.  The
// backend fuzzer diffs every row engine and the nested gather row protocol
// against per-point evaluation.

#include <gtest/gtest.h>

#include "sacpp/check/check.hpp"

namespace sacpp::check {
namespace {

using sac::Gen;

bool has_error(const std::vector<Diagnostic>& ds) {
  for (const Diagnostic& d : ds) {
    if (d.severity == Severity::kError) return true;
  }
  return false;
}

TEST(PartitionVerify, DisjointTilingIsClean) {
  const Shape shp{8, 4};
  std::vector<Gen> gens;
  gens.push_back(Gen{IndexVec{0, 0}, IndexVec{4, 4}, {}, {}});
  gens.push_back(Gen{IndexVec{4, 0}, IndexVec{8, 4}, {}, {}});
  EXPECT_TRUE(verify_partitions(shp, gens, PartitionMode::kTiling).empty());
}

TEST(PartitionVerify, StridedPhasesTileExactly) {
  // Even and odd phases of a step-2 grid partition a vector exactly — the
  // red/black decomposition every strided with-loop relies on.
  const Shape shp{8};
  std::vector<Gen> gens;
  gens.push_back(Gen{IndexVec{0}, IndexVec{8}, IndexVec{2}, IndexVec{1}});
  gens.push_back(Gen{IndexVec{1}, IndexVec{8}, IndexVec{2}, IndexVec{1}});
  EXPECT_TRUE(verify_partitions(shp, gens, PartitionMode::kTiling).empty());
}

TEST(PartitionVerify, OverlapFires) {
  const Shape shp{8};
  std::vector<Gen> gens;
  gens.push_back(Gen{IndexVec{0}, IndexVec{5}, {}, {}});
  gens.push_back(Gen{IndexVec{4}, IndexVec{8}, {}, {}});
  const auto ds = verify_partitions(shp, gens, PartitionMode::kDisjoint);
  ASSERT_TRUE(has_error(ds));
  EXPECT_EQ(ds[0].pass, Pass::kPartitions);
  EXPECT_NE(ds[0].message.find("overlaps partition 0"), std::string::npos);
}

TEST(PartitionVerify, StridedOverlapFires) {
  // Width 2 on step 2 covers everything; the second phase collides.
  const Shape shp{8};
  std::vector<Gen> gens;
  gens.push_back(Gen{IndexVec{0}, IndexVec{8}, IndexVec{2}, IndexVec{2}});
  gens.push_back(Gen{IndexVec{1}, IndexVec{8}, IndexVec{2}, IndexVec{1}});
  EXPECT_TRUE(has_error(verify_partitions(shp, gens, PartitionMode::kDisjoint)));
}

TEST(PartitionVerify, CoverageGapFiresOnlyInTilingMode) {
  const Shape shp{8};
  std::vector<Gen> gens;
  gens.push_back(Gen{IndexVec{0}, IndexVec{3}, {}, {}});
  gens.push_back(Gen{IndexVec{5}, IndexVec{8}, {}, {}});
  EXPECT_TRUE(verify_partitions(shp, gens, PartitionMode::kDisjoint).empty());
  const auto ds = verify_partitions(shp, gens, PartitionMode::kTiling);
  ASSERT_TRUE(has_error(ds));
  EXPECT_NE(ds[0].message.find("not covered"), std::string::npos);
}

TEST(PartitionVerify, InvalidGeneratorFires) {
  const Shape shp{8};
  std::vector<Gen> gens;
  gens.push_back(Gen{IndexVec{0}, IndexVec{9}, {}, {}});  // beyond the shape
  const auto ds = verify_partitions(shp, gens, PartitionMode::kDisjoint);
  ASSERT_TRUE(has_error(ds));
  EXPECT_NE(ds[0].message.find("invalid generator"), std::string::npos);
}

TEST(PartitionVerify, HugeIndexSpaceSkipsWithWarning) {
  const Shape shp{4096, 4096, 4096};
  const auto ds = verify_partitions(shp, {}, PartitionMode::kTiling);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].severity, Severity::kWarning);
}

// -- backend row fuzzer -------------------------------------------------------

TEST(BackendFuzz, RowPrimitivesAndGatherRowsSurviveAdversarialShapes) {
  const BackendFuzzReport stats = fuzz_backend_rows(/*seed=*/1u, /*rounds=*/60);
  EXPECT_GT(stats.rows_checked, 0);
  EXPECT_GT(stats.exprs_checked, 0);
  EXPECT_GT(stats.stencil_chains_checked, 0);
  EXPECT_GT(stats.view_chains_checked, 0);
  EXPECT_GT(stats.scatter_stencils_checked, 0);
  EXPECT_EQ(stats.mismatches, 0);
  EXPECT_EQ(stats.fold_mismatches, 0);
  EXPECT_TRUE(stats.clean());
}

TEST(BackendFuzz, DifferentSeedsStayClean) {
  for (std::uint64_t seed : {3u, 555u, 271828182u}) {
    EXPECT_TRUE(fuzz_backend_rows(seed, 25).clean()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sacpp::check
