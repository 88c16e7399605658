// Runtime checkers: the alias/uniqueness pass flags raw writes to shared
// buffers and allocation imbalance, the race detector flags overlapping or
// gapped worker intervals and foreign ownership traffic — and both stay
// silent on correct runs, including real multi-threaded with-loops.

#include <gtest/gtest.h>

#include <thread>

#include "sacpp/check/check.hpp"
#include "sacpp/sac/check_events.hpp"
#include "sacpp/sac/sac.hpp"

namespace sacpp::check {
namespace {

namespace cd = sac::check_detail;

using sac::Array;

// -- alias / uniqueness -------------------------------------------------------

TEST(AliasCheck, SharedInPlaceWriteFires) {
  Session s;
  {
    Array<double> a(Shape{8}, 1.0);
    Array<double> b = a;  // refcount 2: a raw write is visible through b
    a.raw_data_unchecked()[0] = 5.0;
    EXPECT_DOUBLE_EQ(b.at_linear(0), 5.0);  // the aliasing really happened
  }
  DiagnosticEngine& e = s.finish();
  ASSERT_GE(e.count(Pass::kAlias), 1u);
  EXPECT_NE(e.diagnostics()[0].message.find("use-after-steal"),
            std::string::npos);
}

TEST(AliasCheck, CopyOnWritePathIsSilent) {
  Session s;
  {
    Array<double> a(Shape{8}, 1.0);
    Array<double> b = a;
    b.mutable_data()[0] = 5.0;  // COW: unshares first
    EXPECT_DOUBLE_EQ(a.at_linear(0), 1.0);
    a.raw_data_unchecked()[2] = 3.0;  // now unique again: legitimate
  }
  EXPECT_TRUE(s.finish().empty()) << s.engine().to_ascii();
}

TEST(AliasCheck, SelfAssignAndMovesStayBalanced) {
  Session s;
  {
    Array<double> a(Shape{16}, 2.0);
    Array<double>& alias = a;
    a = alias;  // self-assignment must not double-release
    Array<double> b = std::move(a);
    Array<double> c(Shape{4}, 0.0);
    c = std::move(b);
    EXPECT_DOUBLE_EQ(c.at_linear(0), 2.0);
  }
  EXPECT_TRUE(s.finish().empty()) << s.engine().to_ascii();
}

TEST(AliasCheck, LeakedBufferFires) {
  auto* leaked = new Array<double>(Shape{4}, 0.0);
  {
    Session s;
    DiagnosticEngine& e = s.finish();
    // Session balance is delta-based: the pre-existing allocation does not
    // count, so the engine is clean...
    EXPECT_TRUE(e.empty());
  }
  Session s2;
  auto* second = new Array<double>(Shape{4}, 0.0);
  DiagnosticEngine& e2 = s2.finish();
  // ... but one allocated inside the session without a release does.
  ASSERT_EQ(e2.count(Pass::kAlias), 1u);
  EXPECT_NE(e2.diagnostics()[0].message.find("never released"),
            std::string::npos);
  delete second;
  delete leaked;
}

TEST(AliasCheck, BalanceAnalysisDirections) {
  // Direct unit check of the analysis itself, both signs.
  EXPECT_TRUE(analyze_allocation_balance(cd::live_buffer_count()).empty());
  const auto leak = analyze_allocation_balance(cd::live_buffer_count() - 2);
  ASSERT_EQ(leak.size(), 1u);
  EXPECT_NE(leak[0].message.find("never released"), std::string::npos);
  const auto over = analyze_allocation_balance(cd::live_buffer_count() + 1);
  ASSERT_EQ(over.size(), 1u);
  EXPECT_NE(over[0].message.find("freed twice"), std::string::npos);
}

// -- parallel-region race detection ------------------------------------------

TEST(RaceCheck, DisjointChunksAreSilent) {
  Session s;
  const std::uint64_t r = cd::begin_parallel_region(0, 100, 1);
  cd::record_chunk(r, 0, 0, 50, /*write=*/true);
  cd::record_chunk(r, 1, 50, 100, /*write=*/true);
  cd::end_parallel_region();
  EXPECT_TRUE(s.finish().empty()) << s.engine().to_ascii();
}

TEST(RaceCheck, WriteWriteOverlapFires) {
  Session s;
  const std::uint64_t r = cd::begin_parallel_region(0, 100, 1);
  cd::record_chunk(r, 0, 0, 60, /*write=*/true);
  cd::record_chunk(r, 1, 50, 100, /*write=*/true);
  cd::end_parallel_region();
  DiagnosticEngine& e = s.finish();
  ASSERT_GE(e.count(Pass::kRace), 1u);
  EXPECT_NE(e.diagnostics()[0].message.find("write/write overlap"),
            std::string::npos);
}

TEST(RaceCheck, ReadWriteOverlapFiresButSharedReadsDoNot) {
  Session s;
  const std::uint64_t r = cd::begin_parallel_region(0, 100, 1);
  cd::record_chunk(r, 0, 0, 100, /*write=*/false);   // shared read
  cd::record_chunk(r, 1, 0, 100, /*write=*/false);   // shared read: fine
  cd::record_chunk(r, 2, 0, 50, /*write=*/true);     // writes under a read
  cd::record_chunk(r, 2, 50, 100, /*write=*/true);   // same worker: fine
  cd::end_parallel_region();
  DiagnosticEngine& e = s.finish();
  std::size_t read_write = 0;
  for (const Diagnostic& d : e.diagnostics()) {
    if (d.message.find("read/write overlap") != std::string::npos) {
      ++read_write;
    }
    EXPECT_EQ(d.message.find("write/write"), std::string::npos) << d.message;
  }
  // Each of the two readers collides with each of the writer's two chunks.
  EXPECT_EQ(read_write, 4u);
}

TEST(RaceCheck, CoverageGapFires) {
  Session s;
  const std::uint64_t r = cd::begin_parallel_region(0, 100, 1);
  cd::record_chunk(r, 0, 0, 40, /*write=*/true);
  cd::record_chunk(r, 1, 60, 100, /*write=*/true);
  cd::end_parallel_region();
  DiagnosticEngine& e = s.finish();
  ASSERT_GE(e.count(Pass::kRace), 1u);
  EXPECT_NE(e.to_ascii().find("[40, 60) is assigned to no worker"),
            std::string::npos);
}

TEST(RaceCheck, MisalignedChunkStartFires) {
  Session s;
  const std::uint64_t r = cd::begin_parallel_region(0, 96, /*align=*/4);
  cd::record_chunk(r, 0, 0, 50, /*write=*/true);   // 50 is not a multiple of 4
  cd::record_chunk(r, 1, 50, 96, /*write=*/true);
  cd::end_parallel_region();
  DiagnosticEngine& e = s.finish();
  ASSERT_GE(e.count(Pass::kRace), 1u);
  EXPECT_NE(e.to_ascii().find("not aligned"), std::string::npos);
}

TEST(RaceCheck, RealParallelWithLoopIsSilent) {
  Session s;
  {
    sac::SacConfig cfg = sac::config();
    cfg.mt_threads = 4;
    cfg.mt_threshold = 1;  // force the MT path even for small arrays
    sac::ScopedConfig scoped(cfg);
    const Shape shp{64, 8};
    Array<double> a = sac::with_genarray<double>(shp, [&](const IndexVec& iv) {
      return static_cast<double>(shp.linearize(iv));
    });
    Array<double> b = sac::with_genarray<double>(shp, [&](const IndexVec& iv) {
      return 2.0 * static_cast<double>(shp.linearize(iv));
    });
    EXPECT_DOUBLE_EQ(b.at_linear(100), 2.0 * a.at_linear(100));
  }
  DiagnosticEngine& e = s.finish();
  EXPECT_TRUE(e.empty()) << e.to_ascii();
  EXPECT_FALSE(cd::ownership_watch());  // disarmed after the regions ended
}

TEST(RaceCheck, ForeignOwnershipMutationFires) {
  Session s;
  {
    Array<double> a(Shape{64}, 1.0);
    const std::uint64_t r = cd::begin_parallel_region(0, 64, 1);
    cd::record_chunk(r, 0, 0, 64, /*write=*/true);
    // A worker thread copying the array retains/releases its buffer while
    // the region is active — ownership traffic off the coordinator.
    std::thread t([&a] { Array<double> copy = a; (void)copy; });
    t.join();
    cd::end_parallel_region();
  }
  DiagnosticEngine& e = s.finish();
  ASSERT_GE(e.count(Pass::kRace), 1u);
  EXPECT_NE(e.to_ascii().find("non-coordinating thread"), std::string::npos);
}

TEST(RaceCheck, CoordinatorOwnershipOpsAreSilent) {
  Session s;
  {
    Array<double> a(Shape{64}, 1.0);
    const std::uint64_t r = cd::begin_parallel_region(0, 64, 1);
    cd::record_chunk(r, 0, 0, 64, /*write=*/true);
    Array<double> copy = a;  // same thread as the coordinator: fine
    (void)copy;
    cd::end_parallel_region();
  }
  EXPECT_TRUE(s.finish().empty()) << s.engine().to_ascii();
}

// A with-loop body that forces a captured view does so inside the region.
// Only the last chunk's worker touches the view, so the plant is a
// deterministic single force, not a real race.  The view is rank 1: its
// one-element faces run sequentially, never as a nested region.
TEST(RaceCheck, ViewForcedInsideParallelRegionFires) {
  Session s;
  {
    sac::SacConfig cfg = sac::config();
    cfg.mt_enabled = true;
    cfg.mt_threads = 4;
    cfg.mt_threshold = 1;
    sac::ScopedConfig scoped(cfg);
    const Array<double> base =
        sac::with_genarray<double>(Shape{6}, [](const IndexVec& iv) {
          return static_cast<double>(iv[0]);
        });
    std::vector<sac::ReadingPartition<double>> parts;
    parts.push_back(
        sac::shift_partition<double>(sac::gen_range({0}, {1}), {4}));
    parts.push_back(
        sac::shift_partition<double>(sac::gen_range({5}, {6}), {-4}));
    const Array<double> view = sac::with_modarray_reading(base, parts);
    ASSERT_TRUE(view.is_view());
    const Array<double> out = sac::with_genarray<double>(
        Shape{8}, [&](const IndexVec& iv) {
          return iv[0] == 7 ? view.data()[0] : 0.0;
        });
    EXPECT_DOUBLE_EQ(out.at_linear(7), 4.0);
    sac::shutdown_runtime();
  }
  DiagnosticEngine& e = s.finish();
  ASSERT_GE(e.count(Pass::kRace), 1u);
  EXPECT_NE(e.to_ascii().find("copy-free view forced on a worker thread"),
            std::string::npos)
      << e.to_ascii();
}

// Reading a view through its element accessors inside a region, and
// forcing it before the region, are both fine.
TEST(RaceCheck, ViewReadsInsideRegionsAreSilent) {
  Session s;
  {
    sac::SacConfig cfg = sac::config();
    cfg.mt_enabled = true;
    cfg.mt_threads = 4;
    cfg.mt_threshold = 1;
    sac::ScopedConfig scoped(cfg);
    const Shape shp{8, 6, 6};
    const Array<double> base = sac::genarray_const(shp, 2.0);
    std::vector<sac::ReadingPartition<double>> parts;
    parts.push_back(sac::shift_partition<double>(
        sac::gen_range({0, 0, 0}, {1, 6, 6}), {6, 0, 0}));
    const Array<double> view = sac::with_modarray_reading(base, parts);
    const Array<double> sum = sac::with_genarray<double>(
        shp, [&](const IndexVec& iv) { return view[iv] + 1.0; });
    EXPECT_DOUBLE_EQ(sum.at_linear(0), 3.0);
    view.materialise();
    const Array<double> copy =
        sac::with_genarray<double>(shp, [&](const IndexVec& iv) {
          return view.data()[shp.linearize(iv)];
        });
    EXPECT_DOUBLE_EQ(copy.at_linear(0), 2.0);
    sac::shutdown_runtime();
  }
  DiagnosticEngine& e = s.finish();
  EXPECT_TRUE(e.empty()) << e.to_ascii();
}

// -- session mechanics --------------------------------------------------------

TEST(Session, RestoresCheckFlagAndClearsEvents) {
  const bool before = sac::config().check;
  {
    Session s;
    EXPECT_TRUE(sac::config().check);
    cd::record_buffer_event(cd::BufferEventKind::kSharedInPlaceWrite, 3);
    EXPECT_FALSE(s.finish().empty());
  }
  EXPECT_EQ(sac::config().check, before);
  // finish() cleared the log: a fresh session starts clean.
  Session s2;
  EXPECT_TRUE(s2.finish().empty());
}

TEST(Session, FinishIsIdempotent) {
  Session s;
  cd::record_buffer_event(cd::BufferEventKind::kSharedInPlaceWrite, 2);
  const std::size_t n = s.finish().size();
  EXPECT_EQ(s.finish().size(), n);  // second call must not re-analyse
}

}  // namespace
}  // namespace sacpp::check
