// Full-pipeline checked runs: every MG variant executes a complete class-S
// benchmark under the sacpp_check runtime analyses and must come out with
// zero diagnostics — the end-to-end guarantee that the production code
// respects the uniqueness, region-disjointness, and allocation-balance
// invariants the checkers enforce.

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "sacpp/check/check.hpp"
#include "sacpp/mg/driver.hpp"
#include "sacpp/mg/mg_mpi.hpp"
#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/sac/pool.hpp"
#include "sacpp/sac/stats.hpp"

namespace sacpp::check {
namespace {

using mg::MgResult;
using mg::MgSpec;
using mg::RunOptions;
using mg::Variant;

MgResult run_checked(Variant variant, Session& session) {
  (void)session;  // constructed by the caller before the run
  RunOptions opts;
  opts.warmup = false;
  opts.record_norms = false;
  return mg::run_benchmark(variant, MgSpec::for_class(mg::MgClass::S), opts);
}

void expect_clean_and_verified(const MgResult& result, Session& session) {
  DiagnosticEngine& engine = session.finish();
  EXPECT_TRUE(engine.empty()) << engine.to_ascii();
  bool known = false;
  EXPECT_TRUE(mg::verify(result, MgSpec::for_class(mg::MgClass::S), &known));
  EXPECT_TRUE(known);
}

TEST(CheckPipeline, SacClassSIsClean) {
  Session session;
  const MgResult r = run_checked(Variant::kSac, session);
  expect_clean_and_verified(r, session);
}

TEST(CheckPipeline, SacMultiThreadedClassSIsClean) {
  // The interesting case: real parallel regions with the race detector and
  // ownership watch armed.
  Session session;
  sac::SacConfig cfg = sac::config();
  cfg.mt_threads = 4;
  cfg.mt_threshold = 256;
  MgResult r;
  {
    sac::ScopedConfig scoped(cfg);
    r = run_checked(Variant::kSac, session);
  }
  expect_clean_and_verified(r, session);
}

TEST(CheckPipeline, SacSimdPlanesClassSIsClean) {
  // Vectorized backend under the planes row engine: the checked runtime's
  // aliasing and allocation-balance analyses must stay silent when rows are
  // dispatched through the SIMD primitives (vector remainders included).
  Session session;
  sac::SacConfig cfg = sac::config();
  cfg.stencil_mode = sac::StencilMode::kPlanes;
  cfg.backend = sac::BackendKind::kSimd;
  MgResult r;
  {
    sac::ScopedConfig scoped(cfg);
    r = run_checked(Variant::kSac, session);
  }
  expect_clean_and_verified(r, session);
}

TEST(CheckPipeline, SacPortableSimdClassSIsClean) {
  // Same battery on the baseline kSimd instance — the path a host without
  // AVX2 runs — for mg_sac_direct and for mg_sac.
  sac::SacConfig cfg = sac::config();
  cfg.stencil_mode = sac::StencilMode::kPlanes;
  cfg.backend = sac::BackendKind::kSimd;
  for (const Variant variant : {Variant::kSacDirect, Variant::kSac}) {
    Session session;
    MgResult r;
    {
      sac::ScopedConfig scoped(cfg);
      const sac::detail::ScopedSimdOverride pin(
          &sac::detail::portable_backend());
      r = run_checked(variant, session);
    }
    expect_clean_and_verified(r, session);
  }
}

TEST(CheckPipeline, FortranRefClassSIsClean) {
  Session session;
  const MgResult r = run_checked(Variant::kFortran, session);
  expect_clean_and_verified(r, session);
}

TEST(CheckPipeline, OpenMpClassSIsClean) {
  Session session;
  const MgResult r = run_checked(Variant::kOpenMp, session);
  expect_clean_and_verified(r, session);
}

TEST(CheckPipeline, SacDirectClassSIsClean) {
  Session session;
  const MgResult r = run_checked(Variant::kSacDirect, session);
  expect_clean_and_verified(r, session);
}

TEST(CheckPipeline, SacClassSWithPoolIsClean) {
  // Pooled allocation must be invisible to the runtime checkers: a full
  // class-S run with the alias/uniqueness analyses armed and every buffer
  // cycled through the BufferPool free lists still produces zero
  // diagnostics — recycling a block is not a uniqueness violation.
  Session session;
  sac::SacConfig cfg = sac::config();
  cfg.pool = true;
  MgResult r;
  {
    sac::ScopedConfig scoped(cfg);
    r = run_checked(Variant::kSac, session);
  }
  expect_clean_and_verified(r, session);
}

TEST(CheckPipeline, PoolDoubleReleaseIsReported) {
  // Negative test: the checkers must also *fire*.  Releasing the same block
  // into the pool twice is the allocator-level equivalent of a double free —
  // the second release would let two future allocations alias one block —
  // and checked mode must report it instead of corrupting the free list.
  Session session;
  sac::BufferPool& pool = sac::BufferPool::instance();
  const std::size_t bytes = sac::pool_block_bytes(512);
  void* p = pool.allocate(bytes);
  ASSERT_NE(p, nullptr);
  pool.deallocate(p, bytes);
  pool.deallocate(p, bytes);  // deliberate double release

  DiagnosticEngine& engine = session.finish();
  ASSERT_EQ(engine.size(), 1u) << engine.to_ascii();
  const Diagnostic& d = engine.diagnostics().front();
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.pass, Pass::kAlias);
  EXPECT_EQ(d.location, "pool");
  EXPECT_NE(d.message.find("released twice"), std::string::npos)
      << d.message;
  EXPECT_NE(d.message.find(std::to_string(bytes)), std::string::npos)
      << "diagnostic should name the size class: " << d.message;

  // The drop kept the free list consistent: the block is still cached
  // exactly once, so the next same-class allocation reuses it and the one
  // after that is a fresh miss, not the same pointer again.
  const std::uint64_t hits = sac::stats().pool_hits;
  void* q = pool.allocate(bytes);
  EXPECT_EQ(sac::stats().pool_hits - hits, 1u);
  EXPECT_EQ(q, p);
  void* r = pool.allocate(bytes);
  EXPECT_NE(r, q) << "double release put the block on the free list twice";
  pool.deallocate(q, bytes);
  pool.deallocate(r, bytes);
}

TEST(CheckPipeline, PoolDoubleReleaseAcrossLiveThreadsIsReported) {
  // The same repeat, split over two threads: A releases the block and waits,
  // B releases it again while A is still alive, and only then does A exit.
  // The cached block is on the pool's free list whichever thread released
  // it, so B's repeat is reported and dropped like a same-thread one.
  Session session;
  sac::BufferPool& pool = sac::BufferPool::instance();
  const std::size_t bytes = sac::pool_block_bytes(512);
  void* p = nullptr;
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  bool repeated = false;
  std::thread a([&] {
    void* block = pool.allocate(bytes);
    pool.deallocate(block, bytes);
    std::unique_lock<std::mutex> lock(mu);
    p = block;
    released = true;
    cv.notify_all();
    cv.wait(lock, [&] { return repeated; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return released; });
  }
  EXPECT_NE(p, nullptr);  // not ASSERT: A must still be joined
  std::thread([&] { pool.deallocate(p, bytes); }).join();  // deliberate
  {
    std::lock_guard<std::mutex> lock(mu);
    repeated = true;
  }
  cv.notify_all();
  a.join();

  DiagnosticEngine& engine = session.finish();
  EXPECT_EQ(engine.size(), 1u) << engine.to_ascii();
  EXPECT_NE(engine.to_ascii().find("released twice"), std::string::npos)
      << engine.to_ascii();

  // Cached once: the next two same-class allocations are distinct blocks.
  void* q = pool.allocate(bytes);
  void* r = pool.allocate(bytes);
  EXPECT_NE(q, r) << "double release put the block on the free list twice";
  pool.deallocate(q, bytes);
  pool.deallocate(r, bytes);
}

TEST(CheckPipeline, MpiStyleClassSIsClean) {
  const MgSpec spec = MgSpec::for_class(mg::MgClass::S);
  Session session;
  const mg::MgMpi::Result r = mg::MgMpi(spec, /*ranks=*/2).run(spec.nit,
                                                               /*warmup=*/false);
  DiagnosticEngine& engine = session.finish();
  EXPECT_TRUE(engine.empty()) << engine.to_ascii();
  EXPECT_GT(r.final_norm, 0.0);
  EXPECT_EQ(r.norms.size(), static_cast<std::size_t>(spec.nit));
}

}  // namespace
}  // namespace sacpp::check
