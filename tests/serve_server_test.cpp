// SolverService tests: end-to-end verified solves, per-job config isolation
// under concurrency, overlapping solves racing runtime housekeeping (the
// TSan target), deadline/capacity shedding, shutdown semantics, and the
// process-metrics collector.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sacpp/mg/driver.hpp"
#include "sacpp/obs/export.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/sac/pool.hpp"
#include "sacpp/sac/stats.hpp"
#include "sacpp/serve/server.hpp"

using namespace sacpp;
using namespace sacpp::serve;

namespace {

ServeConfig small_config(unsigned cores, unsigned executors,
                         std::size_t queue_capacity = 64) {
  ServeConfig cfg;
  cfg.total_cores = cores;
  cfg.executors = executors;
  cfg.queue_capacity = queue_capacity;
  return cfg;
}

SolveRequest class_s_request(std::uint64_t id,
                             Priority priority = Priority::kNormal) {
  SolveRequest req;
  req.id = id;
  req.cls = mg::MgClass::S;
  req.variant = mg::Variant::kSacDirect;
  req.priority = priority;
  return req;
}

// Reference norm for one stencil engine, computed serially outside any
// service (the ground truth the concurrent runs must reproduce bit-exactly)
// under the process config's backend, which the requests below carry too.
double serial_norm(sac::StencilMode mode) {
  sac::SacConfig cfg = sac::config();
  cfg.stencil_mode = mode;
  cfg.mt_enabled = false;
  sac::ConfigBinding binding(&cfg);
  const mg::MgSpec spec = mg::MgSpec::for_class(mg::MgClass::S);
  mg::RunOptions opts;
  opts.warmup = false;
  opts.record_norms = false;
  return mg::run_benchmark(mg::Variant::kSacDirect, spec, opts).final_norm;
}

TEST(ServeServer, SolvesAndVerifiesClassS) {
  SolverService service(small_config(2, 2));
  std::future<SolveResult> future = service.submit(class_s_request(7));
  const SolveResult res = future.get();
  EXPECT_EQ(res.id, 7u);
  EXPECT_EQ(res.status, SolveStatus::kOk) << res.error;
  EXPECT_TRUE(res.verified);
  EXPECT_GT(res.seconds, 0.0);
  EXPECT_GE(res.e2e_ns, res.queue_ns);
  EXPECT_GE(res.gang, 1u);
}

// Satellite (b) regression: two concurrent jobs with different stencil
// engines must each get the result their own config produces — bit-exact
// against serial references — with no bleed through the process config.
TEST(ServeServer, ConcurrentJobsWithDifferentStencilModesStayIsolated) {
  const double grouped_ref = serial_norm(sac::StencilMode::kGrouped);
  const double planes_ref = serial_norm(sac::StencilMode::kPlanes);

  SolverService service(small_config(2, 2));
  constexpr int kRounds = 3;
  std::vector<std::future<SolveResult>> grouped, planes;
  for (int i = 0; i < kRounds; ++i) {
    SolveRequest g = class_s_request(1000 + i);
    g.stencil_mode = sac::StencilMode::kGrouped;
    g.backend = sac::config().backend;
    SolveRequest p = class_s_request(2000 + i);
    p.stencil_mode = sac::StencilMode::kPlanes;
    p.backend = sac::config().backend;
    grouped.push_back(service.submit(g));
    planes.push_back(service.submit(p));
  }
  for (int i = 0; i < kRounds; ++i) {
    const SolveResult g = grouped[i].get();
    const SolveResult p = planes[i].get();
    ASSERT_EQ(g.status, SolveStatus::kOk) << g.error;
    ASSERT_EQ(p.status, SolveStatus::kOk) << p.error;
    // Bit-correct, not approximately-equal: a config bleed mid-solve would
    // perturb the floating-point schedule even if the answer still verified.
    EXPECT_EQ(g.final_norm, grouped_ref) << "grouped round " << i;
    EXPECT_EQ(p.final_norm, planes_ref) << "planes round " << i;
  }
}

// Satellite (a): repeated in-process solves must be safe while other threads
// hammer the shared runtime surfaces (stats snapshot/reset, pool trim).
// Primarily a TSan target; the functional assertion is that every overlapped
// solve still verifies.
TEST(ServeServer, OverlappingSolvesSurviveStatsAndPoolHousekeeping) {
  SolverService service(small_config(2, 2));
  std::atomic<bool> done{false};
  std::thread chaos([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)sac::stats_snapshot();
      sac::BufferPool::instance().trim();
      sac::reset_stats();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  auto client = [&](std::uint64_t base) {
    for (int i = 0; i < 3; ++i) {
      const SolveResult res =
          service.submit(class_s_request(base + i)).get();
      ASSERT_EQ(res.status, SolveStatus::kOk) << res.error;
      ASSERT_TRUE(res.verified);
    }
  };
  std::thread a(client, 100), b(client, 200);
  a.join();
  b.join();
  done.store(true, std::memory_order_release);
  chaos.join();
}

TEST(ServeServer, ExpiredDeadlineIsShedNotSolved) {
  SolverService service(small_config(1, 1));
  SolveRequest req = class_s_request(1);
  req.deadline_ns = 1;  // expires effectively at submit
  const SolveResult res = service.submit(req).get();
  EXPECT_EQ(res.status, SolveStatus::kShedDeadline) << res.error;
  EXPECT_FALSE(res.verified);
}

TEST(ServeServer, TinyQueueRejectsTheOverflow) {
  SolverService service(small_config(1, 1, /*queue_capacity=*/1));
  std::vector<std::future<SolveResult>> futures;
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(service.submit(class_s_request(i)));
  }
  int ok = 0, shed = 0;
  for (auto& f : futures) {
    const SolveResult res = f.get();  // every future resolves, no hangs
    if (res.status == SolveStatus::kOk) {
      ++ok;
    } else {
      EXPECT_EQ(res.status, SolveStatus::kShedCapacity);
      ++shed;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1) << "a burst of " << kBurst
                     << " into a depth-1 queue must overflow";
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GE(service.snapshot().counters.queue.rejected, 1u);
}

TEST(ServeServer, StopShedsQueuedFinishesRunning) {
  SolverService service(small_config(1, 1));
  std::vector<std::future<SolveResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.submit(class_s_request(i)));
  }
  service.stop();
  service.stop();  // idempotent
  int solved = 0, shed = 0;
  for (auto& f : futures) {
    const SolveResult res = f.get();
    if (solve_completed(res.status)) {
      ++solved;
    } else {
      EXPECT_EQ(res.status, SolveStatus::kShedCapacity);
      ++shed;
    }
  }
  EXPECT_EQ(solved + shed, 6);
  EXPECT_GE(shed, 1) << "stop() must shed the backlog, not run it down";
  // Post-stop submissions resolve immediately as shed.
  const SolveResult late = service.submit(class_s_request(99)).get();
  EXPECT_EQ(late.status, SolveStatus::kShedCapacity);
}

TEST(ServeServer, DrainWaitsForQuiescence) {
  SolverService service(small_config(2, 2));
  std::vector<std::future<SolveResult>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service.submit(class_s_request(i)));
  }
  service.drain();
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(service.active_jobs(), 0u);
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
}

TEST(ServeServer, SnapshotTracksOutcomes) {
  SolverService service(small_config(2, 2));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(service.submit(class_s_request(i)).get().status,
              SolveStatus::kOk);
  }
  const ServerSnapshot snap = service.snapshot();
  EXPECT_EQ(snap.counters.submitted, 3u);
  EXPECT_EQ(snap.counters.completed_ok, 3u);
  EXPECT_EQ(snap.counters.wrong_answer, 0u);
  EXPECT_EQ(snap.counters.errors, 0u);
  EXPECT_EQ(snap.counters.queue.dispatched, 3u);
  EXPECT_GT(snap.uptime_seconds, 0.0);
  EXPECT_EQ(snap.total_cores, 2u);
  EXPECT_EQ(snap.exec.count, 3u);
  EXPECT_GT(snap.exec.mean_ms, 0.0);
  EXPECT_GE(snap.exec.p99_ms, snap.exec.p50_ms);
  const std::size_t lane =
      static_cast<std::size_t>(Priority::kNormal);
  EXPECT_EQ(snap.e2e[lane].count, 3u);
}

#ifdef __linux__
TEST(ServeServer, RssGaugeIsPositiveOnLinux) {
  EXPECT_GT(SolverService::rss_bytes(), 0);
}
#endif

// Satellite (f): the live service exports process gauges through the
// Prometheus text endpoint.
TEST(ServeServer, PrometheusExportCarriesProcessGauges) {
  SolverService service(small_config(2, 2));
  EXPECT_EQ(service.submit(class_s_request(1)).get().status,
            SolveStatus::kOk);
  std::ostringstream out;
  obs::write_prometheus(out);
  const std::string text = out.str();
  for (const char* metric :
       {"sacpp_serve_uptime_seconds", "sacpp_serve_active_jobs",
        "sacpp_serve_queue_depth", "sacpp_serve_cores_total",
        "sacpp_serve_requests_total", "sacpp_serve_dispatched_total"}) {
    EXPECT_NE(text.find(metric), std::string::npos)
        << metric << " missing from:\n"
        << text;
  }
#ifdef __linux__
  EXPECT_NE(text.find("sacpp_serve_rss_bytes"), std::string::npos);
#endif
}

// The collector indirects through a process-lifetime slot: once the first
// service is gone, exporting must not touch freed memory, and a second
// service takes the slot over.
TEST(ServeServer, CollectorSurvivesServiceTeardown) {
  {
    SolverService first(small_config(1, 1));
    (void)first.submit(class_s_request(1)).get();
  }
  std::ostringstream between;
  obs::write_prometheus(between);  // no live service: must not crash
  EXPECT_EQ(between.str().find("sacpp_serve_uptime_seconds"),
            std::string::npos);

  SolverService second(small_config(1, 1));
  (void)second.submit(class_s_request(2)).get();
  std::ostringstream after;
  obs::write_prometheus(after);
  EXPECT_NE(after.str().find("sacpp_serve_uptime_seconds"),
            std::string::npos);
}

}  // namespace
