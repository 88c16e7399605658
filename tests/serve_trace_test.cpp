// Serving-stack tracing integration: end-to-end stitched traces for real
// solves, shed traces from the queue settle path, the SLO watchdog's
// overload arithmetic, the admission queue's overload advisory, and a
// PCT schedule-explorer pass asserting every settled job yields exactly one
// well-formed span tree under shuffled queue/dispatch interleavings.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sacpp/check/schedule.hpp"
#include "sacpp/obs/obs.hpp"
#include "sacpp/obs/trace.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/serve/queue.hpp"
#include "sacpp/serve/server.hpp"
#include "sacpp/serve/slo.hpp"
#include "sacpp/serve/wire.hpp"

using namespace sacpp;
using namespace sacpp::serve;

namespace {

// Tracing tests need the obs layer live; sac::set_obs (not obs::set_enabled
// directly) so the lazy config() init cannot re-apply the SACPP_OBS default
// over the top of us.
struct ObsOn {
  ObsOn() {
    sac::set_obs(true);
    obs::reset();
    obs::clear_retained_traces();
  }
  ~ObsOn() {
    obs::clear_retained_traces();
    obs::reset();
    sac::set_obs(false);
  }
};

ServeConfig small_config(unsigned cores, unsigned executors) {
  ServeConfig cfg;
  cfg.total_cores = cores;
  cfg.executors = executors;
  cfg.queue_capacity = 64;
  return cfg;
}

SolveRequest traced_request(std::uint64_t id) {
  SolveRequest req;
  req.id = id;
  req.cls = mg::MgClass::S;
  req.variant = mg::Variant::kSacDirect;
  req.trace_id = obs::mint_trace_id();
  req.trace_flags = obs::kTraceForced;
  return req;
}

const obs::RetainedTrace* find_trace(const std::vector<obs::RetainedTrace>& ts,
                                     std::uint64_t trace_id) {
  for (const obs::RetainedTrace& t : ts) {
    if (t.meta.trace_id == trace_id) return &t;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// End-to-end stitching
// ---------------------------------------------------------------------------

TEST(ServeTrace, CompletedSolveYieldsOneStitchedTree) {
  ObsOn obs_on;
  const SolveRequest req = traced_request(7);
  SolveResult res;
  {
    SolverService service(small_config(2, 1));
    res = service.submit(req).get();
  }
  ASSERT_EQ(res.status, SolveStatus::kOk) << res.error;
  EXPECT_EQ(res.trace_id, req.trace_id) << "trace id must be echoed";

  const auto traces = obs::retained_traces();
  const obs::RetainedTrace* t = find_trace(traces, req.trace_id);
  ASSERT_NE(t, nullptr) << "forced trace was not retained";
  std::string why;
  EXPECT_TRUE(obs::validate_trace(*t, /*completed=*/true, &why)) << why;
  EXPECT_EQ(t->meta.status, "ok");
  EXPECT_EQ(t->meta.request_id, 7u);
  EXPECT_EQ(t->meta.reason, obs::RetainReason::kFlagged);
  EXPECT_GT(t->meta.e2e_ns, 0);
  // The tree holds more than the serve skeleton: the bound context must have
  // propagated into the solver (per-level V-cycle spans from pool workers).
  std::size_t solver_spans = 0;
  for (const obs::TraceSpan& s : t->spans) {
    const std::string_view name = s.span.name;
    if (name != obs::kSpanServeE2e && name != obs::kSpanServeQueue &&
        name != obs::kSpanServeExec && name != obs::kSpanClient) {
      ++solver_spans;
    }
  }
  EXPECT_GT(solver_spans, 0u)
      << "no solver-side spans carried the trace id — context did not "
         "propagate into the gang";
}

TEST(ServeTrace, UntracedRequestRetainsNothing) {
  ObsOn obs_on;
  SolveRequest req;
  req.id = 8;
  req.cls = mg::MgClass::S;
  req.variant = mg::Variant::kSacDirect;
  SolveResult res;
  {
    SolverService service(small_config(2, 1));  // trace_sample defaults to 0
    res = service.submit(req).get();
  }
  ASSERT_EQ(res.status, SolveStatus::kOk) << res.error;
  EXPECT_EQ(res.trace_id, 0u);
  EXPECT_EQ(obs::retained_trace_count(), 0u);
}

TEST(ServeTrace, HeadSamplingMintsServiceSideIds) {
  ObsOn obs_on;
  SolveRequest req;
  req.id = 9;
  req.cls = mg::MgClass::S;
  req.variant = mg::Variant::kSacDirect;
  ServeConfig cfg = small_config(2, 1);
  cfg.trace_sample = 1.0;  // service mints for every untraced request
  SolveResult res;
  {
    SolverService service(cfg);
    res = service.submit(req).get();
  }
  ASSERT_EQ(res.status, SolveStatus::kOk) << res.error;
  EXPECT_NE(res.trace_id, 0u) << "service should have minted a trace id";
}

TEST(ServeTrace, ExpiredDeadlineShedRetainsTraceWithoutExecSpan) {
  ObsOn obs_on;
  SolveRequest req = traced_request(11);
  req.deadline_ns = 1;  // budget expires effectively at submit
  SolveResult res;
  {
    SolverService service(small_config(2, 1));
    res = service.submit(req).get();
  }
  ASSERT_EQ(res.status, SolveStatus::kShedDeadline) << res.error;
  EXPECT_EQ(res.trace_id, req.trace_id);

  const auto traces = obs::retained_traces();
  const obs::RetainedTrace* t = find_trace(traces, req.trace_id);
  ASSERT_NE(t, nullptr) << "shed trace must be retained (always an anomaly)";
  std::string why;
  EXPECT_TRUE(obs::validate_trace(*t, /*completed=*/false, &why)) << why;
  EXPECT_EQ(t->meta.reason, obs::RetainReason::kShed);
  EXPECT_EQ(t->meta.status, "shed-deadline");
}

// ---------------------------------------------------------------------------
// SLO watchdog arithmetic
// ---------------------------------------------------------------------------

TEST(SloWatchdog, BurnRateTripsOverloadWhenP99ExceedsBudget) {
  SloConfig cfg;
  cfg.p99_budget_ns[static_cast<int>(Priority::kNormal)] = 1'000'000;  // 1ms
  SloWatchdog dog(cfg);
  EXPECT_FALSE(dog.overloaded());
  for (int i = 0; i < 200; ++i) {
    dog.observe(Priority::kNormal, SolveStatus::kOk, 10'000'000);  // 10ms
  }
  EXPECT_GT(dog.window_p99_ns(Priority::kNormal), 1'000'000);
  EXPECT_GT(dog.burn_rate(Priority::kNormal), 1.0);
  EXPECT_TRUE(dog.overloaded());
}

TEST(SloWatchdog, FastTrafficKeepsBurnRateUnderOne) {
  SloConfig cfg;
  cfg.p99_budget_ns[static_cast<int>(Priority::kNormal)] = 100'000'000;
  SloWatchdog dog(cfg);
  for (int i = 0; i < 200; ++i) {
    dog.observe(Priority::kNormal, SolveStatus::kOk, 1'000'000);
  }
  EXPECT_LT(dog.burn_rate(Priority::kNormal), 1.0);
  EXPECT_FALSE(dog.overloaded());
}

TEST(SloWatchdog, ShedRatioTripsOverload) {
  SloConfig cfg;  // no latency budgets: only the shed gate is armed
  cfg.max_shed_ratio = 0.10;
  SloWatchdog dog(cfg);
  for (int i = 0; i < 8; ++i) {
    dog.observe(Priority::kNormal, SolveStatus::kOk, 1000);
  }
  EXPECT_FALSE(dog.overloaded());
  dog.observe(Priority::kLow, SolveStatus::kShedCapacity, -1);
  dog.observe(Priority::kLow, SolveStatus::kShedDeadline, -1);
  EXPECT_DOUBLE_EQ(dog.shed_ratio(), 0.2);
  EXPECT_TRUE(dog.overloaded());
}

TEST(SloWatchdog, QueueSaturationTripsAndClears) {
  SloConfig cfg;
  cfg.max_queue_saturation = 0.90;
  SloWatchdog dog(cfg);
  dog.observe_queue(95, 100);
  EXPECT_TRUE(dog.overloaded());
  dog.observe_queue(10, 100);
  EXPECT_FALSE(dog.overloaded());
}

TEST(SloWatchdog, RotationExpiresTheWindow) {
  SloConfig cfg;
  cfg.max_shed_ratio = 0.10;
  SloWatchdog dog(cfg);
  for (int i = 0; i < 10; ++i) {
    dog.observe(Priority::kLow, SolveStatus::kShedCapacity, -1);
  }
  EXPECT_TRUE(dog.overloaded());
  // Two half-window rotations age the sheds fully out of the window.
  dog.rotate_now();
  dog.rotate_now();
  EXPECT_FALSE(dog.overloaded());
  EXPECT_DOUBLE_EQ(dog.shed_ratio(), 0.0);
}

TEST(SloWatchdog, CollectEmitsTheSloGauges) {
  struct Sink : obs::MetricSink {
    std::map<std::string, double> values;
    void counter(std::string_view name, double v, std::string_view) override {
      values[std::string(name)] = v;
    }
    void gauge(std::string_view name, double v, std::string_view) override {
      values[std::string(name)] = v;
    }
  };
  SloConfig cfg;
  cfg.p99_budget_ns[static_cast<int>(Priority::kHigh)] = 1'000'000;
  SloWatchdog dog(cfg);
  dog.observe(Priority::kHigh, SolveStatus::kOk, 10'000'000);
  Sink sink;
  dog.collect(sink);
  EXPECT_TRUE(sink.values.count("sacpp_slo_high_p99_window_ns"));
  EXPECT_TRUE(sink.values.count("sacpp_slo_high_burn_rate"));
  // Lanes without a budget export the p99 but no burn rate.
  EXPECT_TRUE(sink.values.count("sacpp_slo_normal_p99_window_ns"));
  EXPECT_FALSE(sink.values.count("sacpp_slo_normal_burn_rate"));
  EXPECT_TRUE(sink.values.count("sacpp_slo_shed_ratio"));
  EXPECT_TRUE(sink.values.count("sacpp_slo_queue_saturation"));
  EXPECT_EQ(sink.values["sacpp_slo_overloaded"], 1.0);
}

// ---------------------------------------------------------------------------
// Overload advisory on the admission path
// ---------------------------------------------------------------------------

QueuedJob make_job(std::uint64_t id, Priority priority) {
  QueuedJob job;
  job.request.id = id;
  job.request.priority = priority;
  job.gang = 1;
  job.submit_ns = obs::now_ns();
  job.enqueue_ns = job.submit_ns;
  return job;
}

TEST(OverloadAdvisor, ShedsOnlyLowPriorityWhileOverloaded) {
  AdmissionQueue queue(8);
  std::atomic<bool> overloaded{false};
  queue.set_overload_advisor(
      [&] { return overloaded.load(std::memory_order_relaxed); });

  // Not overloaded: low-priority work is admitted normally.
  EXPECT_EQ(queue.push(make_job(1, Priority::kLow)),
            AdmissionQueue::Admit::kAccepted);

  overloaded.store(true, std::memory_order_relaxed);
  QueuedJob low = make_job(2, Priority::kLow);
  std::future<SolveResult> low_future = low.promise.get_future();
  EXPECT_EQ(queue.push(std::move(low)),
            AdmissionQueue::Admit::kShedOverload);
  const SolveResult res = low_future.get();
  EXPECT_EQ(res.status, SolveStatus::kShedCapacity);
  EXPECT_NE(res.error.find("overload"), std::string::npos) << res.error;

  // The advisory never touches the higher lanes.
  EXPECT_EQ(queue.push(make_job(3, Priority::kNormal)),
            AdmissionQueue::Admit::kAccepted);
  EXPECT_EQ(queue.push(make_job(4, Priority::kHigh)),
            AdmissionQueue::Admit::kAccepted);
  EXPECT_EQ(queue.counters().shed_overload, 1u);
}

TEST(OverloadAdvisor, SettleObserverSeesQueueSettledJobs) {
  AdmissionQueue queue(8);
  std::vector<std::pair<Priority, SolveStatus>> seen;
  queue.set_settle_observer([&](Priority p, SolveStatus s) {
    seen.emplace_back(p, s);
  });
  queue.push(make_job(1, Priority::kLow));
  queue.push(make_job(2, Priority::kHigh));
  EXPECT_EQ(queue.shed_all(SolveStatus::kShedCapacity, "test teardown"), 2u);
  ASSERT_EQ(seen.size(), 2u);
  for (const auto& [priority, status] : seen) {
    EXPECT_EQ(status, SolveStatus::kShedCapacity);
  }
}

TEST(OverloadAdvisor, ServiceFeedsWatchdogBackIntoAdmission) {
  ObsOn obs_on;
  ServeConfig cfg = small_config(2, 1);
  cfg.slo.max_shed_ratio = 0.10;
  SolverService service(cfg);

  // Drive the shed ratio over budget: expired-deadline requests settle as
  // sheds and every settle feeds the watchdog.
  std::vector<std::future<SolveResult>> doomed;
  for (int i = 0; i < 10; ++i) {
    SolveRequest req;
    req.id = 100 + static_cast<std::uint64_t>(i);
    req.cls = mg::MgClass::S;
    req.deadline_ns = 1;
    doomed.push_back(service.submit(req));
  }
  for (auto& f : doomed) {
    EXPECT_EQ(f.get().status, SolveStatus::kShedDeadline);
  }
  EXPECT_TRUE(service.watchdog().overloaded());

  // The advisory now sheds incoming LOW work at admission, synchronously.
  SolveRequest low;
  low.id = 200;
  low.cls = mg::MgClass::S;
  low.priority = Priority::kLow;
  const SolveResult res = service.submit(low).get();
  EXPECT_EQ(res.status, SolveStatus::kShedCapacity);
  EXPECT_NE(res.error.find("overload"), std::string::npos) << res.error;
  EXPECT_GE(service.snapshot().counters.queue.shed_overload, 1u);
}

// The queue's advisory sheds stay out of the shed ratio that raises the
// advice.  Counted there, low-priority traffic above max_shed_ratio would
// hold the advice up after the saturation that tripped it has drained, for
// as long as the traffic lasts.
TEST(OverloadAdvisor, AdviceClearsWithinOneWindowAfterSaturationDrains) {
  SloConfig cfg;
  cfg.max_shed_ratio = 0.10;
  cfg.max_queue_saturation = 0.90;
  cfg.window_ns = 200'000'000;  // 200 ms
  SloWatchdog dog(cfg);
  constexpr std::size_t kCapacity = 20;
  AdmissionQueue queue(kCapacity);
  // Wired as SolverService wires them.
  queue.set_overload_advisor([&dog] { return dog.overloaded(); });
  queue.set_settle_observer([&dog](Priority lane, SolveStatus status) {
    dog.observe(lane, status, -1);
  });

  std::uint64_t id = 0;
  // One arrival, every fifth at low priority (20%, twice the bound); true
  // when admitted.
  auto arrive = [&] {
    const Priority p = id % 5 == 4 ? Priority::kLow : Priority::kNormal;
    return queue.push(make_job(id++, p)) == AdmissionQueue::Admit::kAccepted;
  };
  // One job finished by an executor, in budget.
  auto complete = [&] {
    QueuedJob job;
    if (!queue.pop_best(1, obs::now_ns(), &job)) return;
    dog.observe(job.request.priority, SolveStatus::kOk, 1'000'000);
    dog.observe_queue(queue.depth(), kCapacity);
  };

  // A backlog of 19 of 20 trips the advice by saturation, and holds it
  // while executors merely keep pace; low arrivals are shed at the door.
  while (queue.depth() < 19) queue.push(make_job(id++, Priority::kNormal));
  dog.observe_queue(queue.depth(), kCapacity);
  ASSERT_TRUE(dog.overloaded());
  for (int i = 0; i < 100; ++i) {
    if (arrive()) complete();
  }
  EXPECT_TRUE(dog.overloaded());
  EXPECT_EQ(queue.counters().shed_overload, 20u);

  // Executors catch up and the backlog drains; traffic goes on.
  while (queue.depth() > 0) complete();
  const std::int64_t deadline = obs::now_ns() + cfg.window_ns;
  while (dog.overloaded() && obs::now_ns() < deadline) {
    if (arrive()) complete();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(dog.overloaded()) << "shed ratio " << dog.shed_ratio();
}

// ---------------------------------------------------------------------------
// PCT schedule exploration: stitching is interleaving-independent
// ---------------------------------------------------------------------------

// Satellite: under randomized queue/dispatch interleavings, every settled
// job must yield exactly one well-formed span tree.  The scenario drives a
// real AdmissionQueue (whose settle path records + retains shed traces) and
// a simulated executor that mirrors run_job's retroactive span recording.
TEST(ServeTracePct, EverySettledJobYieldsOneWellFormedTree) {
  ObsOn obs_on;

  struct PctJob {
    std::uint64_t id = 0;
    std::uint64_t trace_id = 0;
    std::future<SolveResult> future;
  };
  struct PctState {
    AdmissionQueue queue{4};
    std::vector<PctJob> jobs;
  };

  constexpr std::size_t kJobs = 4;

  const check::ScenarioBuilder build =
      [](std::uint64_t seed) -> check::ScheduleScenario {
    obs::clear_retained_traces();
    auto state = std::make_shared<PctState>();
    state->jobs.resize(kJobs);

    check::ScheduleScenario scenario;
    check::ScheduleRng rng(seed);

    // One client task per job: mint a context, push a traced QueuedJob.
    // The operation mix varies with the seed — priorities rotate and some
    // jobs carry an already-expired deadline so the deadline-shed settle
    // path runs under the explored interleavings too.
    for (std::size_t i = 0; i < kJobs; ++i) {
      const auto priority = static_cast<Priority>(rng.below(kPriorityLanes));
      const bool expired = rng.below(3) == 0;
      check::ScheduleTask task;
      task.name = "client-" + std::to_string(i);
      task.steps.push_back([state, i, priority, expired] {
        QueuedJob job;
        job.request.id = i + 1;
        job.request.priority = priority;
        job.request.trace_id = obs::mint_trace_id();
        job.request.trace_flags = obs::kTraceForced;
        job.gang = 1;
        job.submit_ns = obs::now_ns();
        job.enqueue_ns = job.submit_ns;
        if (expired) job.deadline_ns = job.submit_ns - 1;
        state->jobs[i].id = job.request.id;
        state->jobs[i].trace_id = job.request.trace_id;
        state->jobs[i].future = job.promise.get_future();
        state->queue.push(std::move(job));
      });
      scenario.tasks.push_back(std::move(task));
    }

    // The executor task: each step pops the best dispatchable job and
    // "executes" it, recording the serve_queue / serve_job / serve_e2e
    // skeleton retroactively with exact bounds, exactly like run_job.
    check::ScheduleTask executor;
    executor.name = "executor";
    for (std::size_t step = 0; step < kJobs; ++step) {
      executor.steps.push_back([state] {
        QueuedJob job;
        if (!state->queue.pop_best(8, obs::now_ns(), &job)) return;
        const obs::TraceContext ctx{job.request.trace_id,
                                    job.request.trace_parent,
                                    job.request.trace_flags};
        const obs::TraceBinding bind(ctx);
        const std::int64_t dispatch = obs::now_ns();
        obs::record_span(obs::SpanKind::kPhase, obs::kSpanServeQueue,
                         job.enqueue_ns, dispatch - job.enqueue_ns);
        obs::record_span(obs::SpanKind::kKernel, "pct_solve", dispatch, 0,
                         static_cast<std::int64_t>(job.request.id));
        const std::int64_t end = obs::now_ns();
        obs::record_span(obs::SpanKind::kPhase, obs::kSpanServeExec, dispatch,
                         end - dispatch,
                         static_cast<std::int64_t>(job.request.id));
        obs::record_span(obs::SpanKind::kPhase, obs::kSpanServeE2e,
                         job.submit_ns, end - job.submit_ns,
                         static_cast<std::int64_t>(job.request.id));
        obs::TraceMeta meta;
        meta.trace_id = job.request.trace_id;
        meta.request_id = job.request.id;
        meta.reason = obs::RetainReason::kFlagged;
        meta.status = "ok";
        meta.priority = static_cast<int>(job.request.priority);
        meta.submit_ns = job.submit_ns;
        meta.queue_ns = dispatch - job.enqueue_ns;
        meta.exec_ns = end - dispatch;
        meta.e2e_ns = end - job.submit_ns;
        obs::retain_trace(meta);
        SolveResult res;
        res.id = job.request.id;
        res.status = SolveStatus::kOk;
        res.trace_id = job.request.trace_id;
        res.queue_ns = dispatch - job.enqueue_ns;
        res.e2e_ns = end - job.submit_ns;
        job.promise.set_value(std::move(res));
      });
    }
    scenario.tasks.push_back(std::move(executor));

    // End-of-schedule invariant: settle whatever is still queued, then every
    // job's trace must validate against its outcome.
    scenario.finally = [state] {
      state->queue.shed_all(SolveStatus::kShedCapacity, "end of schedule");
      const auto traces = obs::retained_traces();
      for (PctJob& job : state->jobs) {
        const SolveResult res = job.future.get();
        const obs::RetainedTrace* t = nullptr;
        for (const obs::RetainedTrace& cand : traces) {
          if (cand.meta.trace_id == job.trace_id) t = &cand;
        }
        if (t == nullptr) {
          throw std::logic_error("job " + std::to_string(job.id) +
                                 " settled without a retained trace");
        }
        std::string why;
        if (!obs::validate_trace(*t, solve_completed(res.status), &why)) {
          throw std::logic_error("job " + std::to_string(job.id) + " (" +
                                 solve_status_name(res.status) +
                                 "): " + why);
        }
      }
    };
    return scenario;
  };

  check::ScheduleOptions opts;
  opts.schedules = 200;
  check::ScheduleExplorer explorer(opts);
  const check::ScheduleReport report = explorer.run(build);
  EXPECT_FALSE(report.failed)
      << "seed " << report.failing_seed << " in " << report.failing_task
      << ": " << report.failure;
  EXPECT_EQ(report.schedules_run, 200u);
}

}  // namespace
