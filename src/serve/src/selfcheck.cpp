#include "sacpp/serve/selfcheck.hpp"

#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sacpp/check/lockorder.hpp"
#include "sacpp/check/schedule.hpp"
#include "sacpp/common/error.hpp"
#include "sacpp/msg/msg.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/serve/queue.hpp"
#include "sacpp/serve/server.hpp"
#include "sacpp/serve/wire.hpp"

namespace sacpp::serve {

namespace {

constexpr int kCheckTag = 77;  // wire tag used by the self-check world

// Reserved-tag magnitude of msg::World's broadcast (msg.cpp tag -1000),
// used as the collective's session-event kind.
constexpr std::uint32_t kBroadcastKind = 1000;

}  // namespace

// ---------------------------------------------------------------------------
// Pass selection
// ---------------------------------------------------------------------------

bool parse_check_pass(const std::string& value, CheckPass* out) {
  if (value == "protocol") {
    *out = CheckPass::kProtocol;
  } else if (value == "locks") {
    *out = CheckPass::kLocks;
  } else if (value == "schedule") {
    *out = CheckPass::kSchedule;
  } else if (value == "all") {
    *out = CheckPass::kAll;
  } else {
    return false;
  }
  return true;
}

const char* check_pass_name(CheckPass pass) noexcept {
  switch (pass) {
    case CheckPass::kProtocol:
      return "protocol";
    case CheckPass::kLocks:
      return "locks";
    case CheckPass::kSchedule:
      return "schedule";
    case CheckPass::kAll:
      return "all";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Session specs of the serve wire protocol
// ---------------------------------------------------------------------------

namespace {

// Both endpoint specs share the response choice: one transition per
// SolveStatus, distinguished by the result frame's status byte.
void add_response_branches(check::SessionSpec* spec, check::Dir dir) {
  const struct {
    SolveStatus status;
    const char* label;
  } kBranches[] = {
      {SolveStatus::kOk, "SRS1:ok"},
      {SolveStatus::kWrongAnswer, "SRS1:wrong-answer"},
      {SolveStatus::kShedDeadline, "SRS1:shed-deadline"},
      {SolveStatus::kShedCapacity, "SRS1:shed-capacity"},
      {SolveStatus::kDeadlineMiss, "SRS1:deadline-miss"},
      {SolveStatus::kError, "SRS1:error"},
  };
  for (const auto& b : kBranches) {
    spec->transitions.push_back({1, dir, kResultMagic,
                                 static_cast<std::uint32_t>(b.status), 0,
                                 b.label});
  }
}

}  // namespace

check::SessionSpec client_session_spec() {
  check::SessionSpec spec;
  spec.name = "serve.wire";
  spec.start = 0;
  spec.accepting = {0};
  spec.transitions.push_back(
      {0, check::Dir::kSend, kRequestMagic, check::kAnyBranch, 1, "SRQ1"});
  add_response_branches(&spec, check::Dir::kRecv);
  return spec;
}

check::SessionSpec server_session_spec() {
  check::SessionSpec spec;
  spec.name = "serve.wire";
  spec.start = 0;
  spec.accepting = {0};
  spec.transitions.push_back(
      {0, check::Dir::kRecv, kRequestMagic, check::kAnyBranch, 1, "SRQ1"});
  add_response_branches(&spec, check::Dir::kSend);
  return spec;
}

// ---------------------------------------------------------------------------
// protocol pass
// ---------------------------------------------------------------------------

namespace {

// TypedChannel transport over a Comm peer: kinds are enforced by the
// protocol type, the frames themselves flow through the monitored
// send_frame / recv_frame path.
struct CommTransport {
  msg::Comm* comm;
  int peer;

  void send(std::uint32_t, std::span<const std::uint8_t> frame) {
    send_frame(*comm, peer, kCheckTag, frame);
  }
  std::vector<std::uint8_t> recv(std::uint32_t) {
    return recv_frame(*comm, peer, kCheckTag);
  }
};

// One response per SolveStatus so the exchange exercises every choice
// branch — finish() then proves the spec has no dead transitions either.
constexpr SolveStatus kProtocolRounds[] = {
    SolveStatus::kOk,           SolveStatus::kWrongAnswer,
    SolveStatus::kShedDeadline, SolveStatus::kShedCapacity,
    SolveStatus::kDeadlineMiss, SolveStatus::kError,
};
constexpr std::size_t kProtocolRoundCount =
    sizeof(kProtocolRounds) / sizeof(kProtocolRounds[0]);

void protocol_client(msg::Comm& comm) {
  for (std::size_t i = 0; i < kProtocolRoundCount; ++i) {
    SolveRequest req;
    req.id = i + 1;
    req.nit = 1;
    const std::vector<std::uint8_t> frame = encode_request(req);
    std::vector<std::uint8_t> reply;
    if (i == 0) {
      // First round through the static layer: the protocol type permits
      // exactly send-then-recv; anything else would not compile.
      using Proto = check::proto::Seq<check::proto::Send<kRequestMagic>,
                                      check::proto::Recv<kResultMagic>>;
      CommTransport transport{&comm, 1};
      auto c0 = check::make_typed_channel<Proto>(transport);
      auto c1 = std::move(c0).send(frame);
      auto c2 = std::move(c1).recv(&reply);
      static_assert(decltype(c2)::kDone);
    } else {
      send_frame(comm, 1, kCheckTag, frame);
      reply = recv_frame(comm, 1, kCheckTag);
    }
    SolveResult res;
    std::string error;
    SACPP_REQUIRE(decode_result(reply, &res, &error),
                  "protocol check: result frame failed to decode");
    SACPP_REQUIRE(res.id == req.id,
                  "protocol check: response id does not match the request");
    SACPP_REQUIRE(res.status == kProtocolRounds[i],
                  "protocol check: response carries the wrong status branch");
  }
}

void protocol_server(msg::Comm& comm) {
  for (std::size_t i = 0; i < kProtocolRoundCount; ++i) {
    const std::vector<std::uint8_t> frame = recv_frame(comm, 0, kCheckTag);
    SolveRequest req;
    std::string error;
    SACPP_REQUIRE(decode_request(frame, &req, &error),
                  "protocol check: request frame failed to decode");
    SolveResult res;
    res.id = req.id;
    res.status = kProtocolRounds[i];
    if (res.status == SolveStatus::kError) res.error = "selfcheck error leg";
    send_frame(comm, 0, kCheckTag, encode_result(res));
  }
}

}  // namespace

bool run_protocol_check(check::DiagnosticEngine* engine) {
  const std::size_t before = engine->size();

  const check::SessionSpec client_spec = client_session_spec();
  const check::SessionSpec server_spec = server_session_spec();
  check::SessionMonitor client_mon(&client_spec, "client");
  check::SessionMonitor server_mon(&server_spec, "server");

  // The collective leg: a root broadcast observed per endpoint against the
  // collective session spec (the leaf runs the dual).
  const check::SessionSpec bcast_root =
      check::collective_session_spec("broadcast", kBroadcastKind,
                                     check::Dir::kSend);
  const check::SessionSpec bcast_leaf =
      check::collective_session_spec("broadcast", kBroadcastKind,
                                     check::Dir::kRecv);
  check::SessionMonitor root_mon(&bcast_root, "rank0");
  check::SessionMonitor leaf_mon(&bcast_leaf, "rank1");

  try {
    msg::World world(2);
    world.run([&](msg::Comm& comm) {
      // Checked mode on for this rank thread only: the wire hooks gate on
      // the active config, not the process-global one.
      sac::SacConfig snapshot = sac::active_config();
      snapshot.check = true;
      sac::ConfigBinding binding(&snapshot);

      if (comm.rank() == 0) {
        {
          check::MonitorBinding bind(&client_mon);
          protocol_client(comm);
        }
        check::MonitorBinding bind(&root_mon);
        double value = 42.0;
        check::note_channel_event(check::Dir::kSend, kBroadcastKind);
        comm.broadcast(0, std::span<double>(&value, 1));
      } else {
        {
          check::MonitorBinding bind(&server_mon);
          protocol_server(comm);
        }
        check::MonitorBinding bind(&leaf_mon);
        double value = 0.0;
        check::note_channel_event(check::Dir::kRecv, kBroadcastKind);
        comm.broadcast(0, std::span<double>(&value, 1));
        SACPP_REQUIRE(value == 42.0,
                      "protocol check: broadcast payload corrupted");
      }
    });
  } catch (const std::exception& e) {
    engine->report(check::Severity::kError, check::Pass::kSession,
                   "serve.wire/world", e.what());
  }

  client_mon.finish();
  server_mon.finish();
  root_mon.finish();
  leaf_mon.finish();
  engine->report_all(client_mon.engine().diagnostics());
  engine->report_all(server_mon.engine().diagnostics());
  engine->report_all(root_mon.engine().diagnostics());
  engine->report_all(leaf_mon.engine().diagnostics());

  // Full coverage is part of the contract: dead-branch warnings fail too.
  return engine->size() == before;
}

// ---------------------------------------------------------------------------
// locks pass
// ---------------------------------------------------------------------------

bool run_lock_check(const SelfCheckOptions& opts,
                    check::DiagnosticEngine* engine) {
  const std::size_t errors_before = engine->count(check::Severity::kError);

  check::LockOrderSession session;
  {
    // Class-S serve traffic: admission, dispatch, gang pools, the buffer
    // pool's lock under the solves, and the stop path.
    ServeConfig cfg;
    cfg.total_cores = 2;
    cfg.executors = 2;
    cfg.queue_capacity = 8;
    SolverService service(cfg);
    std::vector<std::future<SolveResult>> futures;
    for (std::uint64_t i = 0; i < 4; ++i) {
      SolveRequest req;
      req.id = i + 1;
      req.nit = 1;
      req.gang = (i % 2 == 0) ? 1 : 2;
      req.priority = static_cast<Priority>(i % kPriorityLanes);
      futures.push_back(service.submit(req));
    }
    service.drain();
    for (auto& f : futures) (void)f.get();
    service.stop();
  }
  {
    // msg traffic: mailbox / barrier / stats nesting via a frame exchange
    // plus the collectives MG uses.
    msg::World world(2);
    world.run([](msg::Comm& comm) {
      if (comm.rank() == 0) {
        SolveRequest req;
        req.id = 9;
        send_frame(comm, 1, kCheckTag, encode_request(req));
      } else {
        (void)recv_frame(comm, 0, kCheckTag);
      }
      comm.barrier();
      (void)comm.allreduce_sum(1.0);
    });
  }
  session.finish();
  engine->report_all(session.engine().diagnostics());
  if (!opts.lock_graph_path.empty()) {
    check::write_lock_graph(opts.lock_graph_path);
  }

  return engine->count(check::Severity::kError) == errors_before;
}

// ---------------------------------------------------------------------------
// schedule pass: AdmissionQueue against an exact model mirror
// ---------------------------------------------------------------------------

namespace {

// All schedule time is virtual (pop_best takes now_ns explicitly), so a
// schedule is a pure function of its seed: "now" is fixed and expiring
// deadlines simply sit in the past.
constexpr std::int64_t kVirtualNow = 1000;
constexpr std::int64_t kExpiredDeadline = 500;

struct ModelEntry {
  std::uint64_t id = 0;
  Priority prio = Priority::kNormal;
  unsigned gang = 1;
  std::int64_t deadline_ns = 0;
  std::future<SolveResult> fut;
  bool consumed = false;  // result already inspected
};

struct QueueModel {
  explicit QueueModel(std::size_t cap)
      : queue(std::make_unique<AdmissionQueue>(cap)), capacity(cap) {}

  std::unique_ptr<AdmissionQueue> queue;
  std::size_t capacity;
  std::vector<std::unique_ptr<ModelEntry>> entries;
  std::deque<ModelEntry*> lanes[kPriorityLanes];  // mirror of queued jobs
  unsigned bypass = 0;
  bool closed = false;
  std::uint64_t next_id = 1;

  std::size_t depth() const {
    std::size_t n = 0;
    for (const auto& lane : lanes) n += lane.size();
    return n;
  }
};

bool future_ready(const std::future<SolveResult>& fut) {
  return fut.valid() &&
         fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

// The settle-exactly-once invariant, entry-side: the promise must be
// fulfilled (ready, not broken) with the status the model predicts.
void expect_settled(ModelEntry* e, SolveStatus status) {
  SACPP_REQUIRE(future_ready(e->fut),
                "schedule: job promise not settled when the model says it "
                "must be");
  SACPP_REQUIRE(!e->consumed,
                "schedule: model asked to settle the same job twice");
  const SolveResult res = e->fut.get();
  e->consumed = true;
  SACPP_REQUIRE(res.status == status,
                "schedule: job settled with a status other than the model's "
                "prediction");
}

void model_push(QueueModel& m, Priority prio, unsigned gang,
                std::int64_t deadline_ns) {
  auto e = std::make_unique<ModelEntry>();
  e->id = m.next_id++;
  e->prio = prio;
  e->gang = gang;
  e->deadline_ns = deadline_ns;

  QueuedJob job;
  job.request.id = e->id;
  job.request.priority = prio;
  job.gang = gang;
  job.deadline_ns = deadline_ns;
  e->fut = job.promise.get_future();
  const AdmissionQueue::Admit verdict = m.queue->push(std::move(job));

  const auto lane = static_cast<std::size_t>(prio);
  if (m.closed) {
    SACPP_REQUIRE(verdict == AdmissionQueue::Admit::kClosed,
                  "schedule: push after close must report kClosed");
    expect_settled(e.get(), SolveStatus::kShedCapacity);
  } else if (m.depth() < m.capacity) {
    SACPP_REQUIRE(verdict == AdmissionQueue::Admit::kAccepted,
                  "schedule: push below capacity must be accepted");
    m.lanes[lane].push_back(e.get());
  } else {
    std::size_t victim_lane = kPriorityLanes;
    for (std::size_t l = kPriorityLanes; l-- > lane + 1;) {
      if (!m.lanes[l].empty()) {
        victim_lane = l;
        break;
      }
    }
    if (victim_lane == kPriorityLanes) {
      SACPP_REQUIRE(verdict == AdmissionQueue::Admit::kRejected,
                    "schedule: full queue with no lower-priority victim must "
                    "reject");
      expect_settled(e.get(), SolveStatus::kShedCapacity);
    } else {
      SACPP_REQUIRE(verdict == AdmissionQueue::Admit::kAcceptedEvicted,
                    "schedule: full queue with a lower-priority victim must "
                    "evict");
      ModelEntry* victim = m.lanes[victim_lane].back();
      // Eviction preserves priority ordering: only a strictly lower-priority
      // job may be displaced, and its promise settles immediately.
      SACPP_REQUIRE(victim_lane > lane,
                    "schedule: eviction displaced an equal-or-higher "
                    "priority job");
      expect_settled(victim, SolveStatus::kShedCapacity);
      m.lanes[victim_lane].pop_back();
      m.lanes[lane].push_back(e.get());
    }
  }
  m.entries.push_back(std::move(e));
}

void model_pop(QueueModel& m, unsigned free_cores) {
  QueuedJob out;
  const bool got = m.queue->pop_best(free_cores, kVirtualNow, &out);

  // Mirror the deadline sweep: expired jobs settle kShedDeadline first.
  for (auto& lane : m.lanes) {
    for (auto it = lane.begin(); it != lane.end();) {
      if ((*it)->deadline_ns != 0 && kVirtualNow > (*it)->deadline_ns) {
        expect_settled(*it, SolveStatus::kShedDeadline);
        it = lane.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Expected dispatch: first fit in priority-then-FIFO order, bounded
  // head-of-line bypass.
  ModelEntry* fit = nullptr;
  bool fit_is_head = true;
  for (auto& lane : m.lanes) {
    for (ModelEntry* e : lane) {
      if (e->gang <= free_cores) {
        fit = e;
        goto found;
      }
      fit_is_head = false;
    }
  }
found:
  if (fit == nullptr) {
    SACPP_REQUIRE(!got, "schedule: pop dispatched a job no lane can fit");
    return;
  }
  if (!fit_is_head && m.bypass >= AdmissionQueue::kMaxHeadBypass) {
    SACPP_REQUIRE(!got,
                  "schedule: head-of-line bypass exceeded kMaxHeadBypass");
    return;
  }
  SACPP_REQUIRE(got, "schedule: a dispatchable job was not handed out");
  SACPP_REQUIRE(out.request.id == fit->id,
                "schedule: dispatched job is not the priority-FIFO first "
                "fit");
  m.bypass = fit_is_head ? 0 : m.bypass + 1;
  for (auto& lane : m.lanes) {
    for (auto it = lane.begin(); it != lane.end(); ++it) {
      if (*it == fit) {
        lane.erase(it);
        goto removed;
      }
    }
  }
removed:
  // Settle as the executor would; the promise throws if the queue already
  // settled this job (the settle-exactly-once invariant, queue-side).
  SolveResult res;
  res.id = out.request.id;
  res.status = SolveStatus::kOk;
  res.gang = out.gang;
  out.promise.set_value(res);
  expect_settled(fit, SolveStatus::kOk);
}

void model_shed(QueueModel& m) {
  const std::size_t flushed =
      m.queue->shed_all(SolveStatus::kShedCapacity, "schedule shed");
  SACPP_REQUIRE(flushed == m.depth(),
                "schedule: shed_all flushed a different count than queued");
  for (auto& lane : m.lanes) {
    for (ModelEntry* e : lane) expect_settled(e, SolveStatus::kShedCapacity);
    lane.clear();
  }
}

void model_finish(QueueModel& m) {
  // Destroying the queue exercises the destructor shed: anything still
  // queued must settle, never break its promise.
  m.queue.reset();
  for (auto& e : m.entries) {
    if (e->consumed) continue;
    SACPP_REQUIRE(future_ready(e->fut),
                  "schedule: a job promise was left unsettled at queue "
                  "destruction");
    try {
      (void)e->fut.get();
    } catch (const std::future_error&) {
      SACPP_REQUIRE(false,
                    "schedule: broken promise at queue destruction");
    }
  }
}

check::ScheduleScenario build_queue_scenario(std::uint64_t seed) {
  auto m = std::make_shared<QueueModel>(4);
  // Independent stream from the explorer's interleaving RNG so the
  // operation mix and the schedule vary independently.
  check::ScheduleRng rng(seed ^ 0xc2b2ae3d27d4eb4full);

  check::ScheduleScenario scenario;
  for (const char* name : {"producer-a", "producer-b"}) {
    check::ScheduleTask producer;
    producer.name = name;
    for (int i = 0; i < 4; ++i) {
      const auto prio = static_cast<Priority>(rng.below(kPriorityLanes));
      const unsigned gang = 1 + static_cast<unsigned>(rng.below(3));
      const std::int64_t deadline =
          rng.below(5) == 0 ? kExpiredDeadline : 0;
      producer.steps.push_back(
          [m, prio, gang, deadline] { model_push(*m, prio, gang, deadline); });
    }
    scenario.tasks.push_back(std::move(producer));
  }

  check::ScheduleTask dispatcher;
  dispatcher.name = "dispatcher";
  for (int i = 0; i < 5; ++i) {
    const unsigned cores = 1 + static_cast<unsigned>(rng.below(4));
    dispatcher.steps.push_back([m, cores] { model_pop(*m, cores); });
  }
  scenario.tasks.push_back(std::move(dispatcher));

  check::ScheduleTask closer;
  closer.name = "closer";
  closer.steps.push_back([m] {
    m->queue->close();
    m->closed = true;
  });
  if (rng.below(2) == 0) {
    closer.steps.push_back([m] { model_shed(*m); });
  }
  scenario.tasks.push_back(std::move(closer));

  scenario.finally = [m] { model_finish(*m); };
  return scenario;
}

// ---------------------------------------------------------------------------
// schedule pass: SolverService lifecycles
// ---------------------------------------------------------------------------

struct ServiceModel {
  ServiceModel() : service(make_config()) {}

  static ServeConfig make_config() {
    ServeConfig cfg;
    cfg.total_cores = 2;
    cfg.executors = 2;
    cfg.queue_capacity = 8;
    cfg.trim_interval_ns = 0;
    return cfg;
  }

  SolverService service;
  std::vector<std::future<SolveResult>> futures;
};

check::ScheduleScenario build_service_scenario(std::uint64_t seed) {
  auto m = std::make_shared<ServiceModel>();
  check::ScheduleRng rng(seed ^ 0xa0761d6478bd642full);

  check::ScheduleScenario scenario;
  std::uint64_t id = 1;
  for (const char* name : {"client-a", "client-b"}) {
    check::ScheduleTask client;
    client.name = name;
    for (int i = 0; i < 2; ++i) {
      SolveRequest req;
      req.id = id++;
      req.nit = 1;
      req.priority = static_cast<Priority>(rng.below(kPriorityLanes));
      req.gang = 1 + static_cast<unsigned>(rng.below(2));
      // Occasional sub-dispatch deadline: sheds or misses, never dangles.
      if (rng.below(4) == 0) req.deadline_ns = 1;
      client.steps.push_back(
          [m, req] { m->futures.push_back(m->service.submit(req)); });
    }
    scenario.tasks.push_back(std::move(client));
  }

  check::ScheduleTask lifecycle;
  lifecycle.name = "lifecycle";
  lifecycle.steps.push_back([m] {
    m->service.drain();
    // Drain-on-stop completeness, first half: a returned drain means no
    // queued or running work...
    SACPP_REQUIRE(m->service.queue_depth() == 0 &&
                      m->service.active_jobs() == 0,
                  "schedule: drain returned with work still in flight");
    // ...and therefore every future submitted so far is settled.
    for (const auto& f : m->futures) {
      SACPP_REQUIRE(future_ready(f),
                    "schedule: drain returned before a submitted job "
                    "settled");
    }
  });
  lifecycle.steps.push_back([m] { m->service.stop(); });
  scenario.tasks.push_back(std::move(lifecycle));

  scenario.finally = [m] {
    m->service.stop();
    // Every submission — before or after stop — must have settled by now.
    for (auto& f : m->futures) {
      SACPP_REQUIRE(future_ready(f),
                    "schedule: a future was left unsettled after stop");
      (void)f.get();
    }
  };
  return scenario;
}

}  // namespace

bool run_schedule_check(const SelfCheckOptions& opts,
                        check::DiagnosticEngine* engine) {
  const std::size_t before = engine->size();

  check::ScheduleOptions queue_opts;
  queue_opts.schedules = opts.schedules;
  check::ScheduleExplorer queue_explorer(queue_opts);
  const check::ScheduleReport queue_report =
      opts.schedule_seed != 0
          ? queue_explorer.replay(opts.schedule_seed, build_queue_scenario,
                                  engine)
          : queue_explorer.run(build_queue_scenario, engine);

  bool service_ok = true;
  if (opts.schedule_seed == 0 && opts.service_lifecycles > 0) {
    check::ScheduleOptions service_opts;
    service_opts.schedules = opts.service_lifecycles;
    service_opts.first_seed = 1001;
    service_opts.preemptions = 2;
    check::ScheduleExplorer service_explorer(service_opts);
    service_ok =
        !service_explorer.run(build_service_scenario, engine).failed;
  }

  return !queue_report.failed && service_ok && engine->size() == before;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

bool run_self_checks(CheckPass pass, const SelfCheckOptions& opts,
                     check::DiagnosticEngine* engine) {
  bool ok = true;
  if (pass == CheckPass::kProtocol || pass == CheckPass::kAll) {
    ok = run_protocol_check(engine) && ok;
  }
  if (pass == CheckPass::kLocks || pass == CheckPass::kAll) {
    ok = run_lock_check(opts, engine) && ok;
  }
  if (pass == CheckPass::kSchedule || pass == CheckPass::kAll) {
    ok = run_schedule_check(opts, engine) && ok;
  }
  return ok;
}

}  // namespace sacpp::serve
