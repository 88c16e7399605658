#include "sacpp/serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#ifdef __linux__
#include <unistd.h>
#endif

#include "sacpp/common/error.hpp"
#include "sacpp/common/lockorder.hpp"
#include "sacpp/mg/driver.hpp"
#include "sacpp/obs/export.hpp"
#include "sacpp/obs/flight.hpp"
#include "sacpp/obs/obs.hpp"
#include "sacpp/obs/trace.hpp"
#include "sacpp/sac/pool.hpp"
#include "sacpp/sac/runtime.hpp"

namespace sacpp::serve {

namespace {

// The Prometheus collector registry is process-lifetime (obs collectors
// cannot be unregistered), so it indirects through this slot: the first
// live service owns it; its destructor clears it.
TrackedMutex g_service_mutex{"serve.collector"};
SolverService* g_current_service = nullptr;
std::atomic<bool> g_collector_registered{false};
std::atomic<bool> g_flight_provider_registered{false};

// Idle gang pools kept for reuse; beyond this they are torn down.
constexpr std::size_t kMaxIdlePools = 4;

constexpr std::int64_t kExecutorParkNs = 20'000'000;  // 20 ms rescan cadence

}  // namespace

// ---------------------------------------------------------------------------
// Config and latency summaries
// ---------------------------------------------------------------------------

ServeConfig::ServeConfig() : base(sac::config()) {}

double histogram_quantile_ns(const obs::LogHistogram& hist, double q) {
  const std::uint64_t total = hist.count();
  if (total == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (int i = 0; i < obs::LogHistogram::kBuckets; ++i) {
    seen += hist.bucket(i);
    if (seen >= target && seen > 0) {
      // Midpoint of the bucket's value range: log buckets only localise to
      // a power of two, so this is an estimate (documented in server.hpp).
      const std::uint64_t upper = obs::LogHistogram::bucket_upper(i);
      const std::uint64_t lower = i <= 1 ? static_cast<std::uint64_t>(i)
                                         : (std::uint64_t{1} << (i - 1));
      return (static_cast<double>(lower) + static_cast<double>(upper)) / 2.0;
    }
  }
  return static_cast<double>(
      obs::LogHistogram::bucket_upper(obs::LogHistogram::kBuckets - 1));
}

LatencySummary summarize_histogram(const obs::LogHistogram& hist) {
  LatencySummary s;
  s.count = hist.count();
  if (s.count == 0) return s;
  constexpr double kMs = 1e6;
  s.mean_ms = static_cast<double>(hist.sum()) /
              static_cast<double>(s.count) / kMs;
  s.p50_ms = histogram_quantile_ns(hist, 0.50) / kMs;
  s.p95_ms = histogram_quantile_ns(hist, 0.95) / kMs;
  s.p99_ms = histogram_quantile_ns(hist, 0.99) / kMs;
  return s;
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

SolverService::SolverService(const ServeConfig& cfg)
    : cfg_(cfg),
      queue_(cfg.queue_capacity),
      sampler_(cfg.trace_sample),
      watchdog_(cfg.slo) {
  if (cfg_.total_cores == 0) {
    cfg_.total_cores = std::max(1u, std::thread::hardware_concurrency());
  }
  if (cfg_.executors == 0) cfg_.executors = cfg_.total_cores;
  if (cfg_.max_gang == 0 || cfg_.max_gang > cfg_.total_cores) {
    cfg_.max_gang = cfg_.total_cores;
  }
  cores_free_ = cfg_.total_cores;
  start_ns_ = obs::now_ns();

  {
    std::lock_guard<TrackedMutex> lock(g_service_mutex);
    if (g_current_service == nullptr) g_current_service = this;
  }
  if (!g_collector_registered.exchange(true)) {
    obs::register_collector([](obs::MetricSink& sink) {
      std::lock_guard<TrackedMutex> lock(g_service_mutex);
      if (g_current_service != nullptr) g_current_service->collect(sink);
    });
  }

  // SLO feedback loop: the queue consults the watchdog's relaxed overload
  // flag on the push path, and reports every job it settles itself (sheds,
  // rejections, evictions; not the advisory sheds) so the shed ratio covers
  // requests no executor ever saw.
  queue_.set_overload_advisor([this] { return watchdog_.overloaded(); });
  queue_.set_settle_observer([this](Priority lane, SolveStatus status) {
    watchdog_.observe(lane, status, -1);
  });

  // Flight recorder: the black-box dump gains a "serve" section describing
  // the live service (queue/executor/core state) and a "locks" section with
  // the tracked-lock graph.  Like the metrics collector, providers are
  // process-lifetime, so they indirect through the current-service slot.
  if (!cfg_.flight_path.empty()) {
    obs::flight_configure(cfg_.flight_path);
    obs::flight_install_signal_handlers();
  }
  if (!g_flight_provider_registered.exchange(true)) {
    obs::flight_register_provider("serve", [] {
      std::lock_guard<TrackedMutex> lock(g_service_mutex);
      if (g_current_service == nullptr) return std::string("null");
      const ServerSnapshot snap = g_current_service->snapshot();
      std::string out = "{";
      const auto field = [&out](const char* key, std::uint64_t v,
                                bool first = false) {
        if (!first) out += ",";
        out += "\"";
        out += key;
        out += "\":";
        out += std::to_string(v);
      };
      field("queue_depth", snap.queue_depth, true);
      field("active_jobs", snap.active_jobs);
      field("cores_in_use", snap.cores_in_use);
      field("cores_total", snap.total_cores);
      field("submitted", snap.counters.submitted);
      field("completed_ok", snap.counters.completed_ok);
      field("errors", snap.counters.errors);
      field("deadline_miss", snap.counters.deadline_miss);
      field("rejected", snap.counters.queue.rejected);
      field("evicted", snap.counters.queue.evicted);
      field("shed_deadline", snap.counters.queue.shed_deadline);
      field("shed_overload", snap.counters.queue.shed_overload);
      out += "}";
      return out;
    });
    obs::flight_register_provider("locks", [] {
      const auto& reg = LockRegistry::instance();
      std::string out = "{\"tracked\":";
      out += std::to_string(reg.lock_count());
      out += ",\"edges\":";
      out += std::to_string(reg.edge_count());
      out += ",\"cycles\":";
      out += std::to_string(reg.find_cycles().size());
      out += "}";
      return out;
    });
  }

  executors_.reserve(cfg_.executors);
  for (unsigned slot = 0; slot < cfg_.executors; ++slot) {
    executors_.emplace_back([this, slot] { executor_loop(slot); });
  }
  if (cfg_.trim_interval_ns > 0) {
    housekeeper_ = std::thread([this] { housekeeping_loop(); });
  }
}

SolverService::~SolverService() {
  stop();
  std::lock_guard<TrackedMutex> lock(g_service_mutex);
  if (g_current_service == this) g_current_service = nullptr;
}

void SolverService::stop() {
  std::lock_guard<TrackedMutex> stop_lock(stop_mutex_);
  if (stopped_) return;
  stopping_.store(true, std::memory_order_release);
  queue_.close();
  queue_.shed_all(SolveStatus::kShedCapacity, "service stopping");
  queue_.poke();
  housekeeping_cv_.notify_all();
  for (auto& t : executors_) t.join();
  executors_.clear();
  if (housekeeper_.joinable()) housekeeper_.join();
  {
    std::lock_guard<TrackedMutex> lock(pools_mutex_);
    idle_pools_.clear();
  }
  stopped_ = true;
}

void SolverService::drain() {
  std::unique_lock<TrackedMutex> lock(done_mutex_);
  // Timed re-checks rather than pure waits: deadline sheds inside the
  // queue's sweep can empty it without a completion notification.
  while (queue_.depth() != 0 ||
         active_jobs_.load(std::memory_order_acquire) != 0) {
    done_cv_.wait_for(lock, std::chrono::milliseconds(5));
  }
}

bool SolverService::drain_for(std::int64_t timeout_ns) {
  const std::int64_t deadline = obs::now_ns() + timeout_ns;
  std::unique_lock<TrackedMutex> lock(done_mutex_);
  while (queue_.depth() != 0 ||
         active_jobs_.load(std::memory_order_acquire) != 0) {
    if (obs::now_ns() >= deadline) {
      // A drain that does not converge is exactly what the black box is
      // for: dump queue/executor/lock state before the caller escalates.
      obs::flight_dump("drain-timeout", /*force=*/true);
      return false;
    }
    done_cv_.wait_for(lock, std::chrono::milliseconds(5));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Submission
// ---------------------------------------------------------------------------

unsigned SolverService::resolve_gang(const SolveRequest& req) const {
  unsigned gang = req.gang;
  if (gang == 0) {
    const bool small = req.cls == mg::MgClass::S || req.cls == mg::MgClass::W;
    gang = small ? 1u : std::max(1u, cfg_.total_cores / 2);
  }
  return std::clamp(gang, 1u, cfg_.max_gang);
}

std::future<SolveResult> SolverService::submit(SolveRequest req) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (req.trace_id == 0 && cfg_.trace_sample > 0.0) {
    // In-process callers do not mint their own contexts; give every request
    // one so the tail sampler can decide retention after the outcome is
    // known (stamping is cheap — retention is what is sampled).
    req.trace_id = obs::mint_trace_id();
    req.trace_flags |= obs::kTraceSampled;
  }
  const std::int64_t now = obs::now_ns();
  QueuedJob job;
  job.request = req;
  job.gang = resolve_gang(req);
  job.submit_ns = now;
  job.enqueue_ns = now;
  const std::int64_t budget =
      req.deadline_ns > 0 ? req.deadline_ns : cfg_.default_deadline_ns;
  job.deadline_ns = budget > 0 ? now + budget : 0;
  std::future<SolveResult> result = job.promise.get_future();
  queue_.push(std::move(job));  // rejection/eviction settles promises inside
  return result;
}

// ---------------------------------------------------------------------------
// Executors
// ---------------------------------------------------------------------------

void SolverService::executor_loop(unsigned slot) {
  obs::set_thread_name("serve-exec-" + std::to_string(slot));
  for (;;) {
    QueuedJob job;
    bool have = false;
    {
      // pop_best and the core-budget deduction are one critical section, so
      // two executors can never both claim the same free cores.  active_jobs_
      // must rise inside the same section: incrementing it after the lock
      // drops opens a window where depth == 0 and active_jobs == 0 while a
      // popped job is still in flight, letting drain() return early.
      std::lock_guard<TrackedMutex> lock(dispatch_mutex_);
      if (queue_.pop_best(cores_free_, obs::now_ns(), &job)) {
        cores_free_ -= job.gang;
        active_jobs_.fetch_add(1, std::memory_order_acq_rel);
        have = true;
      }
    }
    if (!have) {
      if (stopping_.load(std::memory_order_acquire) && queue_.depth() == 0) {
        return;
      }
      queue_.wait_for_work(kExecutorParkNs);
      continue;
    }
    const unsigned gang = job.gang;
    cores_in_use_.fetch_add(gang, std::memory_order_relaxed);
    run_job(std::move(job));
    cores_in_use_.fetch_sub(gang, std::memory_order_relaxed);
    {
      std::lock_guard<TrackedMutex> lock(dispatch_mutex_);
      cores_free_ += gang;
    }
    active_jobs_.fetch_sub(1, std::memory_order_acq_rel);
    queue_.poke();  // freed cores: parked executors should rescan
    done_cv_.notify_all();
  }
}

void SolverService::run_job(QueuedJob job) {
  const std::int64_t dispatch_ns = obs::now_ns();
  const std::int64_t queue_ns = std::max<std::int64_t>(
      0, dispatch_ns - job.enqueue_ns);
  // Bind the request's trace context for the whole dispatch: every span the
  // solve records below — the serve_job exec span, with-loops, V-cycle
  // levels, pool traffic (parallel_for re-binds on the gang workers) — gets
  // stamped with this id.
  const obs::TraceContext trace_ctx{job.request.trace_id,
                                    job.request.trace_parent,
                                    job.request.trace_flags};
  const obs::TraceBinding trace_binding(trace_ctx);
  queue_wait_hist_.observe(static_cast<std::uint64_t>(queue_ns),
                           trace_ctx.trace_id);
  if (obs::enabled()) [[unlikely]] {
    obs::observe(obs::Hist::kServeQueueNs,
                 static_cast<std::uint64_t>(queue_ns), trace_ctx.trace_id);
    if (trace_ctx.active()) {
      // Retroactive queue-wait span: the wait already happened (on no
      // particular thread), so record it here with explicit bounds.
      obs::record_span(obs::SpanKind::kPhase, obs::kSpanServeQueue,
                       job.enqueue_ns, queue_ns,
                       static_cast<std::int64_t>(job.request.priority));
    }
  }

  SolveResult res;
  res.id = job.request.id;
  res.gang = job.gang;
  res.queue_ns = queue_ns;
  res.trace_id = trace_ctx.trace_id;
  bool executed = false;

  if (job.deadline_ns != 0 && dispatch_ns > job.deadline_ns) {
    // The sweep in pop_best bounds this window, but it can still close
    // between the sweep and the dispatch.
    res.status = SolveStatus::kShedDeadline;
    res.error = "deadline expired at dispatch";
  } else {
    executed = true;
    // Per-job isolation: a config snapshot bound to this thread (and
    // propagated to pool workers by parallel_for) plus, for gangs, a
    // private ThreadPool — the process-global config()/runtime() are never
    // consulted while this job runs.
    sac::SacConfig snapshot = cfg_.base;
    snapshot.stencil_mode = job.request.stencil_mode;
    snapshot.backend = job.request.backend;
    snapshot.mt_enabled = job.gang > 1;
    snapshot.mt_threads = job.gang;
    sac::ConfigBinding config_binding(&snapshot);
    std::unique_ptr<sac::ThreadPool> pool;
    std::optional<sac::RuntimeBinding> runtime_binding;
    if (job.gang > 1) {
      pool = acquire_pool(job.gang);
      runtime_binding.emplace(pool.get());
    }
    mg::MgSpec spec = mg::MgSpec::for_class(job.request.cls);
    if (job.request.nit != 0) spec.nit = static_cast<int>(job.request.nit);
    mg::RunOptions opts;
    opts.warmup = false;  // serving times the solve, not the NPB protocol
    opts.record_norms = job.request.record_norms;
    try {
      const mg::MgResult run = mg::run_benchmark(job.request.variant, spec,
                                                 opts);
      res.final_norm = run.final_norm;
      res.seconds = run.seconds;
      bool known = false;
      res.verified = mg::verify(run, spec, &known);
      res.status = (known && !res.verified) ? SolveStatus::kWrongAnswer
                                            : SolveStatus::kOk;
    } catch (const std::exception& e) {
      res.status = SolveStatus::kError;
      res.error = e.what();
    } catch (...) {
      res.status = SolveStatus::kError;
      res.error = "unknown exception in solver";
    }
    runtime_binding.reset();
    if (pool) release_pool(std::move(pool));
  }

  const std::int64_t end_ns = obs::now_ns();
  const std::int64_t exec_ns = std::max<std::int64_t>(0, end_ns - dispatch_ns);
  res.e2e_ns = std::max<std::int64_t>(0, end_ns - job.submit_ns);
  if (res.status == SolveStatus::kOk && job.deadline_ns != 0 &&
      end_ns > job.deadline_ns) {
    res.status = SolveStatus::kDeadlineMiss;
  }

  switch (res.status) {
    case SolveStatus::kOk:
      completed_ok_.fetch_add(1, std::memory_order_relaxed);
      break;
    case SolveStatus::kDeadlineMiss:
      deadline_miss_.fetch_add(1, std::memory_order_relaxed);
      break;
    case SolveStatus::kWrongAnswer:
      wrong_answer_.fetch_add(1, std::memory_order_relaxed);
      break;
    case SolveStatus::kError:
      errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      break;
  }

  exec_hist_.observe(static_cast<std::uint64_t>(exec_ns), trace_ctx.trace_id);
  e2e_hist_[static_cast<std::size_t>(job.request.priority)].observe(
      static_cast<std::uint64_t>(res.e2e_ns), trace_ctx.trace_id);
  if (obs::enabled()) [[unlikely]] {
    obs::observe(obs::Hist::kServeJobNs, static_cast<std::uint64_t>(exec_ns),
                 trace_ctx.trace_id);
    obs::observe(obs::Hist::kServeE2eNs,
                 static_cast<std::uint64_t>(res.e2e_ns), trace_ctx.trace_id);
    if (executed) {
      // Recorded retroactively with exact dispatch -> completion bounds so
      // queue + exec tile the e2e root (the decomposition gate): a scoped
      // span around just the solve would miss pool spin-up and verification.
      obs::record_span(obs::SpanKind::kPhase, obs::kSpanServeExec,
                       dispatch_ns, exec_ns,
                       static_cast<std::int64_t>(job.request.id));
    }
    if (trace_ctx.active()) {
      // The stitched tree's root: submit -> completion, enclosing the queue
      // and exec spans recorded above.
      obs::record_span(obs::SpanKind::kPhase, obs::kSpanServeE2e,
                       job.submit_ns, res.e2e_ns,
                       static_cast<std::int64_t>(job.request.id));
    }
  }

  // SLO accounting (also drives the queue's overload advisory) and the
  // tail-retention decision.
  watchdog_.observe(job.request.priority, res.status, res.e2e_ns);
  watchdog_.observe_queue(queue_.depth(), cfg_.queue_capacity);
  sampler_.observe(static_cast<std::uint64_t>(res.e2e_ns));
  if (trace_ctx.active()) {
    const bool anomalous = res.status != SolveStatus::kOk;
    obs::RetainReason reason = obs::RetainReason::kSampled;
    if (sampler_.should_retain(static_cast<std::uint64_t>(res.e2e_ns),
                               anomalous, trace_ctx.flags, trace_ctx.trace_id,
                               &reason)) {
      if (anomalous) {
        switch (res.status) {
          case SolveStatus::kDeadlineMiss:
            reason = obs::RetainReason::kDeadline;
            break;
          case SolveStatus::kShedDeadline:
          case SolveStatus::kShedCapacity:
            reason = obs::RetainReason::kShed;
            break;
          default:
            reason = obs::RetainReason::kError;
            break;
        }
      }
      obs::TraceMeta meta;
      meta.trace_id = trace_ctx.trace_id;
      meta.request_id = job.request.id;
      meta.reason = reason;
      meta.status = solve_status_name(res.status);
      meta.priority = static_cast<int>(job.request.priority);
      meta.submit_ns = job.submit_ns;
      meta.queue_ns = queue_ns;
      meta.exec_ns = exec_ns;
      meta.e2e_ns = res.e2e_ns;
      meta.gang = static_cast<int>(job.gang);
      meta.flags = trace_ctx.flags;
      obs::retain_trace(meta);
    }
  }
  if (res.status == SolveStatus::kDeadlineMiss ||
      res.status == SolveStatus::kShedDeadline) {
    // Black-box trigger: a missed deadline is the moment operators want the
    // rings frozen (rate-limited inside flight_dump; no-op unconfigured).
    obs::flight_dump("deadline-miss");
  }

  job.promise.set_value(std::move(res));
}

// ---------------------------------------------------------------------------
// Gang pools and housekeeping
// ---------------------------------------------------------------------------

std::unique_ptr<sac::ThreadPool> SolverService::acquire_pool(unsigned gang) {
  {
    std::lock_guard<TrackedMutex> lock(pools_mutex_);
    for (auto it = idle_pools_.begin(); it != idle_pools_.end(); ++it) {
      if ((*it)->thread_count() == gang) {
        std::unique_ptr<sac::ThreadPool> pool = std::move(*it);
        idle_pools_.erase(it);
        return pool;
      }
    }
  }
  return std::make_unique<sac::ThreadPool>(gang);
}

void SolverService::release_pool(std::unique_ptr<sac::ThreadPool> pool) {
  std::lock_guard<TrackedMutex> lock(pools_mutex_);
  if (idle_pools_.size() < kMaxIdlePools) {
    idle_pools_.push_back(std::move(pool));
  }
  // else: dropped here, tearing the pool's threads down.
}

void SolverService::housekeeping_loop() {
  obs::set_thread_name("serve-housekeeper");
  std::unique_lock<TrackedMutex> lock(housekeeping_mutex_);
  while (!stopping_.load(std::memory_order_acquire)) {
    housekeeping_cv_.wait_for(
        lock, std::chrono::nanoseconds(cfg_.trim_interval_ns));
    if (stopping_.load(std::memory_order_acquire)) break;
    // Epoch trim releases cached pool blocks idle for two full epochs; safe
    // under live traffic (one short critical section on the pool's lock),
    // so a burst's arena pages drain back between bursts without stalling
    // jobs.
    sac::BufferPool::instance().trim();
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

ServerSnapshot SolverService::snapshot() const {
  ServerSnapshot snap;
  snap.counters.submitted = submitted_.load(std::memory_order_relaxed);
  snap.counters.completed_ok = completed_ok_.load(std::memory_order_relaxed);
  snap.counters.wrong_answer = wrong_answer_.load(std::memory_order_relaxed);
  snap.counters.errors = errors_.load(std::memory_order_relaxed);
  snap.counters.deadline_miss =
      deadline_miss_.load(std::memory_order_relaxed);
  snap.counters.queue = queue_.counters();
  snap.queue_depth = queue_.depth();
  snap.active_jobs = active_jobs_.load(std::memory_order_relaxed);
  snap.cores_in_use = cores_in_use_.load(std::memory_order_relaxed);
  snap.total_cores = cfg_.total_cores;
  snap.uptime_seconds =
      static_cast<double>(obs::now_ns() - start_ns_) / 1e9;
  snap.queue_wait = summarize_histogram(queue_wait_hist_);
  snap.exec = summarize_histogram(exec_hist_);
  for (int lane = 0; lane < kPriorityLanes; ++lane) {
    snap.e2e[lane] = summarize_histogram(e2e_hist_[lane]);
  }
  return snap;
}

void SolverService::collect(obs::MetricSink& sink) const {
  const ServerSnapshot snap = snapshot();
  sink.gauge("sacpp_serve_uptime_seconds", snap.uptime_seconds,
             "seconds since the solver service started");
  const long long rss = rss_bytes();
  if (rss >= 0) {
    sink.gauge("sacpp_serve_rss_bytes", static_cast<double>(rss),
               "resident set size of the serving process");
  }
  sink.gauge("sacpp_serve_active_jobs", snap.active_jobs,
             "solves currently executing");
  sink.gauge("sacpp_serve_queue_depth", static_cast<double>(snap.queue_depth),
             "requests waiting in the admission queue");
  sink.gauge("sacpp_serve_cores_in_use", snap.cores_in_use,
             "worker cores granted to running solves");
  sink.gauge("sacpp_serve_cores_total", snap.total_cores,
             "core budget shared by concurrent solves");
  sink.counter("sacpp_serve_requests_total",
               static_cast<double>(snap.counters.submitted),
               "solve requests submitted");
  sink.counter("sacpp_serve_completed_total",
               static_cast<double>(snap.counters.completed_ok),
               "solves completed with a verified (or unknown-class) answer");
  sink.counter("sacpp_serve_wrong_answer_total",
               static_cast<double>(snap.counters.wrong_answer),
               "solves whose result failed class verification");
  sink.counter("sacpp_serve_errors_total",
               static_cast<double>(snap.counters.errors),
               "solves that raised an error");
  sink.counter("sacpp_serve_deadline_miss_total",
               static_cast<double>(snap.counters.deadline_miss),
               "solves that finished after their deadline");
  sink.counter("sacpp_serve_shed_deadline_total",
               static_cast<double>(snap.counters.queue.shed_deadline),
               "requests shed because their deadline expired while queued");
  sink.counter("sacpp_serve_rejected_total",
               static_cast<double>(snap.counters.queue.rejected),
               "requests rejected by a full admission queue");
  sink.counter("sacpp_serve_evicted_total",
               static_cast<double>(snap.counters.queue.evicted),
               "queued requests evicted by higher-priority arrivals");
  sink.counter("sacpp_serve_dispatched_total",
               static_cast<double>(snap.counters.queue.dispatched),
               "requests handed to an executor");
  sink.counter("sacpp_serve_shed_overload_total",
               static_cast<double>(snap.counters.queue.shed_overload),
               "low-priority requests shed on the SLO overload advisory");
  watchdog_.collect(sink);
}

long long SolverService::rss_bytes() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1;
  long long total_pages = 0;
  long long rss_pages = 0;
  const int got = std::fscanf(f, "%lld %lld", &total_pages, &rss_pages);
  std::fclose(f);
  if (got != 2) return -1;
  return rss_pages * static_cast<long long>(sysconf(_SC_PAGESIZE));
#else
  return -1;
#endif
}

}  // namespace sacpp::serve
