#include "sacpp/serve/queue.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "sacpp/common/error.hpp"
#include "sacpp/obs/obs.hpp"
#include "sacpp/obs/trace.hpp"

namespace sacpp::serve {

AdmissionQueue::AdmissionQueue(std::size_t capacity) : capacity_(capacity) {
  SACPP_REQUIRE(capacity >= 1, "admission queue capacity must be >= 1");
}

AdmissionQueue::~AdmissionQueue() {
  // A queue destroyed while jobs are still parked must settle them: letting
  // the promises die unset turns every waiter's future.get() into
  // std::future_error(broken_promise) instead of an explicit shed verdict.
  shed_all(SolveStatus::kShedCapacity, "admission queue destroyed");
}

std::size_t AdmissionQueue::depth_locked() const {
  std::size_t n = 0;
  for (const auto& lane : lanes_) n += lane.size();
  return n;
}

void AdmissionQueue::settle(QueuedJob&& job, SolveStatus status,
                            const std::string& why, bool observed) {
  SolveResult res;
  res.id = job.request.id;
  res.status = status;
  res.gang = job.gang;
  res.error = why;
  res.trace_id = job.request.trace_id;
  const std::int64_t now = obs::now_ns();
  if (job.enqueue_ns > 0) res.queue_ns = std::max<std::int64_t>(0, now - job.enqueue_ns);
  if (job.submit_ns > 0) res.e2e_ns = std::max<std::int64_t>(0, now - job.submit_ns);
  if (job.request.trace_id != 0) {
    // A shed is always an anomaly worth a post-mortem: record the span pair
    // on this thread's ring and retain the trace unconditionally, bypassing
    // the tail sampler.
    const obs::TraceContext ctx{job.request.trace_id, job.request.trace_parent,
                                job.request.trace_flags};
    if (obs::enabled()) {
      const obs::TraceBinding bind(ctx);
      if (job.enqueue_ns > 0) {
        obs::record_span(obs::SpanKind::kPhase, obs::kSpanServeQueue,
                         job.enqueue_ns, res.queue_ns,
                         static_cast<std::int64_t>(job.request.priority));
      }
      if (job.submit_ns > 0) {
        obs::record_span(obs::SpanKind::kPhase, obs::kSpanServeE2e,
                         job.submit_ns, res.e2e_ns,
                         static_cast<std::int64_t>(job.request.id));
      }
    }
    obs::TraceMeta meta;
    meta.trace_id = job.request.trace_id;
    meta.request_id = job.request.id;
    meta.reason = obs::RetainReason::kShed;
    meta.status = solve_status_name(status);
    meta.priority = static_cast<int>(job.request.priority);
    meta.submit_ns = job.submit_ns;
    meta.queue_ns = res.queue_ns;
    meta.exec_ns = 0;
    meta.e2e_ns = res.e2e_ns;
    meta.gang = job.gang;
    meta.flags = job.request.trace_flags;
    obs::retain_trace(meta);
  }
  if (observed && settle_observer_) {
    settle_observer_(job.request.priority, status);
  }
  job.promise.set_value(std::move(res));
}

void AdmissionQueue::set_overload_advisor(OverloadAdvisor advisor) {
  std::lock_guard<TrackedMutex> lock(mutex_);
  overload_advisor_ = std::move(advisor);
}

void AdmissionQueue::set_settle_observer(SettleObserver observer) {
  std::lock_guard<TrackedMutex> lock(mutex_);
  settle_observer_ = std::move(observer);
}

AdmissionQueue::Admit AdmissionQueue::push(QueuedJob&& job) {
  Admit verdict;
  {
    std::lock_guard<TrackedMutex> lock(mutex_);
    if (closed_) {
      settle(std::move(job), SolveStatus::kShedCapacity,
             "admission queue closed (service stopping)");
      return Admit::kClosed;
    }
    const auto lane = static_cast<std::size_t>(job.request.priority);
    if (job.request.priority == Priority::kLow && overload_advisor_ &&
        overload_advisor_()) {
      // SLO feedback: under overload an incoming LOW job would only age out
      // in a lane that is not draining in budget — shed it at the door so
      // the caller can back off immediately.  The observer does not see
      // this shed: counted in the watchdog's shed ratio, the advice would
      // keep itself raised for as long as low-priority traffic exceeds
      // max_shed_ratio.
      counters_.shed_overload += 1;
      settle(std::move(job), SolveStatus::kShedCapacity,
             "shed at admission: SLO watchdog reports overload",
             /*observed=*/false);
      return Admit::kShedOverload;
    }
    if (depth_locked() >= capacity_) {
      // Full: displace the newest job of the lowest lane that is strictly
      // lower priority than the incoming job, if any.
      std::size_t victim_lane = kPriorityLanes;
      for (std::size_t l = kPriorityLanes; l-- > lane + 1;) {
        if (!lanes_[l].empty()) {
          victim_lane = l;
          break;
        }
      }
      if (victim_lane == kPriorityLanes) {
        counters_.rejected += 1;
        settle(std::move(job), SolveStatus::kShedCapacity,
               "admission queue full");
        return Admit::kRejected;
      }
      QueuedJob victim = std::move(lanes_[victim_lane].back());
      lanes_[victim_lane].pop_back();
      counters_.evicted += 1;
      settle(std::move(victim), SolveStatus::kShedCapacity,
             "evicted by a higher-priority request");
      lanes_[lane].push_back(std::move(job));
      counters_.accepted += 1;
      verdict = Admit::kAcceptedEvicted;
    } else {
      lanes_[lane].push_back(std::move(job));
      counters_.accepted += 1;
      verdict = Admit::kAccepted;
    }
    counters_.peak_depth = std::max(counters_.peak_depth, depth_locked());
  }
  cv_.notify_all();
  return verdict;
}

bool AdmissionQueue::pop_best(unsigned free_cores, std::int64_t now_ns,
                              QueuedJob* out) {
  std::lock_guard<TrackedMutex> lock(mutex_);
  // Deadline sweep: a job whose budget already expired can only produce a
  // late answer, so shed it here rather than burn cores on it.
  for (auto& lane : lanes_) {
    for (auto it = lane.begin(); it != lane.end();) {
      if (it->deadline_ns != 0 && now_ns > it->deadline_ns) {
        counters_.shed_deadline += 1;
        settle(std::move(*it), SolveStatus::kShedDeadline,
               "deadline expired while queued");
        it = lane.erase(it);
      } else {
        ++it;
      }
    }
  }
  // First job in priority-then-FIFO order (the "head"), and the first job in
  // that order that actually fits the core budget.
  std::deque<QueuedJob>* fit_lane = nullptr;
  std::deque<QueuedJob>::iterator fit_it;
  bool fit_is_head = true;
  for (auto& lane : lanes_) {
    for (auto it = lane.begin(); it != lane.end(); ++it) {
      if (it->gang <= free_cores) {
        fit_lane = &lane;
        fit_it = it;
        goto found;
      }
      fit_is_head = false;  // something ahead of the fit was skipped
    }
  }
found:
  if (fit_lane == nullptr) return false;
  if (!fit_is_head) {
    // Bypassing the head job: allowed a bounded number of consecutive
    // times, after which dispatch stalls until the head fits (anti-
    // starvation for wide gangs).
    if (head_bypass_ >= kMaxHeadBypass) return false;
    head_bypass_ += 1;
  } else {
    head_bypass_ = 0;
  }
  *out = std::move(*fit_it);
  fit_lane->erase(fit_it);
  counters_.dispatched += 1;
  return true;
}

void AdmissionQueue::wait_for_work(std::int64_t timeout_ns) {
  std::unique_lock<TrackedMutex> lock(mutex_);
  if (closed_ || depth_locked() != 0) return;
  cv_.wait_for(lock, std::chrono::nanoseconds(timeout_ns));
}

void AdmissionQueue::poke() { cv_.notify_all(); }

void AdmissionQueue::close() {
  {
    std::lock_guard<TrackedMutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool AdmissionQueue::closed() const {
  std::lock_guard<TrackedMutex> lock(mutex_);
  return closed_;
}

std::size_t AdmissionQueue::shed_all(SolveStatus status,
                                     const std::string& why) {
  std::lock_guard<TrackedMutex> lock(mutex_);
  std::size_t flushed = 0;
  for (auto& lane : lanes_) {
    for (auto& job : lane) {
      settle(std::move(job), status, why);
      flushed += 1;
    }
    lane.clear();
  }
  return flushed;
}

std::size_t AdmissionQueue::depth() const {
  std::lock_guard<TrackedMutex> lock(mutex_);
  return depth_locked();
}

std::size_t AdmissionQueue::lane_depth(Priority p) const {
  std::lock_guard<TrackedMutex> lock(mutex_);
  return lanes_[static_cast<std::size_t>(p)].size();
}

QueueCounters AdmissionQueue::counters() const {
  std::lock_guard<TrackedMutex> lock(mutex_);
  return counters_;
}

}  // namespace sacpp::serve
