#pragma once
// Bounded admission queue with priority lanes and deadline shedding.
//
// One FIFO lane per Priority.  The queue owns each queued job's result
// promise, so every admission decision — accept, reject-at-capacity, evict a
// lower-priority job, shed an expired deadline — fulfils the affected
// promise immediately; callers always get an answer, never a dangling
// future.
//
// Backpressure policy (docs/serve.md):
//   * Total depth is bounded by `capacity`.  A push into a full queue evicts
//     the NEWEST job of the LOWEST non-empty lane that is strictly lower
//     priority than the incoming job (its promise resolves kShedCapacity);
//     with no such victim the incoming job itself is rejected.
//   * pop_best() sweeps expired deadlines first (kShedDeadline), then scans
//     lanes high -> low, FIFO within a lane, returning the first job whose
//     gang fits the caller's free core budget.
//   * A small job may bypass a too-big head-of-line job at most
//     kMaxHeadBypass consecutive times; after that the queue holds dispatch
//     until the head job fits, so wide gangs cannot starve.
//
// Thread safety: fully internally synchronised; any thread may push, pop,
// or poke.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>

#include "sacpp/common/lockorder.hpp"
#include "sacpp/serve/job.hpp"

namespace sacpp::serve {

// A request plus the bookkeeping the scheduler needs.  Timestamps are on the
// obs::now_ns() steady clock.
struct QueuedJob {
  SolveRequest request;
  std::uint32_t gang = 1;        // resolved worker-thread grant
  std::int64_t submit_ns = 0;    // submit() entry
  std::int64_t enqueue_ns = 0;   // admission into the queue
  std::int64_t deadline_ns = 0;  // absolute deadline; 0 = none
  std::promise<SolveResult> promise;
};

struct QueueCounters {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;       // pushed into a full queue, no victim
  std::uint64_t evicted = 0;        // displaced by a higher-priority push
  std::uint64_t shed_deadline = 0;  // expired before dispatch
  std::uint64_t shed_overload = 0;  // low-priority push shed by the SLO advisory
  std::uint64_t dispatched = 0;
  std::size_t peak_depth = 0;
};

class AdmissionQueue {
 public:
  // Consecutive dispatches allowed to jump over a head-of-line job that does
  // not fit the free-core budget before the queue insists on draining it.
  static constexpr std::uint32_t kMaxHeadBypass = 8;

  explicit AdmissionQueue(std::size_t capacity);

  // Settles every still-queued job (kShedCapacity) before the promises are
  // torn down: a queue destroyed mid-flight must never leave a caller with a
  // broken_promise future.
  ~AdmissionQueue();

  enum class Admit : std::uint8_t {
    kAccepted,
    kAcceptedEvicted,  // accepted; a lower-priority job was displaced
    kRejected,         // full and nothing lower-priority to displace
    kShedOverload,     // low-priority push shed on the SLO overload advisory
    kClosed,           // queue closed (service stopping)
  };

  // Advisory overload signal (the SLO watchdog's overloaded()).  Consulted
  // under the queue lock on every LOW-priority push, so it must be cheap
  // and lock-free and must never call back into this queue.  When it
  // returns true the push is shed immediately (kShedCapacity verdict on the
  // promise) instead of aging out in a lane that will not drain in budget.
  using OverloadAdvisor = std::function<bool()>;
  void set_overload_advisor(OverloadAdvisor advisor);

  // Called (outside no locks the observer can see) for every job this queue
  // settles itself — sheds, rejections, evictions — so the service's SLO
  // watchdog sees the requests that never reach an executor.  Advisory
  // sheds (kShedOverload) are the one exception: they follow from the
  // watchdog's own advice, and feeding them back into its shed ratio would
  // latch the advice on.  Same constraints as the advisor: cheap, no calls
  // back into the queue.
  using SettleObserver = std::function<void(Priority, SolveStatus)>;
  void set_settle_observer(SettleObserver observer);

  // Always consumes `job`: on kRejected / kClosed its promise is fulfilled
  // (kShedCapacity) before returning, so the caller only keeps the future.
  Admit push(QueuedJob&& job);

  // Non-blocking: shed expired jobs, then hand out the best dispatchable job
  // whose gang fits `free_cores`.  `now_ns` is obs::now_ns() at the call.
  bool pop_best(unsigned free_cores, std::int64_t now_ns, QueuedJob* out);

  // Park until a push/poke/close arrives or `timeout_ns` elapses.
  void wait_for_work(std::int64_t timeout_ns);

  // Wake all waiters (e.g. cores were just freed, so a parked scheduler
  // should rescan).
  void poke();

  // Stop admitting; subsequent pushes return kClosed.  Queued jobs remain
  // poppable so a draining shutdown can finish them.
  void close();
  bool closed() const;

  // Fulfil every queued job's promise with `status` and empty the queue
  // (non-draining shutdown).  Returns how many were flushed.
  std::size_t shed_all(SolveStatus status, const std::string& why);

  std::size_t depth() const;
  std::size_t lane_depth(Priority p) const;
  QueueCounters counters() const;

 private:
  std::size_t depth_locked() const;
  // Settles the promise, records/retains the job's trace when it carries
  // one (a shed is always an anomaly worth a post-mortem), and, when
  // `observed`, notifies the settle observer.
  void settle(QueuedJob&& job, SolveStatus status, const std::string& why,
              bool observed = true);

  const std::size_t capacity_;
  // Tracked for the lock-order analyzer (docs/static_analysis.md); _any cv
  // because TrackedMutex is Lockable but not std::mutex.
  mutable TrackedMutex mutex_{"serve.queue"};
  std::condition_variable_any cv_;
  std::deque<QueuedJob> lanes_[kPriorityLanes];
  QueueCounters counters_;
  OverloadAdvisor overload_advisor_;
  SettleObserver settle_observer_;
  std::uint32_t head_bypass_ = 0;
  bool closed_ = false;
};

}  // namespace sacpp::serve
