#include "sacpp/msg/msg.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>

#include "sacpp/obs/export.hpp"
#include "sacpp/obs/obs.hpp"
#include "sacpp/obs/trace.hpp"

namespace sacpp::msg {

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

namespace {
// Collective traffic uses reserved negative tags (broadcast/gather/scatter);
// it is exempt from the bounded-mailbox cap because it is self-limiting (at
// most one collective message per rank pair in flight).
bool collective_tag(int tag) noexcept { return tag <= -1000; }

void accumulate(WorldStats& into, const WorldStats& s) {
  into.messages += s.messages;
  into.bytes += s.bytes;
  into.barriers += s.barriers;
  into.reductions += s.reductions;
  into.send_blocked += s.send_blocked;
  into.bytes_sent += s.bytes_sent;
  into.bytes_received += s.bytes_received;
  into.reconnects += s.reconnects;
}

// Process-global registry behind the sacpp_msg_* Prometheus counters: totals
// across every world this process ever ran (live worlds polled, destroyed
// worlds folded into `retired` so the counters stay monotonic).  Leaked
// intentionally — worlds may outlive static destruction order.
struct WorldRegistry {
  TrackedMutex mutex{"msg.registry"};
  std::vector<const World*> live;
  WorldStats retired;
};

WorldRegistry& registry() {
  static auto* r = new WorldRegistry();
  return *r;
}

void register_world(const World* world) {
  auto& reg = registry();
  {
    std::lock_guard<TrackedMutex> lock(reg.mutex);
    reg.live.push_back(world);
  }
  static std::once_flag collector_once;
  std::call_once(collector_once, [] {
    obs::register_collector([](obs::MetricSink& sink) {
      WorldStats total;
      {
        auto& r = registry();
        std::lock_guard<TrackedMutex> lock(r.mutex);
        total = r.retired;
        for (const World* w : r.live) accumulate(total, w->stats());
      }
      sink.counter("sacpp_msg_messages_total",
                   static_cast<double>(total.messages),
                   "msg: point-to-point sends across all worlds");
      sink.counter("sacpp_msg_payload_bytes_total",
                   static_cast<double>(total.bytes),
                   "msg: point-to-point payload bytes");
      sink.counter("sacpp_msg_barriers_total",
                   static_cast<double>(total.barriers),
                   "msg: barrier operations");
      sink.counter("sacpp_msg_reductions_total",
                   static_cast<double>(total.reductions),
                   "msg: allreduce operations");
      sink.counter("sacpp_msg_send_blocked_total",
                   static_cast<double>(total.send_blocked),
                   "msg: sends that waited on backpressure");
      sink.counter("sacpp_msg_bytes_sent_total",
                   static_cast<double>(total.bytes_sent),
                   "msg: bytes sent (wire-level for transport worlds)");
      sink.counter("sacpp_msg_bytes_received_total",
                   static_cast<double>(total.bytes_received),
                   "msg: bytes received (wire-level for transport worlds)");
      sink.counter("sacpp_msg_reconnects_total",
                   static_cast<double>(total.reconnects),
                   "msg: transport connect retries and re-establishments");
    });
  });
}

void unregister_world(const World* world) {
  auto& reg = registry();
  std::lock_guard<TrackedMutex> lock(reg.mutex);
  accumulate(reg.retired, world->stats());
  reg.live.erase(std::remove(reg.live.begin(), reg.live.end(), world),
                 reg.live.end());
}
}  // namespace

World::World(int ranks, std::size_t max_mailbox_messages)
    : ranks_(ranks), mailbox_cap_(max_mailbox_messages) {
  SACPP_REQUIRE(ranks >= 1, "message-passing world needs >= 1 rank");
  mailboxes_.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  rank_done_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    rank_done_[static_cast<std::size_t>(r)].store(true,
                                                  std::memory_order_relaxed);
  }
  register_world(this);
}

// Mailboxes exist for every rank so indexing stays uniform, but only the
// local rank's box ever holds traffic (self-sends; 1-rank worlds exchange
// halos with themselves).  Remote ranks stay rank_done_ = true: receive()
// routes remote sources to the transport before consulting that flag.
World::World(Transport& transport) : World(transport.size()) {
  transport_ = &transport;
  local_rank_ = transport.rank();
  SACPP_REQUIRE(local_rank_ >= 0 && local_rank_ < ranks_,
                "transport rank out of range for its world size");
  stats_base_ = transport.stats();
}

World::~World() { unregister_world(this); }

void World::wake_all_mailboxes() {
  // Take each box mutex before notifying: a waiter that checked the state
  // flags and decided to sleep holds the mutex until it actually waits, so
  // locking here guarantees the notification lands after it is parked.
  for (auto& box : mailboxes_) {
    std::lock_guard<TrackedMutex> lock(box->mutex);
    box->arrived.notify_all();
    box->drained.notify_all();
  }
}

void World::run(const std::function<void(Comm&)>& fn) {
  // An in-process world hosts every rank as a thread; a transport-bound
  // world hosts exactly one — the rank this OS process plays — and its
  // peers run the same program in their own processes.
  std::vector<int> local;
  if (transport_ == nullptr) {
    local.reserve(static_cast<std::size_t>(ranks_));
    for (int r = 0; r < ranks_; ++r) local.push_back(r);
  } else {
    local.push_back(local_rank_);
  }
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(local.size());
  // The order the ranks failed in: a rank whose peer exited early fails
  // after that exit, with a diagnostic that names the peer.
  std::vector<std::uint64_t> failed_at(local.size());
  std::atomic<std::uint64_t> failures{0};
  threads.reserve(local.size());
  for (int r : local) {
    rank_done_[static_cast<std::size_t>(r)].store(false,
                                                  std::memory_order_relaxed);
  }
  running_.store(true, std::memory_order_release);
  // Rank threads inherit the spawning thread's request trace context, so a
  // traced serve job running the MPI-style variant stitches its rank spans
  // (sends, barriers, solve phases) into the request's tree.
  const obs::TraceContext trace_ctx = obs::current_trace();
  for (std::size_t i = 0; i < local.size(); ++i) {
    const int r = local[i];
    threads.emplace_back([this, r, i, &fn, &errors, &failed_at, &failures,
                          trace_ctx] {
      obs::set_thread_name("rank-" + std::to_string(r));
      const obs::TraceBinding trace_binding(trace_ctx);
      Comm comm(this, r);
      try {
        fn(comm);
      } catch (...) {
        failed_at[i] = failures.fetch_add(1);
        errors[i] = std::current_exception();
      }
      // This rank's program is over: peers blocked on a recv from it (or on
      // backpressure toward it) must fail with a diagnostic, not hang.
      rank_done_[static_cast<std::size_t>(r)].store(
          true, std::memory_order_release);
      wake_all_mailboxes();
    });
  }
  for (auto& t : threads) t.join();
  running_.store(false, std::memory_order_release);
  wake_all_mailboxes();
  // Report the failure that started it, not a peer's diagnostic of it.
  std::size_t first = errors.size();
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (!errors[i]) continue;
    if (first == errors.size() || failed_at[i] < failed_at[first]) first = i;
  }
  if (first < errors.size()) std::rethrow_exception(errors[first]);
}

void World::deliver(int source, int dest, int tag,
                    std::span<const double> data) {
  SACPP_REQUIRE(dest >= 0 && dest < ranks_, "send destination out of range");
  const std::size_t payload_bytes = data.size() * sizeof(double);
  obs::ScopedSpan span(obs::SpanKind::kMsgSend, "msg_send",
                       static_cast<std::int64_t>(payload_bytes));
  if (obs::enabled()) [[unlikely]] {
    obs::observe(obs::Hist::kMsgBytes, payload_bytes);
  }
  const bool blocked = post(source, dest, tag, data);
  std::lock_guard<TrackedMutex> lock(stats_mutex_);
  stats_.messages += 1;
  stats_.bytes += payload_bytes;
  if (blocked) stats_.send_blocked += 1;
  if (transport_ == nullptr) {
    // In-process hop: both directions are the same local copy.  (A
    // transport world's directional counters are the wire's, merged in by
    // stats(); its self-traffic never touches the wire.)
    stats_.bytes_sent += payload_bytes;
    stats_.bytes_received += payload_bytes;
  }
}

bool World::post(int source, int dest, int tag,
                 std::span<const double> data) {
  if (transport_ != nullptr && dest != local_rank_) {
    // Remote rank: hand off to the wire.  The transport owns directional
    // byte accounting (headers included); stats() merges it back in.
    transport_->send(dest, tag, data);
    return false;
  }
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dest)];
  bool blocked = false;
  {
    std::unique_lock<TrackedMutex> lock(box.mutex);
    if (mailbox_cap_ > 0 && !collective_tag(tag)) {
      // Bounded mailbox: block until the consumer drains below the cap —
      // credit-style backpressure instead of unbounded queue growth.  A
      // consumer that already finished (or a torn-down world) can never
      // drain, so that is an error, not a hang.
      while (box.messages.size() >= mailbox_cap_) {
        SACPP_REQUIRE(
            running_.load(std::memory_order_acquire),
            "msg: send to a full mailbox after world shutdown (rank " +
                std::to_string(dest) + ", mailbox at capacity " +
                std::to_string(mailbox_cap_) + ")");
        SACPP_REQUIRE(
            !rank_done_[static_cast<std::size_t>(dest)].load(
                std::memory_order_acquire),
            "msg: send blocked on backpressure toward rank " +
                std::to_string(dest) +
                ", whose program already finished (mailbox at capacity " +
                std::to_string(mailbox_cap_) + " and can never drain)");
        blocked = true;
        box.drained.wait(lock);
      }
    }
    box.messages.push_back(
        Message{source, tag, std::vector<double>(data.begin(), data.end())});
  }
  box.arrived.notify_all();
  return blocked;
}

void World::receive(int self, int source, int tag, std::span<double> out) {
  SACPP_REQUIRE(source >= 0 && source < ranks_, "recv source out of range");
  if (transport_ != nullptr && source != local_rank_) {
    transport_->recv(source, tag, out);
    return;
  }
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(self)];
  std::unique_lock<TrackedMutex> lock(box.mutex);
  for (;;) {
    const auto it = std::find_if(
        box.messages.begin(), box.messages.end(), [&](const Message& m) {
          return m.source == source && m.tag == tag;
        });
    if (it != box.messages.end()) {
      SACPP_REQUIRE(it->payload.size() == out.size(),
                    "message length does not match receive buffer");
      std::copy(it->payload.begin(), it->payload.end(), out.begin());
      box.messages.erase(it);
      lock.unlock();
      box.drained.notify_all();
      return;
    }
    // No matching message.  Waiting is only correct while one can still
    // arrive: a world whose program has ended, or a source rank that already
    // returned, will never send again — diagnose instead of hanging.
    SACPP_REQUIRE(running_.load(std::memory_order_acquire),
                  "msg: recv(source=" + std::to_string(source) + ", tag=" +
                      std::to_string(tag) + ") on rank " +
                      std::to_string(self) +
                      " after world shutdown — no program is running, the "
                      "message can never arrive");
    SACPP_REQUIRE(!rank_done_[static_cast<std::size_t>(source)].load(
                      std::memory_order_acquire),
                  "msg: recv(source=" + std::to_string(source) + ", tag=" +
                      std::to_string(tag) + ") on rank " +
                      std::to_string(self) + " but rank " +
                      std::to_string(source) +
                      "'s program already finished without sending it");
    box.arrived.wait(lock);
  }
}

bool World::try_receive(int self, int source, int tag,
                        std::span<double> out) {
  SACPP_REQUIRE(source >= 0 && source < ranks_, "recv source out of range");
  if (transport_ != nullptr && source != local_rank_) {
    return transport_->try_recv(source, tag, out);
  }
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(self)];
  {
    std::lock_guard<TrackedMutex> lock(box.mutex);
    const auto it = std::find_if(
        box.messages.begin(), box.messages.end(), [&](const Message& m) {
          return m.source == source && m.tag == tag;
        });
    if (it == box.messages.end()) return false;
    SACPP_REQUIRE(it->payload.size() == out.size(),
                  "message length does not match receive buffer");
    std::copy(it->payload.begin(), it->payload.end(), out.begin());
    box.messages.erase(it);
  }
  box.drained.notify_all();
  return true;
}

std::size_t World::mailbox_depth(int self) const {
  SACPP_REQUIRE(self >= 0 && self < ranks_, "mailbox rank out of range");
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(self)];
  std::lock_guard<TrackedMutex> lock(box.mutex);
  return box.messages.size();
}

// Flat gather-to-root collectives over the world's own point-to-point, on
// reserved tags and outside the traffic counters: every leaf posts a token
// (or its contribution) to rank 0, which answers once all have arrived.
// Two sequential hops — fine at the rank counts MG uses (2-8); a tree can
// replace it without touching callers.  Waiting on a rank whose program
// already finished fails like any receive instead of hanging.
void World::barrier(int rank) {
  obs::ScopedSpan span(obs::SpanKind::kCollective, "barrier");
  double token = 0.0;
  if (rank == 0) {
    for (int r = 1; r < ranks_; ++r) {
      receive(0, r, kBarrierGatherTag, std::span<double>(&token, 1));
    }
    for (int r = 1; r < ranks_; ++r) {
      post(0, r, kBarrierReleaseTag, std::span<const double>(&token, 1));
    }
  } else {
    post(rank, 0, kBarrierGatherTag, std::span<const double>(&token, 1));
    receive(rank, 0, kBarrierReleaseTag, std::span<double>(&token, 1));
  }
  // One count per barrier in each world: the in-process world hosts every
  // rank and counts on rank 0, a transport world counts its own rank's.
  if (rank == local_rank_) {
    std::lock_guard<TrackedMutex> lock(stats_mutex_);
    stats_.barriers += 1;
  }
}

double World::reduce(int rank, double value, bool maximum) {
  obs::ScopedSpan span(obs::SpanKind::kCollective, "reduce");
  double acc = 0.0;
  if (rank == 0) {
    // Accumulate in rank order: floating-point addition is order-sensitive,
    // and bit-identical norms across rank counts and substrates are a test
    // invariant (tests/net_world_test.cpp).
    std::vector<double> slots(static_cast<std::size_t>(ranks_));
    slots[0] = value;
    for (int r = 1; r < ranks_; ++r) {
      receive(0, r, kReduceContribTag,
              std::span<double>(&slots[static_cast<std::size_t>(r)], 1));
    }
    acc = maximum ? slots[0] : 0.0;
    for (const double v : slots) acc = maximum ? std::max(acc, v) : acc + v;
    for (int r = 1; r < ranks_; ++r) {
      post(0, r, kReduceResultTag, std::span<const double>(&acc, 1));
    }
    std::lock_guard<TrackedMutex> lock(stats_mutex_);
    stats_.reductions += 1;
  } else {
    post(rank, 0, kReduceContribTag, std::span<const double>(&value, 1));
    receive(rank, 0, kReduceResultTag, std::span<double>(&acc, 1));
  }
  return acc;
}

WorldStats World::stats() const {
  std::lock_guard<TrackedMutex> lock(stats_mutex_);
  WorldStats s = stats_;
  if (transport_ != nullptr) {
    const TransportStats ts = transport_->stats();
    s.bytes_sent += ts.bytes_sent - stats_base_.bytes_sent;
    s.bytes_received += ts.bytes_received - stats_base_.bytes_received;
    s.reconnects += ts.reconnects - stats_base_.reconnects;
    s.send_blocked += ts.blocked_sends - stats_base_.blocked_sends;
  }
  return s;
}

void World::reset_stats() {
  std::lock_guard<TrackedMutex> lock(stats_mutex_);
  stats_ = WorldStats{};
  if (transport_ != nullptr) stats_base_ = transport_->stats();
}

// ---------------------------------------------------------------------------
// Comm
// ---------------------------------------------------------------------------

int Comm::size() const noexcept { return world_->size(); }

void Comm::send(int dest, int tag, std::span<const double> data) {
  world_->deliver(rank_, dest, tag, data);
}

void Comm::recv(int source, int tag, std::span<double> out) {
  world_->receive(rank_, source, tag, out);
}

void Comm::sendrecv(int dest, std::span<const double> out_data, int source,
                    std::span<double> in_data, int tag) {
  // Sends are buffered and never block, so send-then-recv cannot deadlock.
  send(dest, tag, out_data);
  recv(source, tag, in_data);
}

Comm::Request Comm::irecv(int source, int tag, std::span<double> out) {
  return Request(world_, rank_, source, tag, out);
}

void Comm::Request::wait() {
  if (done_) return;
  world_->receive(self_, source_, tag_, out_);
  done_ = true;
}

bool Comm::Request::test() {
  if (done_) return true;
  done_ = world_->try_receive(self_, source_, tag_, out_);
  return done_;
}

void Comm::reset_world_stats() { world_->reset_stats(); }

void Comm::barrier() { world_->barrier(rank_); }

double Comm::allreduce_sum(double value) {
  return world_->reduce(rank_, value, /*maximum=*/false);
}

double Comm::allreduce_max(double value) {
  return world_->reduce(rank_, value, /*maximum=*/true);
}

void Comm::broadcast(int root, std::span<double> data) {
  constexpr int kTag = -1000;  // reserved collective tag
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r != root) send(r, kTag, data);
    }
  } else {
    recv(root, kTag, data);
  }
}

void Comm::gather(int root, std::span<const double> block,
                  std::span<double> all) {
  constexpr int kTag = -1001;
  if (rank_ == root) {
    SACPP_REQUIRE(all.size() == block.size() * static_cast<std::size_t>(size()),
                  "gather root buffer size mismatch");
    std::copy(block.begin(), block.end(),
              all.begin() + static_cast<std::ptrdiff_t>(block.size()) * root);
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      recv(r, kTag,
           all.subspan(block.size() * static_cast<std::size_t>(r),
                       block.size()));
    }
  } else {
    send(root, kTag, block);
  }
}

void Comm::scatter(int root, std::span<const double> all,
                   std::span<double> block) {
  constexpr int kTag = -1002;
  if (rank_ == root) {
    SACPP_REQUIRE(all.size() == block.size() * static_cast<std::size_t>(size()),
                  "scatter root buffer size mismatch");
    for (int r = 0; r < size(); ++r) {
      const auto piece = all.subspan(
          block.size() * static_cast<std::size_t>(r), block.size());
      if (r == root) {
        std::copy(piece.begin(), piece.end(), block.begin());
      } else {
        send(r, kTag, piece);
      }
    }
  } else {
    recv(root, kTag, block);
  }
}

}  // namespace sacpp::msg
