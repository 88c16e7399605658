#pragma once
// An in-process message-passing world: the MPI subset NPB's MG-MPI needs.
//
// The paper's second future-work item asks for "a direct comparison with
// the MPI-based parallel reference implementation of NAS-MG".  We have no
// cluster (or MPI installation) in this environment, so the substrate is an
// SPMD runtime over threads: World spawns one thread per rank, each running
// the same program, communicating exclusively through the Comm handle —
// blocking tagged point-to-point messages and the collectives MG needs
// (barrier, allreduce, broadcast, gather/scatter to a root).  The
// programming model is message passing with disjoint address spaces by
// convention: ranks share no data except through Comm.
//
// Message counts and byte volumes are tallied per world; the distributed
// machine model uses the same communication structure analytically.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "sacpp/common/error.hpp"
#include "sacpp/common/lockorder.hpp"
#include "sacpp/msg/transport.hpp"

namespace sacpp::msg {

class World;

// Reserved tags of barrier and allreduce, which World runs over its own
// point-to-point traffic on both substrates (mailboxes in-process, the
// Transport for remote ranks) and keeps out of the traffic counters.  All
// are <= -1000 so collective_tag() exempts them from mailbox caps, and
// net::classify_tag (src/net/session.hpp) can label them at the frame layer.
inline constexpr int kBarrierGatherTag = -1003;   // leaf -> root token
inline constexpr int kBarrierReleaseTag = -1004;  // root -> leaf release
inline constexpr int kReduceContribTag = -1005;   // leaf -> root contribution
inline constexpr int kReduceResultTag = -1006;    // root -> leaf result

// Per-rank communicator handle (only valid inside World::run).
class Comm {
 public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept;

  // Blocking tagged point-to-point.  Matching is by (source, tag); message
  // order between the same (source, tag) pair is preserved.  The received
  // message must have exactly out.size() elements.
  void send(int dest, int tag, std::span<const double> data);
  void recv(int source, int tag, std::span<double> out);

  // Exchange with two (possibly equal) partners without deadlock.
  void sendrecv(int dest, std::span<const double> out_data, int source,
                std::span<double> in_data, int tag);

  // Non-blocking receive: returns immediately with a request handle; the
  // message is copied into `out` when it arrives (possibly inside wait()).
  // `out` must stay alive until the request completes.  Sends are buffered
  // and complete immediately in this substrate, so isend == send.
  class Request {
   public:
    // Block until the message has been delivered into the buffer.
    void wait();
    // True once delivered (non-blocking probe).
    bool test();

   private:
    friend class Comm;
    Request(World* world, int self, int source, int tag,
            std::span<double> out)
        : world_(world), self_(self), source_(source), tag_(tag), out_(out) {}
    World* world_;
    int self_;
    int source_;
    int tag_;
    std::span<double> out_;
    bool done_ = false;
  };

  Request irecv(int source, int tag, std::span<double> out);

  // Buffered-asynchronous send: returns once the payload is copied out of
  // `data`; wire transmission proceeds concurrently (on the transport's
  // event loop for a socket-backed world, immediately for mailboxes).  The
  // overlapped halo exchange in mg_mpi pairs this with irecv to hide
  // communication behind interior compute.
  void isend(int dest, int tag, std::span<const double> data) {
    send(dest, tag, data);
  }

  // Reset the enclosing world's traffic counters (rank 0 calls this at the
  // start of the timed section; for a transport-backed world the wire-level
  // baseline is captured too).
  void reset_world_stats();

  // Collectives over all ranks.
  void barrier();
  double allreduce_sum(double value);
  double allreduce_max(double value);
  void broadcast(int root, std::span<double> data);

  // Root collects equally sized blocks from every rank (rank order); the
  // inverse scatters them.  `block` is this rank's contribution / slot;
  // `all` (root only) must hold size() * block.size() elements.
  void gather(int root, std::span<const double> block, std::span<double> all);
  void scatter(int root, std::span<const double> all, std::span<double> block);

 private:
  friend class World;
  Comm(World* world, int rank) : world_(world), rank_(rank) {}
  World* world_;
  int rank_;
};

struct WorldStats {
  std::uint64_t messages = 0;  // point-to-point sends
  std::uint64_t bytes = 0;     // point-to-point payload bytes
  std::uint64_t barriers = 0;
  std::uint64_t reductions = 0;
  std::uint64_t send_blocked = 0;  // sends that hit mailbox backpressure
  // Directional traffic accounting (exported through the Prometheus
  // collector bridge as sacpp_msg_* totals; docs/net.md#counters).  For the
  // in-process world both directions of a hop are local copies, so the two
  // byte counters agree; for a transport-backed world they are this rank's
  // wire-level payload traffic, and `reconnects` counts the transport's
  // connect retries and re-establishments.
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t reconnects = 0;
};

// The shared SPMD world.  Construct with the rank count, then run() one or
// more SPMD programs; each run spawns `ranks` threads and joins them.
//
// Mailboxes are unbounded by default (the historical buffered-send
// semantics mg_mpi relies on).  Under service load a fast producer paired
// with a slow consumer would grow a mailbox without limit, so a world may
// opt into bounded mailboxes (`max_mailbox_messages`): a send to a full
// mailbox blocks until the consumer drains below the cap — classic
// credit-style backpressure.  Collectives use reserved tags and are exempt
// from the cap (they are self-limiting: at most one in flight per rank), so
// bounding point-to-point traffic cannot deadlock a barrier.  They are
// rooted exchanges over these same mailboxes, so a rank whose program ends
// before a collective makes its peers' collective throw the receive
// diagnostic instead of hanging.
class World {
 public:
  explicit World(int ranks, std::size_t max_mailbox_messages = 0);

  // A world bound to a real interconnect: this process IS one rank
  // (transport.rank()) of transport.size(); peers are other OS processes.
  // run() executes fn exactly once, on the local rank, and every remote
  // send/recv routes through the transport (self-traffic stays in a local
  // mailbox).  Collectives run the same point-to-point algorithm as
  // in-process, so results are bit-identical across the substrates.  The
  // transport must outlive the world.
  explicit World(Transport& transport);

  ~World();

  int size() const noexcept { return ranks_; }

  // The rank this process plays (always valid; 0-based; the in-process
  // world runs every rank, so the notion only matters when distributed()).
  int local_rank() const noexcept { return local_rank_; }
  bool distributed() const noexcept { return transport_ != nullptr; }

  // Execute fn(comm) on every local rank concurrently (one thread per rank
  // in-process, exactly one for a transport-bound world); rethrows the
  // first rank failure after all threads joined.
  void run(const std::function<void(Comm&)>& fn);

  // Traffic counters; for a transport-bound world the wire-level transport
  // stats (frames, directional bytes, reconnects) are merged in, minus the
  // baseline captured at the last reset_stats().
  WorldStats stats() const;
  void reset_stats();

  // Messages currently queued in rank `self`'s mailbox (tests assert the
  // bounded-mailbox cap holds under a slow consumer).
  std::size_t mailbox_depth(int self) const;

  // The bounded-mailbox cap (0 = unbounded).
  std::size_t mailbox_capacity() const noexcept { return mailbox_cap_; }

  // Internal (used by Comm and Comm::Request): blocking and non-blocking
  // message matching for rank `self`.
  void receive(int self, int source, int tag, std::span<double> out);
  bool try_receive(int self, int source, int tag, std::span<double> out);

 private:
  friend class Comm;

  struct Message {
    int source;
    int tag;
    std::vector<double> payload;
  };

  struct Mailbox {
    // Tracked for the lock-order analyzer; every mailbox shares one graph
    // node ("msg.mailbox"), so the cvs are the _any flavour.
    TrackedMutex mutex{"msg.mailbox"};
    std::condition_variable_any arrived;
    std::condition_variable_any drained;  // backpressured senders wait here
    std::list<Message> messages;
  };

  // A counted point-to-point send (Comm::send and the rooted collectives).
  void deliver(int source, int dest, int tag, std::span<const double> data);
  // Route one message to `dest` without counting it: the transport for a
  // remote rank, else dest's mailbox.  Returns whether it waited on
  // backpressure.
  bool post(int source, int dest, int tag, std::span<const double> data);
  // Gather-to-root barrier and allreduce over post/receive on the reserved
  // tags; the root folds in rank order.
  void barrier(int rank);
  double reduce(int rank, double value, bool maximum);

  // Wake every mailbox waiter so blocked receives/sends re-check the
  // running/finished state (called when a rank's program returns and when
  // run() completes).
  void wake_all_mailboxes();

  int ranks_;
  std::size_t mailbox_cap_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  // Lifecycle: receives and backpressured sends consult these instead of
  // waiting forever on traffic that can no longer arrive (or drain).  The
  // flags are written before the per-mailbox notify (under each box mutex),
  // so waiters cannot miss the transition.
  std::atomic<bool> running_{false};
  std::unique_ptr<std::atomic<bool>[]> rank_done_;

  WorldStats stats_;
  mutable TrackedMutex stats_mutex_{"msg.stats"};

  // Transport binding (null for the in-process world).  `stats_base_` is
  // the transport's counters at the last reset_stats(), so stats() reports
  // deltas scoped to the current measurement window.
  Transport* transport_ = nullptr;
  int local_rank_ = 0;
  TransportStats stats_base_;
};

}  // namespace sacpp::msg
