#pragma once
// TCP implementation of the msg::Transport seam (docs/net.md).
//
// One TcpTransport per OS process plays one rank of a world described by a
// host list.  Construction is the rendezvous: rank r listens on its own
// endpoint (hosts[r], or a pre-bound inherited listener for launcher use),
// dials every lower rank with retry/backoff, accepts every higher rank, and
// exchanges a hello/ack handshake that pins the wire version, world size,
// and peer identity before any data flows.  After rendezvous all sockets go
// non-blocking behind one epoll event loop thread.
//
// Wire format — every frame is the shared length-prefixed codec
// (codec.hpp), payload layout (all integers little-endian):
//
//   u32 magic  "MSG1"
//   u8  type   kHello / kHelloAck / kData / kBye
//   hello|ack: u8 version, u32 world_size, u32 sender_rank
//   data:      u32 source_rank, i32 tag, u64 count, count f64 payload
//   bye:       u32 sender_rank
//
// Semantics (the msg::Transport contract):
//   * send is buffered-asynchronous: the frame is committed to the peer's
//     outbound queue and the event loop drains it concurrently — this is
//     what makes Comm::isend/irecv genuinely overlap communication with
//     compute.  A queue past `send_queue_cap` bytes blocks the sender
//     (counted in blocked_sends) until the loop drains it.
//   * recv matches the inbox by (source, tag), FIFO per pair.
//   * A dead peer (EOF, reset, protocol violation, bye) fails every
//     present and future send/recv toward it with a ContractError naming
//     the peer, its endpoint, and the cause — never a hang.
//
// Frame-layer session events: every data frame committed (send) or matched
// (recv) is reported to a bound check::SessionMonitor with the tag's
// protocol class (session.hpp), on the rank thread that owns the call.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "sacpp/common/lockorder.hpp"
#include "sacpp/msg/transport.hpp"
#include "sacpp/net/codec.hpp"

namespace sacpp::net {

inline constexpr std::uint32_t kMsgMagic = 0x3147534d;  // "MSG1"
inline constexpr std::uint8_t kNetWireVersion = 1;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kData = 3,
  kBye = 4,
};

// Socket set-up, the rendezvous's own and every other TCP user's.
// parse_endpoint splits "host:port"; a ContractError names a malformed one.
void parse_endpoint(const std::string& endpoint, std::string* host,
                    std::uint16_t* port);
// A close-on-exec listener on `port` (0: the kernel picks, reported in
// *bound_port) of loopback, or of every interface for the transport's own;
// a ContractError names the port and the cause.
int create_listener(std::uint16_t port, std::uint16_t* bound_port = nullptr,
                    bool any_interface = false);
// One dial attempt: a connected close-on-exec socket, or -1 when the host
// does not resolve or nothing accepts on the port yet.
int try_connect(const std::string& host, std::uint16_t port);

struct TcpOptions {
  int rank = 0;
  // One "host:port" endpoint per rank; the vector's size is the world size.
  // A port of 0 is only usable together with `listen_fd` (the launcher bound
  // the port and the peers were told the real one).
  std::vector<std::string> hosts;
  // Pre-bound listening socket for this rank (e.g. inherited from
  // mg_cluster, which binds every port before forking so children cannot
  // race); -1 = bind hosts[rank] here.
  int listen_fd = -1;
  int connect_timeout_ms = 10000;  // total rendezvous budget per peer
  int connect_retry_ms = 25;       // backoff between dial attempts
  std::size_t max_frame_bytes = std::size_t{16} << 20;  // frame body cap
  std::size_t send_queue_cap = std::size_t{64} << 20;   // per-peer queued bytes
};

class TcpTransport final : public msg::Transport {
 public:
  explicit TcpTransport(TcpOptions options);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  int rank() const noexcept override { return options_.rank; }
  int size() const noexcept override {
    return static_cast<int>(options_.hosts.size());
  }

  void send(int dest, int tag, std::span<const double> data) override;
  void recv(int source, int tag, std::span<double> out) override;
  bool try_recv(int source, int tag, std::span<double> out) override;
  msg::TransportStats stats() const override;

  // Fault injection (tests, mg_cluster --chaos-exit): hard-close every
  // socket with no bye, exactly as a crashed process would.  Every later
  // operation throws the peer-death diagnostic.
  void close_abruptly();

  const std::string& endpoint_of(int rank) const {
    return options_.hosts[static_cast<std::size_t>(rank)];
  }

 private:
  struct Peer {
    int fd = -1;
    std::string death_reason;        // guarded by peer_mutex_
    bool want_write = false;         // EPOLLOUT armed (event loop only)
    std::size_t front_offset = 0;    // partially written head frame bytes
    std::deque<std::vector<std::uint8_t>> outbound;  // guarded by peer_mutex_
    std::size_t outbound_bytes = 0;                  // guarded by peer_mutex_
    std::unique_ptr<FrameAssembler> assembler;       // event loop only
  };

  struct Message {
    int source = 0;
    int tag = 0;
    std::vector<double> payload;
  };

  void rendezvous_();
  void event_loop_();
  void handle_readable_(int peer);
  bool ingest_frame_(int peer, std::span<const std::uint8_t> frame);
  bool flush_outbound_(int peer);  // false once the peer is dead
  void mark_dead_(int peer, const std::string& reason);
  void kick_() const;
  [[noreturn]] void throw_peer_gone_(int peer, const char* op, int tag) const;
  bool peer_dead_(int peer) const noexcept {
    return dead_[static_cast<std::size_t>(peer)].load(
        std::memory_order_acquire);
  }

  TcpOptions options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::vector<Peer> peers_;  // indexed by rank; the self slot stays empty
  std::unique_ptr<std::atomic<bool>[]> dead_;
  std::thread loop_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> closed_{false};  // close_abruptly happened

  // Lock order: inbox and peer locks are never nested inside each other in
  // the same direction twice — senders take only net.peer, receivers only
  // net.inbox, the event loop takes them one at a time.
  mutable TrackedMutex peer_mutex_{"net.peer"};
  std::condition_variable_any drained_;

  mutable TrackedMutex inbox_mutex_{"net.inbox"};
  std::condition_variable_any inbox_cv_;
  std::list<Message> inbox_;

  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> blocked_sends_{0};
};

}  // namespace sacpp::net
