#include "sacpp/net/tcp_transport.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "sacpp/check/session.hpp"
#include "sacpp/common/error.hpp"
#include "sacpp/net/session.hpp"
#include "sacpp/obs/export.hpp"
#include "sacpp/obs/obs.hpp"
#include "sacpp/sac/config.hpp"

namespace sacpp::net {

// Payload doubles are memcpy'd onto the wire, so the host must store them
// little-endian IEEE 754 — true of every target this repo builds for.
static_assert(std::endian::native == std::endian::little,
              "net wire format assumes a little-endian host");

namespace {

constexpr std::uint32_t kEventFdSlot = 0xffffffffu;
constexpr std::size_t kDataHeaderBytes = 21;  // magic+type+src+tag+count
constexpr std::size_t kHandshakeMaxBytes = 256;

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint64_t get_u64(std::span<const std::uint8_t> in) noexcept {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8 && i < in.size(); ++i) {
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

// Session-monitor probe, mirroring serve's note_frame: a no-op unless
// checked mode is on AND a monitor is bound to this thread.
void note_event(check::Dir dir, int tag) {
  if (!sac::active_config().check) [[likely]] {
    return;
  }
  if (check::bound_monitor() == nullptr) return;
  check::note_channel_event(dir, classify_tag(tag));
}

std::vector<std::uint8_t> build_data_frame(int source, int tag,
                                           std::span<const double> data) {
  const std::size_t body = kDataHeaderBytes + data.size() * sizeof(double);
  std::vector<std::uint8_t> frame;
  frame.reserve(sizeof(std::uint32_t) + body);
  put_u32(frame, static_cast<std::uint32_t>(body));
  put_u32(frame, kMsgMagic);
  put_u8(frame, static_cast<std::uint8_t>(FrameType::kData));
  put_u32(frame, static_cast<std::uint32_t>(source));
  put_u32(frame, static_cast<std::uint32_t>(static_cast<std::int32_t>(tag)));
  put_u64(frame, data.size());
  const std::size_t at = frame.size();
  frame.resize(at + data.size_bytes());
  std::memcpy(frame.data() + at, data.data(), data.size_bytes());
  return frame;
}

std::vector<std::uint8_t> build_handshake_frame(FrameType type,
                                                std::uint32_t world,
                                                std::uint32_t sender) {
  std::vector<std::uint8_t> frame;
  put_u32(frame, 4 + 1 + 1 + 4 + 4);
  put_u32(frame, kMsgMagic);
  put_u8(frame, static_cast<std::uint8_t>(type));
  put_u8(frame, kNetWireVersion);
  put_u32(frame, world);
  put_u32(frame, sender);
  return frame;
}

std::vector<std::uint8_t> build_bye_frame(std::uint32_t sender) {
  std::vector<std::uint8_t> frame;
  put_u32(frame, 4 + 1 + 4);
  put_u32(frame, kMsgMagic);
  put_u8(frame, static_cast<std::uint8_t>(FrameType::kBye));
  put_u32(frame, sender);
  return frame;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  SACPP_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                "net: cannot make socket non-blocking");
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void set_recv_timeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

struct Handshake {
  FrameType type = FrameType::kHello;
  std::uint8_t version = 0;
  std::uint32_t world = 0;
  std::uint32_t sender = 0;
};

// Read exactly `n` bytes from a blocking fd; false on EOF/error.
bool read_exact(int fd, std::uint8_t* buf, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::recv(fd, buf + done, n - done, 0);
    if (got == 0) return false;
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(got);
  }
  return true;
}

// Handshake frames are read with EXACT-length reads, never a buffered
// reader: the instant the acceptor's ack hits the wire it may be followed
// by data frames, and a chunked reader would slurp (and silently drop)
// those bytes before the event loop ever owns the socket.
Handshake read_handshake(int fd, const std::string& who) {
  std::uint8_t prefix[sizeof(std::uint32_t)];
  SACPP_REQUIRE(read_exact(fd, prefix, sizeof prefix),
                "net: handshake with " + who +
                    " failed: connection closed");
  const std::uint32_t body_len = get_u32(prefix);
  SACPP_REQUIRE(body_len <= kHandshakeMaxBytes,
                "net: handshake with " + who + ": frame claims " +
                    std::to_string(body_len) + " bytes, cap is " +
                    std::to_string(kHandshakeMaxBytes));
  std::vector<std::uint8_t> payload(body_len);
  SACPP_REQUIRE(body_len == 0 || read_exact(fd, payload.data(), body_len),
                "net: handshake with " + who +
                    " failed: connection closed mid-frame");
  SACPP_REQUIRE(payload.size() == 14 && get_u32(payload) == kMsgMagic,
                "net: handshake with " + who + ": not a MSG1 hello frame");
  Handshake h;
  h.type = static_cast<FrameType>(payload[4]);
  h.version = payload[5];
  h.world = get_u32(std::span<const std::uint8_t>(payload).subspan(6));
  h.sender = get_u32(std::span<const std::uint8_t>(payload).subspan(10));
  SACPP_REQUIRE(
      h.type == FrameType::kHello || h.type == FrameType::kHelloAck,
      "net: handshake with " + who + ": unexpected frame type " +
          std::to_string(static_cast<int>(h.type)));
  SACPP_REQUIRE(h.version == kNetWireVersion,
                "net: handshake with " + who + ": wire version " +
                    std::to_string(h.version) + ", this build speaks " +
                    std::to_string(kNetWireVersion));
  return h;
}

// ---------------------------------------------------------------------------
// Prometheus bridge: sacpp_net_* totals across every transport this process
// ever opened (live polled, destroyed folded into `retired`).
// ---------------------------------------------------------------------------

void accumulate(msg::TransportStats& into, const msg::TransportStats& s) {
  into.frames_sent += s.frames_sent;
  into.frames_received += s.frames_received;
  into.bytes_sent += s.bytes_sent;
  into.bytes_received += s.bytes_received;
  into.reconnects += s.reconnects;
  into.blocked_sends += s.blocked_sends;
}

struct NetRegistry {
  TrackedMutex mutex{"net.registry"};
  std::vector<const TcpTransport*> live;
  msg::TransportStats retired;
};

NetRegistry& net_registry() {
  static auto* r = new NetRegistry();
  return *r;
}

void register_transport(const TcpTransport* t) {
  auto& reg = net_registry();
  {
    std::lock_guard<TrackedMutex> lock(reg.mutex);
    reg.live.push_back(t);
  }
  static std::once_flag collector_once;
  std::call_once(collector_once, [] {
    obs::register_collector([](obs::MetricSink& sink) {
      msg::TransportStats total;
      {
        auto& r = net_registry();
        std::lock_guard<TrackedMutex> lock(r.mutex);
        total = r.retired;
        for (const TcpTransport* live : r.live) {
          accumulate(total, live->stats());
        }
      }
      sink.counter("sacpp_net_frames_sent_total",
                   static_cast<double>(total.frames_sent),
                   "net: frames committed to peer outbound queues");
      sink.counter("sacpp_net_frames_received_total",
                   static_cast<double>(total.frames_received),
                   "net: data frames reassembled off the wire");
      sink.counter("sacpp_net_bytes_sent_total",
                   static_cast<double>(total.bytes_sent),
                   "net: wire bytes sent, length prefixes included");
      sink.counter("sacpp_net_bytes_received_total",
                   static_cast<double>(total.bytes_received),
                   "net: wire bytes received");
      sink.counter("sacpp_net_reconnects_total",
                   static_cast<double>(total.reconnects),
                   "net: rendezvous dial retries");
      sink.counter("sacpp_net_blocked_sends_total",
                   static_cast<double>(total.blocked_sends),
                   "net: sends that waited on the per-peer queue cap");
    });
  });
}

void unregister_transport(const TcpTransport* t) {
  auto& reg = net_registry();
  std::lock_guard<TrackedMutex> lock(reg.mutex);
  accumulate(reg.retired, t->stats());
  reg.live.erase(std::remove(reg.live.begin(), reg.live.end(), t),
                 reg.live.end());
}

}  // namespace

// ---------------------------------------------------------------------------
// Socket set-up
// ---------------------------------------------------------------------------

void parse_endpoint(const std::string& endpoint, std::string* host,
                    std::uint16_t* port) {
  const std::size_t colon = endpoint.rfind(':');
  SACPP_REQUIRE(colon != std::string::npos && colon > 0 &&
                    colon + 1 < endpoint.size(),
                "net: endpoint must be host:port, got '" + endpoint + "'");
  *host = endpoint.substr(0, colon);
  char* end = nullptr;
  const long p = std::strtol(endpoint.c_str() + colon + 1, &end, 10);
  SACPP_REQUIRE(end != nullptr && *end == '\0' && p >= 0 && p <= 65535,
                "net: bad port in endpoint '" + endpoint + "'");
  *port = static_cast<std::uint16_t>(p);
}

int create_listener(std::uint16_t port, std::uint16_t* bound_port,
                    bool any_interface) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  SACPP_REQUIRE(fd >= 0, "net: cannot create listening socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(any_interface ? INADDR_ANY : INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    SACPP_REQUIRE(false, "net: cannot listen on port " +
                             std::to_string(port) + ": " + why);
  }
  if (bound_port != nullptr) *bound_port = ntohs(addr.sin_port);
  return fd;
}

int try_connect(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &res) != 0) {
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                  ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  return fd;
}

// ---------------------------------------------------------------------------
// Construction / rendezvous
// ---------------------------------------------------------------------------

TcpTransport::TcpTransport(TcpOptions options) : options_(std::move(options)) {
  const int world = size();
  SACPP_REQUIRE(world >= 1, "net: host list is empty");
  SACPP_REQUIRE(options_.rank >= 0 && options_.rank < world,
                "net: rank " + std::to_string(options_.rank) +
                    " out of range for a " + std::to_string(world) +
                    "-host world");
  SACPP_REQUIRE(options_.max_frame_bytes >= kDataHeaderBytes + sizeof(double),
                "net: max_frame_bytes too small for one double");
  peers_.resize(static_cast<std::size_t>(world));
  dead_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    dead_[static_cast<std::size_t>(r)].store(false,
                                             std::memory_order_relaxed);
  }
  try {
    rendezvous_();
  } catch (...) {
    for (Peer& p : peers_) {
      if (p.fd >= 0) ::close(p.fd);
      p.fd = -1;
    }
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    throw;
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  SACPP_REQUIRE(epoll_fd_ >= 0, "net: epoll_create1 failed");
  event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  SACPP_REQUIRE(event_fd_ >= 0, "net: eventfd failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = kEventFdSlot;
  SACPP_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) == 0,
                "net: cannot register eventfd");
  for (int r = 0; r < world; ++r) {
    Peer& p = peers_[static_cast<std::size_t>(r)];
    if (p.fd < 0) continue;
    set_nonblocking(p.fd);
    set_nodelay(p.fd);
    p.assembler = std::make_unique<FrameAssembler>(options_.max_frame_bytes);
    epoll_event pe{};
    pe.events = EPOLLIN;
    pe.data.u32 = static_cast<std::uint32_t>(r);
    SACPP_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, p.fd, &pe) == 0,
                  "net: cannot register peer socket");
  }
  loop_ = std::thread([this] {
    obs::set_thread_name("net-loop");
    event_loop_();
  });
  register_transport(this);
}

void TcpTransport::rendezvous_() {
  const int world = size();
  const int self = options_.rank;
  std::string host;
  std::uint16_t port = 0;
  parse_endpoint(options_.hosts[static_cast<std::size_t>(self)], &host,
                 &port);
  if (options_.listen_fd >= 0) {
    listen_fd_ = options_.listen_fd;
  } else if (world > 1) {
    SACPP_REQUIRE(port != 0,
                  "net: rank " + std::to_string(self) +
                      " has port 0 and no pre-bound listener — a peer "
                      "could never find it");
    listen_fd_ = create_listener(port, nullptr, /*any_interface=*/true);
  }

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.connect_timeout_ms);

  // Dial every lower rank (they may not be up yet: retry with backoff,
  // counting attempts as reconnects), then prove who we are.
  for (int peer = 0; peer < self; ++peer) {
    std::string peer_host;
    std::uint16_t peer_port = 0;
    parse_endpoint(options_.hosts[static_cast<std::size_t>(peer)],
                   &peer_host, &peer_port);
    int fd = -1;
    for (;;) {
      fd = try_connect(peer_host, peer_port);
      if (fd >= 0) break;
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      SACPP_REQUIRE(std::chrono::steady_clock::now() < deadline,
                    "net: rank " + std::to_string(self) +
                        " cannot reach rank " + std::to_string(peer) +
                        " at " +
                        options_.hosts[static_cast<std::size_t>(peer)] +
                        " within " +
                        std::to_string(options_.connect_timeout_ms) + "ms");
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.connect_retry_ms));
    }
    set_recv_timeout(fd, options_.connect_timeout_ms);
    const auto hello = build_handshake_frame(
        FrameType::kHello, static_cast<std::uint32_t>(world),
        static_cast<std::uint32_t>(self));
    if (!write_all(fd, hello)) {
      ::close(fd);
      SACPP_REQUIRE(false, "net: rank " + std::to_string(peer) +
                               " hung up during the hello");
    }
    bytes_sent_.fetch_add(hello.size(), std::memory_order_relaxed);
    const Handshake ack =
        read_handshake(fd, "rank " + std::to_string(peer));
    SACPP_REQUIRE(ack.type == FrameType::kHelloAck,
                  "net: rank " + std::to_string(peer) +
                      " answered the hello with frame type " +
                      std::to_string(static_cast<int>(ack.type)));
    SACPP_REQUIRE(ack.world == static_cast<std::uint32_t>(world),
                  "net: rank " + std::to_string(peer) + " believes in a " +
                      std::to_string(ack.world) + "-rank world, not " +
                      std::to_string(world));
    SACPP_REQUIRE(ack.sender == static_cast<std::uint32_t>(peer),
                  "net: endpoint " +
                      options_.hosts[static_cast<std::size_t>(peer)] +
                      " identifies as rank " + std::to_string(ack.sender) +
                      ", expected rank " + std::to_string(peer));
    peers_[static_cast<std::size_t>(peer)].fd = fd;
  }

  // Accept every higher rank; the hello tells us who arrived.
  int expected = world - 1 - self;
  while (expected > 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    SACPP_REQUIRE(left.count() > 0,
                  "net: rank " + std::to_string(self) + " timed out with " +
                      std::to_string(expected) +
                      " higher rank(s) still unconnected");
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready <= 0) continue;  // timeout re-checked above, EINTR retried
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    set_recv_timeout(fd, options_.connect_timeout_ms);
    const Handshake hello = read_handshake(fd, "an accepting peer");
    const int sender = static_cast<int>(hello.sender);
    SACPP_REQUIRE(hello.type == FrameType::kHello,
                  "net: accepted connection opened with frame type " +
                      std::to_string(static_cast<int>(hello.type)) +
                      ", not a hello");
    SACPP_REQUIRE(hello.world == static_cast<std::uint32_t>(world),
                  "net: rank " + std::to_string(sender) + " believes in a " +
                      std::to_string(hello.world) + "-rank world, not " +
                      std::to_string(world));
    SACPP_REQUIRE(sender > self && sender < world,
                  "net: accepted a hello from rank " +
                      std::to_string(sender) +
                      ", which should not dial rank " + std::to_string(self));
    SACPP_REQUIRE(peers_[static_cast<std::size_t>(sender)].fd < 0,
                  "net: rank " + std::to_string(sender) +
                      " connected twice");
    const auto ack = build_handshake_frame(
        FrameType::kHelloAck, static_cast<std::uint32_t>(world),
        static_cast<std::uint32_t>(self));
    SACPP_REQUIRE(write_all(fd, ack),
                  "net: rank " + std::to_string(sender) +
                      " hung up before the hello ack");
    bytes_sent_.fetch_add(ack.size(), std::memory_order_relaxed);
    peers_[static_cast<std::size_t>(sender)].fd = fd;
    --expected;
  }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void TcpTransport::event_loop_() {
  epoll_event events[32];
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events,
                               static_cast<int>(std::size(events)), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.u32 == kEventFdSlot) {
        std::uint64_t drain = 0;
        while (::read(event_fd_, &drain, sizeof drain) > 0) {
        }
        if (stop_.load(std::memory_order_acquire)) return;
        // A sender queued frames: try to push them out now; EPOLLOUT takes
        // over if the socket buffer is full.
        for (int r = 0; r < size(); ++r) flush_outbound_(r);
        continue;
      }
      const int r = static_cast<int>(ev.data.u32);
      if ((ev.events & EPOLLIN) != 0) handle_readable_(r);
      if ((ev.events & EPOLLOUT) != 0) flush_outbound_(r);
      if ((ev.events & (EPOLLHUP | EPOLLERR)) != 0 && !peer_dead_(r)) {
        mark_dead_(r, "connection reset (hangup)");
      }
    }
  }
}

void TcpTransport::handle_readable_(int peer) {
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  if (p.fd < 0 || peer_dead_(peer)) return;
  std::vector<std::uint8_t> frame;
  std::string error;
  for (;;) {
    std::uint8_t chunk[65536];
    const ssize_t got = ::recv(p.fd, chunk, sizeof chunk, MSG_DONTWAIT);
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      mark_dead_(peer,
                 std::string("read failed: ") + std::strerror(errno));
      return;
    }
    if (got == 0) {
      mark_dead_(peer, "connection closed by peer");
      return;
    }
    bytes_received_.fetch_add(static_cast<std::uint64_t>(got),
                              std::memory_order_relaxed);
    p.assembler->feed(
        std::span<const std::uint8_t>(chunk, static_cast<std::size_t>(got)));
    for (;;) {
      const FrameResult res = p.assembler->next(&frame, &error);
      if (res == FrameResult::kNeedMore) break;
      if (res == FrameResult::kMalformed) {
        mark_dead_(peer, error);
        return;
      }
      if (!ingest_frame_(peer, frame)) return;
    }
  }
}

bool TcpTransport::ingest_frame_(int peer,
                                 std::span<const std::uint8_t> frame) {
  const std::span<const std::uint8_t> payload =
      frame.subspan(sizeof(std::uint32_t));
  if (payload.size() < 5 || get_u32(payload) != kMsgMagic) {
    mark_dead_(peer, "protocol violation: frame without the MSG1 magic");
    return false;
  }
  const auto type = static_cast<FrameType>(payload[4]);
  switch (type) {
    case FrameType::kData: {
      if (payload.size() < kDataHeaderBytes) {
        mark_dead_(peer, "protocol violation: truncated data header");
        return false;
      }
      const auto source = static_cast<int>(get_u32(payload.subspan(5)));
      const auto tag =
          static_cast<std::int32_t>(get_u32(payload.subspan(9)));
      const std::uint64_t count = get_u64(payload.subspan(13));
      if (source != peer) {
        mark_dead_(peer, "protocol violation: data frame claims source " +
                             std::to_string(source) + " on the rank-" +
                             std::to_string(peer) + " connection");
        return false;
      }
      if (payload.size() != kDataHeaderBytes + count * sizeof(double)) {
        mark_dead_(peer,
                   "protocol violation: count field disagrees with the "
                   "frame length");
        return false;
      }
      Message m;
      m.source = source;
      m.tag = static_cast<int>(tag);
      m.payload.resize(count);
      std::memcpy(m.payload.data(), payload.data() + kDataHeaderBytes,
                  count * sizeof(double));
      frames_received_.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<TrackedMutex> lock(inbox_mutex_);
        inbox_.push_back(std::move(m));
      }
      inbox_cv_.notify_all();
      return true;
    }
    case FrameType::kBye:
      mark_dead_(peer, "rank " + std::to_string(peer) +
                           " left the world (bye frame)");
      return false;
    case FrameType::kHello:
    case FrameType::kHelloAck:
      mark_dead_(peer,
                 "protocol violation: handshake frame after rendezvous");
      return false;
  }
  mark_dead_(peer, "protocol violation: unknown frame type " +
                       std::to_string(static_cast<int>(type)));
  return false;
}

bool TcpTransport::flush_outbound_(int peer) {
  std::string died;
  bool progressed = false;
  {
    std::lock_guard<TrackedMutex> lock(peer_mutex_);
    Peer& p = peers_[static_cast<std::size_t>(peer)];
    if (p.fd < 0 || peer_dead_(peer)) return false;
    while (!p.outbound.empty()) {
      const std::vector<std::uint8_t>& front = p.outbound.front();
      const ssize_t n =
          ::send(p.fd, front.data() + p.front_offset,
                 front.size() - p.front_offset, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          if (!p.want_write) {
            epoll_event ev{};
            ev.events = EPOLLIN | EPOLLOUT;
            ev.data.u32 = static_cast<std::uint32_t>(peer);
            ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, p.fd, &ev);
            p.want_write = true;
          }
          break;
        }
        died = std::string("write failed: ") + std::strerror(errno);
        break;
      }
      p.front_offset += static_cast<std::size_t>(n);
      p.outbound_bytes -= static_cast<std::size_t>(n);
      progressed = true;
      if (p.front_offset == front.size()) {
        p.outbound.pop_front();
        p.front_offset = 0;
      }
    }
    if (died.empty() && p.outbound.empty() && p.want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<std::uint32_t>(peer);
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, p.fd, &ev);
      p.want_write = false;
    }
  }
  if (progressed) drained_.notify_all();
  if (!died.empty()) {
    mark_dead_(peer, died);
    return false;
  }
  return true;
}

void TcpTransport::mark_dead_(int peer, const std::string& reason) {
  {
    std::lock_guard<TrackedMutex> lock(peer_mutex_);
    Peer& p = peers_[static_cast<std::size_t>(peer)];
    if (p.death_reason.empty()) p.death_reason = reason;
    dead_[static_cast<std::size_t>(peer)].store(true,
                                                std::memory_order_release);
    if (p.fd >= 0) {
      ::close(p.fd);  // epoll drops the registration with the fd
      p.fd = -1;
    }
    p.outbound.clear();
    p.outbound_bytes = 0;
    p.front_offset = 0;
  }
  // Lock-then-notify so a receiver that saw the peer alive and decided to
  // wait is parked before the wakeup lands.
  drained_.notify_all();
  { std::lock_guard<TrackedMutex> lock(inbox_mutex_); }
  inbox_cv_.notify_all();
}

void TcpTransport::kick_() const {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(event_fd_, &one, sizeof one);
}

// ---------------------------------------------------------------------------
// Transport interface
// ---------------------------------------------------------------------------

void TcpTransport::throw_peer_gone_(int peer, const char* op,
                                    int tag) const {
  std::string reason;
  {
    std::lock_guard<TrackedMutex> lock(peer_mutex_);
    reason = peers_[static_cast<std::size_t>(peer)].death_reason;
  }
  if (reason.empty()) {
    reason = closed_.load(std::memory_order_acquire)
                 ? "transport closed"
                 : "peer gone";
  }
  throw ContractError("net: " + std::string(op) + "(rank " +
                      std::to_string(peer) + ", tag " + std::to_string(tag) +
                      ") on rank " + std::to_string(options_.rank) +
                      ": peer rank " + std::to_string(peer) + " at " +
                      endpoint_of(peer) + " is gone: " + reason);
}

void TcpTransport::send(int dest, int tag, std::span<const double> data) {
  SACPP_REQUIRE(dest >= 0 && dest < size() && dest != options_.rank,
                "net: send destination out of range (self-traffic never "
                "reaches the transport)");
  std::vector<std::uint8_t> frame =
      build_data_frame(options_.rank, tag, data);
  SACPP_REQUIRE(frame.size() - sizeof(std::uint32_t) <=
                    options_.max_frame_bytes,
                "net: message of " + std::to_string(data.size()) +
                    " doubles exceeds max_frame_bytes");
  obs::ScopedSpan span(obs::SpanKind::kNetFrame, "net_send",
                       static_cast<std::int64_t>(frame.size()));
  const std::size_t frame_bytes = frame.size();
  bool gone = false;
  {
    std::unique_lock<TrackedMutex> lock(peer_mutex_);
    Peer& p = peers_[static_cast<std::size_t>(dest)];
    for (;;) {
      if (closed_.load(std::memory_order_acquire) || peer_dead_(dest)) {
        gone = true;
        break;
      }
      // Backpressure: cap the bytes parked per peer; an empty queue always
      // admits the frame so a single oversized message cannot wedge.
      if (p.outbound.empty() ||
          p.outbound_bytes + frame_bytes <= options_.send_queue_cap) {
        break;
      }
      blocked_sends_.fetch_add(1, std::memory_order_relaxed);
      drained_.wait(lock);
    }
    if (!gone) {
      p.outbound_bytes += frame_bytes;
      p.outbound.push_back(std::move(frame));
      frames_sent_.fetch_add(1, std::memory_order_relaxed);
      bytes_sent_.fetch_add(frame_bytes, std::memory_order_relaxed);
    }
  }
  if (gone) throw_peer_gone_(dest, "send", tag);
  kick_();
  note_event(check::Dir::kSend, tag);
}

void TcpTransport::recv(int source, int tag, std::span<double> out) {
  SACPP_REQUIRE(source >= 0 && source < size() && source != options_.rank,
                "net: recv source out of range (self-traffic never reaches "
                "the transport)");
  obs::ScopedSpan span(obs::SpanKind::kNetFrame, "net_recv",
                       static_cast<std::int64_t>(out.size_bytes()));
  {
    std::unique_lock<TrackedMutex> lock(inbox_mutex_);
    for (;;) {
      const auto it = std::find_if(
          inbox_.begin(), inbox_.end(), [&](const Message& m) {
            return m.source == source && m.tag == tag;
          });
      if (it != inbox_.end()) {
        SACPP_REQUIRE(it->payload.size() == out.size(),
                      "net: message from rank " + std::to_string(source) +
                          " tag " + std::to_string(tag) + " has " +
                          std::to_string(it->payload.size()) +
                          " doubles, receive buffer holds " +
                          std::to_string(out.size()));
        std::copy(it->payload.begin(), it->payload.end(), out.begin());
        inbox_.erase(it);
        lock.unlock();
        note_event(check::Dir::kRecv, tag);
        return;
      }
      // Waiting is only correct while the peer can still deliver.
      if (closed_.load(std::memory_order_acquire) || peer_dead_(source)) {
        break;
      }
      inbox_cv_.wait(lock);
    }
  }
  throw_peer_gone_(source, "recv", tag);
}

bool TcpTransport::try_recv(int source, int tag, std::span<double> out) {
  SACPP_REQUIRE(source >= 0 && source < size() && source != options_.rank,
                "net: recv source out of range (self-traffic never reaches "
                "the transport)");
  {
    std::lock_guard<TrackedMutex> lock(inbox_mutex_);
    const auto it = std::find_if(
        inbox_.begin(), inbox_.end(), [&](const Message& m) {
          return m.source == source && m.tag == tag;
        });
    if (it != inbox_.end()) {
      SACPP_REQUIRE(it->payload.size() == out.size(),
                    "net: message length does not match receive buffer");
      std::copy(it->payload.begin(), it->payload.end(), out.begin());
      inbox_.erase(it);
      note_event(check::Dir::kRecv, tag);
      return true;
    }
    if (!closed_.load(std::memory_order_acquire) && !peer_dead_(source)) {
      return false;
    }
  }
  // A poll toward a dead peer would spin forever; fail it like recv does.
  throw_peer_gone_(source, "try_recv", tag);
}

msg::TransportStats TcpTransport::stats() const {
  msg::TransportStats s;
  s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  s.blocked_sends = blocked_sends_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Teardown
// ---------------------------------------------------------------------------

void TcpTransport::close_abruptly() {
  closed_.store(true, std::memory_order_release);
  stop_.store(true, std::memory_order_release);
  kick_();
  if (loop_.joinable()) loop_.join();
  for (int r = 0; r < size(); ++r) {
    if (r == options_.rank) continue;
    mark_dead_(r, "transport closed abruptly (injected fault)");
  }
}

TcpTransport::~TcpTransport() {
  if (loop_.joinable() && !closed_.load(std::memory_order_acquire)) {
    // Graceful goodbye: park a bye frame for every live peer, give the
    // event loop a bounded window to drain the queues, then stop.
    {
      std::lock_guard<TrackedMutex> lock(peer_mutex_);
      for (int r = 0; r < size(); ++r) {
        Peer& p = peers_[static_cast<std::size_t>(r)];
        if (r == options_.rank || p.fd < 0 || peer_dead_(r)) continue;
        auto bye =
            build_bye_frame(static_cast<std::uint32_t>(options_.rank));
        p.outbound_bytes += bye.size();
        bytes_sent_.fetch_add(bye.size(), std::memory_order_relaxed);
        p.outbound.push_back(std::move(bye));
      }
    }
    kick_();
    {
      std::unique_lock<TrackedMutex> lock(peer_mutex_);
      drained_.wait_for(lock, std::chrono::seconds(2), [&] {
        for (int r = 0; r < size(); ++r) {
          const Peer& p = peers_[static_cast<std::size_t>(r)];
          if (r != options_.rank && p.fd >= 0 && !p.outbound.empty()) {
            return false;
          }
        }
        return true;
      });
    }
    stop_.store(true, std::memory_order_release);
    kick_();
    loop_.join();
  } else if (loop_.joinable()) {
    loop_.join();
  }
  for (Peer& p : peers_) {
    if (p.fd >= 0) ::close(p.fd);
    p.fd = -1;
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (event_fd_ >= 0) ::close(event_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  unregister_transport(this);
}

}  // namespace sacpp::net
