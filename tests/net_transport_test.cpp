// Tests for the TCP transport (src/net/tcp_transport.hpp): rendezvous,
// tagged FIFO matching, async buffered sends under backpressure, wire stats,
// peer-death diagnostics, handshake negatives, and the frame-layer session
// monitoring (docs/net.md).
//
// Each test plays several ranks of one world inside this process: one
// TcpTransport per rank, each on its own thread, talking over loopback
// exactly as separate OS processes would (the transport holds no process
// globals beyond the metrics registry).

#include "sacpp/net/tcp_transport.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sacpp/check/session.hpp"
#include "sacpp/common/error.hpp"
#include "sacpp/net/session.hpp"
#include "sacpp/sac/config.hpp"

namespace sacpp::net {
namespace {

// std::span has no initializer_list constructor in C++20; tests mostly send
// tiny literal payloads, so route them through a vector.
void send(TcpTransport& t, int dest, int tag,
          std::initializer_list<double> vals) {
  const std::vector<double> v(vals);
  t.send(dest, tag, v);
}

// Pre-bind one loopback listener per rank (the mg_cluster trick: the OS
// picks the ports, nobody races) and hand each rank its fd.
struct World {
  std::vector<int> fds;
  std::vector<std::string> hosts;

  explicit World(int ranks) {
    for (int r = 0; r < ranks; ++r) {
      std::uint16_t port = 0;
      fds.push_back(create_listener(0, &port));
      hosts.push_back("127.0.0.1:" + std::to_string(port));
    }
  }

  TcpOptions options(int rank) const {
    TcpOptions opt;
    opt.rank = rank;
    opt.hosts = hosts;
    opt.listen_fd = fds[static_cast<std::size_t>(rank)];
    return opt;
  }

  // Run `fn(rank, transport)` on one thread per rank, with every rank's
  // transport constructed concurrently (the rendezvous requires it).
  template <typename Fn>
  void run(Fn fn) {
    const int ranks = static_cast<int>(hosts.size());
    std::vector<std::thread> threads;
    for (int r = 0; r < ranks; ++r) {
      threads.emplace_back([this, r, &fn] {
        TcpTransport transport(options(r));
        fn(r, transport);
      });
    }
    for (std::thread& t : threads) t.join();
  }
};

TEST(NetTransport, TwoRankRoundTrip) {
  World w(2);
  w.run([](int rank, TcpTransport& t) {
    if (rank == 0) {
      const std::vector<double> out = {1.5, -2.25, 1e300};
      t.send(1, 7, out);
      std::vector<double> back(3);
      t.recv(1, 8, back);
      EXPECT_EQ(back, std::vector<double>({3.0, 2.0, 1.0}));
    } else {
      std::vector<double> in(3);
      t.recv(0, 7, in);
      EXPECT_EQ(in, std::vector<double>({1.5, -2.25, 1e300}));
      send(t, 0, 8, {3.0, 2.0, 1.0});
    }
  });
}

TEST(NetTransport, SameTagIsFifoDifferentTagsMatchOutOfOrder) {
  World w(2);
  w.run([](int rank, TcpTransport& t) {
    if (rank == 0) {
      send(t, 1, 5, {1.0});
      send(t, 1, 5, {2.0});
      send(t, 1, 6, {3.0});
    } else {
      std::vector<double> v(1);
      t.recv(0, 6, v);  // posted last, matched first
      EXPECT_EQ(v[0], 3.0);
      t.recv(0, 5, v);
      EXPECT_EQ(v[0], 1.0) << "same (source, tag) must stay FIFO";
      t.recv(0, 5, v);
      EXPECT_EQ(v[0], 2.0);
    }
  });
}

TEST(NetTransport, TryRecvPollsWithoutBlocking) {
  World w(2);
  w.run([](int rank, TcpTransport& t) {
    if (rank == 0) {
      std::vector<double> sync(1);
      t.recv(1, 1, sync);  // rank 1 is ready and polling
      send(t, 1, 2, {42.0});
      t.recv(1, 3, sync);  // hold the world open until rank 1 is done
    } else {
      std::vector<double> v(1);
      EXPECT_FALSE(t.try_recv(0, 2, v)) << "nothing sent yet";
      send(t, 0, 1, {0.0});
      int spins = 0;
      while (!t.try_recv(0, 2, v)) {
        ++spins;
        ASSERT_LT(spins, 1000000) << "try_recv never saw the frame";
        std::this_thread::yield();
      }
      EXPECT_EQ(v[0], 42.0);
      send(t, 0, 3, {0.0});
    }
  });
}

TEST(NetTransport, FourRankRingExchange) {
  World w(4);
  w.run([](int rank, TcpTransport& t) {
    const int ranks = 4;
    const int next = (rank + 1) % ranks;
    const int prev = (rank + ranks - 1) % ranks;
    // Everyone sends before anyone receives: only a genuinely buffered
    // (asynchronous) send lets the ring avoid deadlock.
    send(t, next, 11, {static_cast<double>(rank)});
    send(t, prev, 12, {static_cast<double>(rank) + 0.5});
    std::vector<double> lo(1), hi(1);
    t.recv(prev, 11, lo);
    t.recv(next, 12, hi);
    EXPECT_EQ(lo[0], static_cast<double>(prev));
    EXPECT_EQ(hi[0], static_cast<double>(next) + 0.5);
  });
}

TEST(NetTransport, ManyFramesUnderTinySendQueueStillAllArrive) {
  // A send queue capped below one frame forces the blocking-backpressure
  // path on every second send; correctness (delivery, order) must not
  // depend on queue headroom.
  World w(2);
  constexpr int kFrames = 200;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> blocked{0};
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&w, r, &blocked] {
      TcpOptions opt = w.options(r);
      opt.send_queue_cap = 1;  // every queued byte is over cap
      TcpTransport t(opt);
      if (r == 0) {
        for (int i = 0; i < kFrames; ++i) {
          send(t, 1, 3, {static_cast<double>(i)});
        }
        std::vector<double> done(1);
        t.recv(1, 4, done);
        blocked = t.stats().blocked_sends;
      } else {
        std::vector<double> v(1);
        for (int i = 0; i < kFrames; ++i) {
          t.recv(0, 3, v);
          ASSERT_EQ(v[0], static_cast<double>(i));
        }
        send(t, 0, 4, {1.0});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // With cap 1 the sender can only ever admit into an empty queue, so any
  // time the loop has not yet drained the previous frame the send blocks.
  // The exact count is timing-dependent; the counter existing and the test
  // not deadlocking are the contract.
  SUCCEED() << "blocked sends observed: " << blocked.load();
}

TEST(NetTransport, StatsCountFramesAndBytesOnBothSides) {
  World w(2);
  w.run([](int rank, TcpTransport& t) {
    const std::vector<double> payload(100, 3.14);
    if (rank == 0) {
      t.send(1, 9, payload);
      std::vector<double> ack(1);
      t.recv(1, 10, ack);
      const msg::TransportStats s = t.stats();
      EXPECT_EQ(s.frames_sent, 1u);
      EXPECT_EQ(s.frames_received, 1u);
      EXPECT_GE(s.bytes_sent, 100 * sizeof(double));
      EXPECT_GE(s.bytes_received, sizeof(double));
    } else {
      std::vector<double> in(100);
      t.recv(0, 9, in);
      send(t, 0, 10, {1.0});
      const msg::TransportStats s = t.stats();
      EXPECT_EQ(s.frames_received, 1u);
      EXPECT_GE(s.bytes_received, 100 * sizeof(double));
    }
  });
}

TEST(NetTransport, PeerDeathFailsBlockedRecvWithDiagnostic) {
  World w(2);
  w.run([](int rank, TcpTransport& t) {
    if (rank == 0) {
      std::vector<double> sync(1);
      t.recv(1, 1, sync);   // rank 1 is up and about to die
      t.close_abruptly();   // no bye frame, exactly like a crash
    } else {
      send(t, 0, 1, {1.0});
      std::vector<double> v(1);
      try {
        t.recv(0, 99, v);  // rank 0 will never send this
        FAIL() << "recv from a dead peer must throw, not hang";
      } catch (const ContractError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
        EXPECT_NE(what.find(t.endpoint_of(0)), std::string::npos) << what;
      }
      // Later operations fail fast too.
      EXPECT_THROW(send(t, 0, 1, {2.0}), ContractError);
      EXPECT_THROW(t.try_recv(0, 1, v), ContractError);
    }
  });
}

TEST(NetTransport, RendezvousRejectsWorldSizeMismatch) {
  // Rank 0 of a 2-rank world accepts a dialer whose hello claims a 3-rank
  // world: the handshake must fail the construction with a diagnostic
  // instead of letting two differently-shaped worlds exchange data.
  World w(2);
  std::thread victim([&w] {
    try {
      TcpTransport t(w.options(0));
      FAIL() << "rendezvous accepted a world-size mismatch";
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find("world"), std::string::npos)
          << e.what();
    }
  });

  std::string host;
  std::uint16_t port = 0;
  parse_endpoint(w.hosts[0], &host, &port);
  const int fd = try_connect(host, port);
  ASSERT_GE(fd, 0);
  std::vector<std::uint8_t> hello;
  put_u32(hello, kMsgMagic);
  hello.push_back(static_cast<std::uint8_t>(FrameType::kHello));
  hello.push_back(kNetWireVersion);
  put_u32(hello, 3);  // lying world size
  put_u32(hello, 1);  // sender rank
  ASSERT_TRUE(write_all(fd, encode_frame(hello)));
  victim.join();
  ::close(fd);
  ::close(w.fds[1]);  // rank 1's listener was never adopted by a transport
  w.fds[1] = -1;
}

TEST(NetTransport, ConstructorRejectsBadConfigurations) {
  EXPECT_THROW(TcpTransport(TcpOptions{}), ContractError)
      << "empty host list";
  TcpOptions bad_rank;
  bad_rank.hosts = {"127.0.0.1:1", "127.0.0.1:2"};
  bad_rank.rank = 2;
  EXPECT_THROW(TcpTransport{bad_rank}, ContractError);
  TcpOptions bad_endpoint;
  bad_endpoint.hosts = {"no-port-here"};
  bad_endpoint.rank = 0;
  EXPECT_THROW(TcpTransport{bad_endpoint}, ContractError);
}

// ---------------------------------------------------------------------------
// Frame-layer session monitoring
// ---------------------------------------------------------------------------

TEST(NetSession, ClassifyTagCoversTheAlphabet) {
  EXPECT_EQ(classify_tag(0), kEvData);
  EXPECT_EQ(classify_tag(42), kEvData);
  EXPECT_EQ(classify_tag(-1003), kEvBarrier);
  EXPECT_EQ(classify_tag(-1004), kEvBarrier);
  EXPECT_EQ(classify_tag(-1005), kEvReduce);
  EXPECT_EQ(classify_tag(-1006), kEvReduce);
  EXPECT_EQ(classify_tag(-1000), kEvBcast);
  EXPECT_EQ(classify_tag(-1001), kEvGather);
  EXPECT_EQ(classify_tag(-1002), kEvGather);
  EXPECT_EQ(classify_tag(-1999), kEvOther);
}

TEST(NetSession, HaloExchangePatternSatisfiesItsSpec) {
  // Both ranks run one halo exchange (send both planes, then match both)
  // under a bound monitor with checking on: every frame feeds the monitor
  // and the session ends in its accepting state.
  World w(2);
  w.run([](int rank, TcpTransport& t) {
    sac::SacConfig cfg = sac::active_config();
    cfg.check = true;
    sac::ConfigBinding config_binding(&cfg);
    const check::SessionSpec spec = halo_exchange_session_spec();
    check::SessionMonitor monitor(&spec, "rank" + std::to_string(rank));
    check::MonitorBinding binding(&monitor);

    const int peer = 1 - rank;
    send(t, peer, 100, {1.0});
    send(t, peer, 101, {2.0});
    std::vector<double> v(1);
    t.recv(peer, 100, v);
    t.recv(peer, 101, v);

    EXPECT_EQ(monitor.events(), 4u);
    EXPECT_EQ(monitor.state(), 0) << "exchange should close the loop";
    monitor.finish(/*report_dead=*/false);
    EXPECT_TRUE(monitor.clean()) << monitor.engine().to_ascii();
  });
}

TEST(NetSession, OutOfProtocolTrafficIsFlagged) {
  // Three sends in a row violate the send/send/recv/recv halo session; the
  // monitor reports it while the wire happily carries the frames.
  World w(2);
  w.run([](int rank, TcpTransport& t) {
    sac::SacConfig cfg = sac::active_config();
    cfg.check = true;
    sac::ConfigBinding config_binding(&cfg);
    if (rank == 0) {
      const check::SessionSpec spec = halo_exchange_session_spec();
      check::SessionMonitor monitor(&spec, "rank0");
      check::MonitorBinding binding(&monitor);
      send(t, 1, 100, {1.0});
      send(t, 1, 101, {2.0});
      send(t, 1, 102, {3.0});  // illegal third send
      EXPECT_FALSE(monitor.clean());
      std::vector<double> sync(1);
      t.recv(1, 1, sync);
    } else {
      std::vector<double> v(1);
      t.recv(0, 100, v);
      t.recv(0, 101, v);
      t.recv(0, 102, v);
      send(t, 0, 1, {0.0});
    }
  });
}

TEST(NetSession, MonitorSeesNothingWithoutCheckMode) {
  World w(2);
  w.run([](int rank, TcpTransport& t) {
    const check::SessionSpec spec = halo_exchange_session_spec();
    check::SessionMonitor monitor(&spec, "rank" + std::to_string(rank));
    check::MonitorBinding binding(&monitor);
    const int peer = 1 - rank;
    send(t, peer, 100, {1.0});
    std::vector<double> v(1);
    t.recv(peer, 100, v);
    EXPECT_EQ(monitor.events(), 0u)
        << "the probe must be dormant without SacConfig::check";
  });
}

}  // namespace
}  // namespace sacpp::net
