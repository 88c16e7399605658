// msg::World bound to the TCP transport (docs/net.md): the same collectives
// and the same MG program as the in-process world, with OS-process semantics
// — each World holds ONE local rank and its wire traffic really crosses a
// socket.  These tests play all ranks inside this process (one transport +
// one World per thread) so the cross-world comparisons stay hermetic; the
// true multi-process path is exercised by the example_mg_cluster_* ctests.
//
// The acceptance bar is bit-exactness for collectives (reduce fills its
// slots in rank order with the identical accumulation formula on both
// worlds) and 1e-12 relative agreement for full class-S MG norms.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sacpp/mg/mg_mpi.hpp"
#include "sacpp/msg/msg.hpp"
#include "sacpp/net/tcp_transport.hpp"
#include "sacpp/obs/export.hpp"

namespace sacpp {
namespace {

struct Listeners {
  std::vector<int> fds;
  std::vector<std::string> hosts;

  explicit Listeners(int ranks) {
    for (int r = 0; r < ranks; ++r) {
      std::uint16_t port = 0;
      fds.push_back(net::create_listener(0, &port));
      hosts.push_back("127.0.0.1:" + std::to_string(port));
    }
  }

  net::TcpOptions options(int rank) const {
    net::TcpOptions opt;
    opt.rank = rank;
    opt.hosts = hosts;
    opt.listen_fd = fds[static_cast<std::size_t>(rank)];
    return opt;
  }
};

// Run `fn(comm)` on every rank of a socket-backed world: one transport and
// one single-local-rank World per thread.
template <typename Fn>
void run_socket_world(int ranks, Fn fn) {
  Listeners listeners(ranks);
  std::vector<std::thread> threads;
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&listeners, r, &fn] {
      net::TcpTransport transport(listeners.options(r));
      msg::World world(transport);
      world.run([&](msg::Comm& comm) { fn(comm); });
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST(NetWorld, WorldAdoptsTransportIdentity) {
  run_socket_world(2, [](msg::Comm& comm) {
    EXPECT_EQ(comm.size(), 2);
    std::vector<double> v(1);
    if (comm.rank() == 0) {
      v[0] = 17.0;
      comm.send(1, 1, v);
    } else {
      comm.recv(0, 1, v);
      EXPECT_EQ(v[0], 17.0);
    }
  });
}

TEST(NetWorld, SelfSendsStayLocal) {
  // Rank-local traffic (mg_mpi's 1-rank periodic halos are self-sends)
  // never touches the wire: it goes through the World's own mailbox.
  run_socket_world(2, [](msg::Comm& comm) {
    std::vector<double> out = {1.0, 2.0}, in(2);
    comm.send(comm.rank(), 5, out);
    comm.recv(comm.rank(), 5, in);
    EXPECT_EQ(in, out);
    comm.barrier();
  });
}

TEST(NetWorld, AllreduceMatchesInProcessBitwise) {
  // Values chosen so a different accumulation order changes the bits: the
  // transport reduce must fill rank-ordered slots and fold them with the
  // exact in-process formula.
  constexpr int kRanks = 4;
  auto contribution = [](int rank) {
    return 0.1 * static_cast<double>(rank + 1) + 1e-13 * rank;
  };

  std::vector<double> expected_sum(1), expected_max(1);
  msg::World reference(kRanks);
  reference.run([&](msg::Comm& comm) {
    const double sum = comm.allreduce_sum(contribution(comm.rank()));
    const double mx = comm.allreduce_max(-contribution(comm.rank()));
    if (comm.rank() == 0) {
      expected_sum[0] = sum;
      expected_max[0] = mx;
    }
  });

  run_socket_world(kRanks, [&](msg::Comm& comm) {
    const double sum = comm.allreduce_sum(contribution(comm.rank()));
    const double mx = comm.allreduce_max(-contribution(comm.rank()));
    EXPECT_EQ(sum, expected_sum[0]) << "sum must be bit-identical";
    EXPECT_EQ(mx, expected_max[0]) << "max must be bit-identical";
  });
}

TEST(NetWorld, BarrierSynchronisesAcrossTransports) {
  constexpr int kRanks = 3;
  std::atomic<int> phase{0};
  run_socket_world(kRanks, [&](msg::Comm& comm) {
    phase.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(phase.load(), kRanks)
        << "no rank may pass the barrier before every rank arrived";
    comm.barrier();
  });
}

TEST(NetWorld, BroadcastAndGatherCrossTheWire) {
  constexpr int kRanks = 2;
  run_socket_world(kRanks, [](msg::Comm& comm) {
    std::vector<double> b(3);
    if (comm.rank() == 0) b = {5.0, 6.0, 7.0};
    comm.broadcast(0, b);
    EXPECT_EQ(b, std::vector<double>({5.0, 6.0, 7.0}));

    std::vector<double> mine = {static_cast<double>(comm.rank())};
    std::vector<double> all(kRanks);
    comm.gather(0, mine, all);
    if (comm.rank() == 0) {
      EXPECT_EQ(all, std::vector<double>({0.0, 1.0}));
    }
    comm.barrier();
  });
}

TEST(NetWorld, MgClassSNormsMatchInProcessWorld) {
  const mg::MgSpec spec = mg::MgSpec::for_class(mg::MgClass::S);
  constexpr int kRanks = 2;
  const mg::MgMpi solver(spec, kRanks);
  const mg::MgMpi::Result reference = solver.run(spec.nit);

  std::vector<double> socket_norms;
  run_socket_world(kRanks, [&](msg::Comm& comm) {
    const mg::MgMpi::Result r = solver.run_rank(comm, spec.nit);
    if (comm.rank() == 0) socket_norms = r.norms;
  });

  ASSERT_EQ(socket_norms.size(), reference.norms.size());
  for (std::size_t i = 0; i < socket_norms.size(); ++i) {
    const double a = reference.norms[i], b = socket_norms[i];
    const double rel = std::abs(a - b) / std::max(std::abs(a), 1e-300);
    EXPECT_LE(rel, 1e-12) << "iteration " << i << ": " << a << " vs " << b;
  }
}

TEST(NetWorld, MgNoOverlapAndOverlapAgreeOverSockets) {
  // The overlapped halo schedule must be arithmetic-neutral on the socket
  // path too (plane updates are independent; docs/net.md#overlap).
  const mg::MgSpec spec = mg::MgSpec::for_class(mg::MgClass::S);
  constexpr int kRanks = 2;
  std::vector<double> with_overlap, without_overlap;
  for (const bool overlap : {true, false}) {
    const mg::MgMpi solver(spec, kRanks, overlap);
    run_socket_world(kRanks, [&](msg::Comm& comm) {
      const mg::MgMpi::Result r = solver.run_rank(comm, spec.nit);
      if (comm.rank() == 0) {
        (overlap ? with_overlap : without_overlap) = r.norms;
      }
    });
  }
  ASSERT_EQ(with_overlap.size(), without_overlap.size());
  for (std::size_t i = 0; i < with_overlap.size(); ++i) {
    EXPECT_EQ(with_overlap[i], without_overlap[i])
        << "overlap changed the bits at iteration " << i;
  }
}

TEST(NetWorld, StatsReportWireTraffic) {
  constexpr int kRanks = 2;
  Listeners listeners(kRanks);
  std::vector<msg::WorldStats> stats(kRanks);
  // World::stats() reports wire traffic SINCE the World was constructed
  // (its base snapshot); hold every thread until all Worlds exist so no
  // frame lands before a peer's baseline and vanishes from its delta.
  std::atomic<int> worlds_ready{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&listeners, &stats, &worlds_ready, r] {
      net::TcpTransport transport(listeners.options(r));
      msg::World world(transport);
      worlds_ready.fetch_add(1);
      while (worlds_ready.load() < kRanks) std::this_thread::yield();
      world.run([&](msg::Comm& comm) {
        std::vector<double> v(64, 1.0);
        comm.send(1 - comm.rank(), 2, v);
        comm.recv(1 - comm.rank(), 2, v);
        comm.barrier();
      });
      stats[static_cast<std::size_t>(r)] = world.stats();
    });
  }
  for (std::thread& t : threads) t.join();
  for (int r = 0; r < kRanks; ++r) {
    const msg::WorldStats& s = stats[static_cast<std::size_t>(r)];
    EXPECT_GE(s.messages, 1u) << "rank " << r;
    EXPECT_GE(s.bytes_sent, 64 * sizeof(double)) << "rank " << r;
    EXPECT_GE(s.bytes_received, 64 * sizeof(double)) << "rank " << r;
  }
}

TEST(NetWorld, PrometheusCarriesMsgAndNetCounters) {
  // The collector bridges are registered by the first World / transport in
  // the process; ctest runs each case in its own process, so make both
  // exist here rather than leaning on sibling tests.
  run_socket_world(2, [](msg::Comm& comm) {
    std::vector<double> v(1, 1.0);
    comm.send(1 - comm.rank(), 3, v);
    comm.recv(1 - comm.rank(), 3, v);
    comm.barrier();
  });
  std::ostringstream out;
  obs::write_prometheus(out);
  const std::string text = out.str();
  for (const char* counter :
       {"sacpp_msg_messages_total", "sacpp_msg_bytes_sent_total",
        "sacpp_msg_bytes_received_total", "sacpp_msg_reconnects_total",
        "sacpp_net_frames_sent_total", "sacpp_net_frames_received_total",
        "sacpp_net_bytes_sent_total", "sacpp_net_blocked_sends_total"}) {
    EXPECT_NE(text.find(counter), std::string::npos)
        << counter << " missing from the export:\n"
        << text.substr(0, 2000);
  }
}

}  // namespace
}  // namespace sacpp
