// The in-process message-passing world: point-to-point matching and
// ordering, collectives, stats, and stress under contention.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "sacpp/msg/msg.hpp"

namespace sacpp::msg {
namespace {

TEST(MsgWorld, SingleRankRoundTripToSelf) {
  World w(1);
  w.run([](Comm& c) {
    double out[3] = {1.0, 2.0, 3.0};
    double in[3] = {};
    c.send(0, 7, out);
    c.recv(0, 7, in);
    EXPECT_DOUBLE_EQ(in[2], 3.0);
  });
}

TEST(MsgWorld, PingPong) {
  World w(2);
  w.run([](Comm& c) {
    double buf[1];
    if (c.rank() == 0) {
      buf[0] = 42.0;
      c.send(1, 1, buf);
      c.recv(1, 2, buf);
      EXPECT_DOUBLE_EQ(buf[0], 43.0);
    } else {
      c.recv(0, 1, buf);
      buf[0] += 1.0;
      c.send(0, 2, buf);
    }
  });
}

TEST(MsgWorld, TagMatchingSelectsCorrectMessage) {
  World w(2);
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      double a[1] = {1.0}, b[1] = {2.0};
      c.send(1, 10, a);
      c.send(1, 20, b);
    } else {
      double got[1];
      c.recv(0, 20, got);  // out of order: tag 20 first
      EXPECT_DOUBLE_EQ(got[0], 2.0);
      c.recv(0, 10, got);
      EXPECT_DOUBLE_EQ(got[0], 1.0);
    }
  });
}

TEST(MsgWorld, SameTagPreservesOrder) {
  World w(2);
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      for (double v = 0.0; v < 10.0; v += 1.0) {
        double m[1] = {v};
        c.send(1, 5, m);
      }
    } else {
      for (double v = 0.0; v < 10.0; v += 1.0) {
        double got[1];
        c.recv(0, 5, got);
        ASSERT_DOUBLE_EQ(got[0], v);
      }
    }
  });
}

TEST(MsgWorld, SendrecvRingDoesNotDeadlock) {
  World w(4);
  w.run([](Comm& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    double out[1] = {static_cast<double>(c.rank())};
    double in[1];
    c.sendrecv(next, out, prev, in, 3);
    EXPECT_DOUBLE_EQ(in[0], static_cast<double>(prev));
  });
}

TEST(MsgWorld, LengthMismatchThrows) {
  World w(1);
  EXPECT_THROW(w.run([](Comm& c) {
    double out[2] = {1.0, 2.0};
    double in[3];
    c.send(0, 1, out);
    c.recv(0, 1, in);
  }),
               ContractError);
}

TEST(MsgWorld, AllreduceSumAndMax) {
  World w(4);
  w.run([](Comm& c) {
    const double mine = static_cast<double>(c.rank() + 1);
    EXPECT_DOUBLE_EQ(c.allreduce_sum(mine), 10.0);
    EXPECT_DOUBLE_EQ(c.allreduce_max(mine), 4.0);
    // repeated reductions must not interfere
    EXPECT_DOUBLE_EQ(c.allreduce_sum(1.0), 4.0);
  });
}

TEST(MsgWorld, BroadcastFromNonzeroRoot) {
  World w(3);
  w.run([](Comm& c) {
    double data[2] = {0.0, 0.0};
    if (c.rank() == 2) {
      data[0] = 5.0;
      data[1] = 6.0;
    }
    c.broadcast(2, data);
    EXPECT_DOUBLE_EQ(data[0], 5.0);
    EXPECT_DOUBLE_EQ(data[1], 6.0);
  });
}

TEST(MsgWorld, GatherScatterRoundTrip) {
  World w(4);
  w.run([](Comm& c) {
    double block[2] = {static_cast<double>(c.rank()),
                       static_cast<double>(c.rank() * 10)};
    std::vector<double> all(c.rank() == 0 ? 8 : 0);
    c.gather(0, block, all);
    if (c.rank() == 0) {
      for (int r = 0; r < 4; ++r) {
        EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(2 * r)], r);
      }
      for (double& v : all) v += 1.0;
    }
    double back[2];
    c.scatter(0, all, back);
    EXPECT_DOUBLE_EQ(back[0], static_cast<double>(c.rank()) + 1.0);
  });
}

TEST(MsgWorld, IrecvCompletesOnWait) {
  World w(2);
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      double in[2];
      auto req = c.irecv(1, 9, in);
      req.wait();
      EXPECT_DOUBLE_EQ(in[0], 7.0);
      EXPECT_DOUBLE_EQ(in[1], 8.0);
    } else {
      double out[2] = {7.0, 8.0};
      c.send(0, 9, out);
    }
  });
}

TEST(MsgWorld, IrecvTestPollsWithoutBlocking) {
  World w(2);
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      double in[1];
      auto req = c.irecv(1, 3, in);
      EXPECT_FALSE(req.test());  // nothing sent yet (sender waits for us)
      double go[1] = {1.0};
      c.send(1, 1, go);
      req.wait();
      EXPECT_DOUBLE_EQ(in[0], 5.0);
      EXPECT_TRUE(req.test());  // idempotent after completion
    } else {
      double go[1];
      c.recv(0, 1, go);  // released only after rank 0's failed test()
      double out[1] = {5.0};
      c.send(0, 3, out);
    }
  });
}

TEST(MsgWorld, PostedReceivesOverlapBothDirections) {
  World w(4);
  w.run([](Comm& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    double from_next[1], from_prev[1];
    auto r1 = c.irecv(next, 1, from_next);
    auto r2 = c.irecv(prev, 2, from_prev);
    double mine[1] = {static_cast<double>(c.rank())};
    c.send(prev, 1, mine);
    c.send(next, 2, mine);
    r1.wait();
    r2.wait();
    EXPECT_DOUBLE_EQ(from_next[0], static_cast<double>(next));
    EXPECT_DOUBLE_EQ(from_prev[0], static_cast<double>(prev));
  });
}

TEST(MsgWorld, BarrierSeparatesPhases) {
  World w(4);
  std::atomic<int> phase1{0};
  w.run([&](Comm& c) {
    phase1.fetch_add(1);
    c.barrier();
    EXPECT_EQ(phase1.load(), 4);  // nobody passes before everyone arrived
    c.barrier();
  });
}

TEST(MsgWorld, StatsCountTraffic) {
  World w(2);
  w.reset_stats();
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> m(100, 1.0);
      c.send(1, 1, m);
    } else {
      std::vector<double> m(100);
      c.recv(0, 1, m);
    }
    c.barrier();
  });
  EXPECT_EQ(w.stats().messages, 1u);
  EXPECT_EQ(w.stats().bytes, 100u * sizeof(double));
  EXPECT_GE(w.stats().barriers, 1u);
}

TEST(MsgWorld, ManyConcurrentExchangesStress) {
  World w(4);
  w.run([](Comm& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    for (int round = 0; round < 200; ++round) {
      double out[4] = {static_cast<double>(round), 0, 0,
                       static_cast<double>(c.rank())};
      double in[4];
      c.sendrecv(next, out, prev, in, round);
      ASSERT_DOUBLE_EQ(in[0], static_cast<double>(round));
      ASSERT_DOUBLE_EQ(in[3], static_cast<double>(prev));
    }
  });
}

TEST(MsgWorld, RankFailurePropagates) {
  World w(2);
  EXPECT_THROW(w.run([](Comm& c) {
    c.barrier();
    if (c.rank() == 1) throw ContractError("rank 1 exploded");
  }),
               ContractError);
}

TEST(MsgWorld, InvalidRankCountRejected) {
  EXPECT_THROW(World(0), ContractError);
}

// -- service-load coverage: bounded mailboxes and shutdown diagnostics ------

TEST(MsgWorldLoad, SlowConsumerMailboxGrowthStaysBounded) {
  constexpr std::size_t kCap = 8;
  constexpr int kMessages = 200;
  World w(2, /*max_mailbox_messages=*/kCap);
  std::atomic<std::size_t> max_depth{0};
  w.run([&](Comm& c) {
    double buf[1] = {0.0};
    if (c.rank() == 0) {
      // Fast producer: fires messages as quickly as the cap lets it.
      for (int i = 0; i < kMessages; ++i) {
        buf[0] = static_cast<double>(i);
        c.send(1, 5, buf);
      }
    } else {
      // Slow consumer: samples its own mailbox depth between receives.
      for (int i = 0; i < kMessages; ++i) {
        const std::size_t depth = w.mailbox_depth(1);
        std::size_t seen = max_depth.load();
        while (depth > seen && !max_depth.compare_exchange_weak(seen, depth)) {
        }
        c.recv(0, 5, buf);
        EXPECT_DOUBLE_EQ(buf[0], static_cast<double>(i));  // order preserved
      }
    }
  });
  EXPECT_LE(max_depth.load(), kCap);
  EXPECT_GT(w.stats().send_blocked, 0u);  // backpressure actually engaged
  EXPECT_EQ(w.stats().messages, static_cast<std::uint64_t>(kMessages));
}

TEST(MsgWorldLoad, BoundedMailboxCollectivesExemptFromCap) {
  // Collectives must not deadlock against a full point-to-point mailbox:
  // the broadcast payloads ride reserved tags outside the cap accounting.
  World w(3, /*max_mailbox_messages=*/1);
  w.run([](Comm& c) {
    double v[2] = {0.0, 0.0};
    if (c.rank() == 0) {
      v[0] = 1.5;
      v[1] = 2.5;
    }
    c.broadcast(0, v);
    EXPECT_DOUBLE_EQ(v[0], 1.5);
    EXPECT_DOUBLE_EQ(v[1], 2.5);
    c.barrier();
  });
}

TEST(MsgWorldLoad, RecvAfterWorldShutdownThrowsCleanDiagnostic) {
  World w(2);
  w.run([](Comm&) {});  // program over; world is shut down
  double buf[1];
  try {
    w.receive(0, 1, 3, buf);
    FAIL() << "recv after shutdown must throw, not hang";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("world shutdown"), std::string::npos)
        << e.what();
  }
}

TEST(MsgWorldLoad, RecvFromFinishedRankThrowsInsteadOfHanging) {
  World w(2);
  EXPECT_THROW(w.run([](Comm& c) {
    if (c.rank() == 0) {
      // Rank 1 returns immediately and will never send: this recv must
      // fail with a diagnostic naming the finished rank, not block forever.
      double buf[1];
      c.recv(1, 9, buf);
    }
  }),
               ContractError);
}

// A rank whose program ends before a collective: its peers' collective must
// fail with the finished-rank diagnostic of the receive it runs on, not wait
// forever for a token that can never arrive.
// Rank 0's collective must throw, naming the finished peer, and run()
// must report the failure that started it: rank 1's own.
void expect_collective_fails_on_early_exit(
    const std::function<void(Comm&)>& collective) {
  World w(2);
  std::string rank0_error;
  try {
    w.run([&](Comm& c) {
      if (c.rank() == 1) throw ContractError("rank 1 exits early");
      try {
        collective(c);
      } catch (const ContractError& e) {
        rank0_error = e.what();
        throw;
      }
    });
    FAIL() << "the collective must throw, not hang or succeed";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("rank 1 exits early"),
              std::string::npos)
        << e.what();
  }
  EXPECT_NE(rank0_error.find("rank 1's program already finished"),
            std::string::npos)
      << rank0_error;
}

TEST(MsgWorldLoad, BarrierAfterPeerExitedThrowsInsteadOfHanging) {
  expect_collective_fails_on_early_exit([](Comm& c) { c.barrier(); });
}

TEST(MsgWorldLoad, AllreduceAfterPeerExitedThrowsInsteadOfHanging) {
  expect_collective_fails_on_early_exit(
      [](Comm& c) { (void)c.allreduce_sum(1.0); });
}

TEST(MsgWorldLoad, MessageSentBeforeFinishIsStillReceivable) {
  // A rank may legitimately send and then finish; the consumer must still
  // be able to collect the buffered message afterwards.
  World w(2);
  w.run([](Comm& c) {
    double buf[1] = {7.0};
    if (c.rank() == 1) {
      c.send(0, 4, buf);  // fire and exit
    } else {
      c.recv(1, 4, buf);
      EXPECT_DOUBLE_EQ(buf[0], 7.0);
    }
  });
}

TEST(MsgWorldLoad, BackpressureTowardFinishedRankThrows) {
  // Producer keeps sending into a bounded mailbox whose consumer has
  // finished: once the mailbox is full the send must diagnose the dead
  // consumer rather than wait for a drain that cannot happen.
  World w(2, /*max_mailbox_messages=*/2);
  EXPECT_THROW(w.run([](Comm& c) {
                 if (c.rank() == 0) {
                   double buf[1] = {0.0};
                   for (int i = 0; i < 50; ++i) c.send(1, 6, buf);
                 }
                 // rank 1 receives nothing and returns
               }),
               ContractError);
}

}  // namespace
}  // namespace sacpp::msg
