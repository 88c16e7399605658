// Lock-order analysis tests: the registry's happens-before graph, cycle
// detection on a seeded ABBA inversion (the acceptance case: the analyzer
// must flag the inversion without any deadlock firing), clean nesting, the
// Graphviz dump, and the obs gauges.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sacpp/check/lockorder.hpp"
#include "sacpp/common/lockorder.hpp"
#include "sacpp/obs/export.hpp"

using namespace sacpp;
using namespace sacpp::check;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CheckLockOrder, RegistryDeduplicatesLockClassesByName) {
  // Instances sharing a constructor name share one graph node: the msg
  // mailboxes are all one class.
  TrackedMutex a("test.dedup");
  TrackedMutex b("test.dedup");
  TrackedMutex c("test.dedup.other");
  EXPECT_EQ(a.id(), b.id());
  EXPECT_NE(a.id(), c.id());
  EXPECT_EQ(LockRegistry::instance().lock_name(a.id()), "test.dedup");
}

TEST(CheckLockOrder, NoEdgesRecordedWhileTracingDisabled) {
  LockRegistry& reg = LockRegistry::instance();
  reg.set_enabled(false);
  reg.reset_edges();
  TrackedMutex outer("test.off.outer");
  TrackedMutex inner("test.off.inner");
  {
    std::lock_guard<TrackedMutex> g1(outer);
    std::lock_guard<TrackedMutex> g2(inner);
  }
  EXPECT_EQ(reg.edge_count(), 0u);
}

TEST(CheckLockOrder, CleanNestingYieldsNoDiagnostics) {
  TrackedMutex outer("test.clean.outer");
  TrackedMutex inner("test.clean.inner");
  LockOrderSession session;
  for (int i = 0; i < 3; ++i) {
    std::lock_guard<TrackedMutex> g1(outer);
    std::lock_guard<TrackedMutex> g2(inner);
  }
  DiagnosticEngine& engine = session.finish();
  EXPECT_TRUE(engine.empty()) << engine.to_ascii();
  // The edge itself was recorded — the graph is not empty, just acyclic.
  EXPECT_GE(LockRegistry::instance().edge_count(), 1u);
}

TEST(CheckLockOrder, DetectsSeededAbbaInversion) {
  // The canonical deadlock seed: one thread locks A then B, another locks B
  // then A.  Neither run wedges here (the threads are joined sequentially),
  // which is exactly the point — the cycle is found from the recorded
  // orders, not from an actual deadlock.  The graph orders lock names, so
  // each thread takes its own instances: the analyzer still sees A -> B ->
  // A, while no two instances are ever taken in both orders (which a
  // sanitizer's deadlock detector would rightly report on its own).
  TrackedMutex a1("test.abba.a"), a2("test.abba.a");
  TrackedMutex b1("test.abba.b"), b2("test.abba.b");
  LockOrderSession session;
  std::thread t1([&] {
    std::lock_guard<TrackedMutex> g1(a1);
    std::lock_guard<TrackedMutex> g2(b1);
  });
  t1.join();
  std::thread t2([&] {
    std::lock_guard<TrackedMutex> g1(b2);
    std::lock_guard<TrackedMutex> g2(a2);
  });
  t2.join();

  DiagnosticEngine& engine = session.finish();
  ASSERT_EQ(engine.count(Severity::kError), 1u) << engine.to_ascii();
  const Diagnostic& d = engine.diagnostics()[0];
  EXPECT_EQ(d.pass, Pass::kLockOrder);
  EXPECT_NE(d.message.find("lock-order cycle"), std::string::npos);
  // The diagnostic names the full inversion path.
  EXPECT_NE(d.message.find("test.abba.a"), std::string::npos)
      << d.to_string();
  EXPECT_NE(d.message.find("test.abba.b"), std::string::npos)
      << d.to_string();
}

TEST(CheckLockOrder, SameClassNestingIsReentryNotACycle) {
  // Instances of one class share a graph node, so nesting two of them
  // (mailbox A inside mailbox B) is re-entry on that node and
  // records no edge: the graph orders classes, and classes that nest
  // internally must impose their own instance order.
  TrackedMutex first("test.selfedge");
  TrackedMutex second("test.selfedge");
  LockOrderSession session;
  {
    std::lock_guard<TrackedMutex> g1(first);
    std::lock_guard<TrackedMutex> g2(second);
  }
  EXPECT_EQ(LockRegistry::instance().edge_count(), 0u);
  DiagnosticEngine& engine = session.finish();
  EXPECT_TRUE(engine.empty()) << engine.to_ascii();
}

TEST(CheckLockOrder, SessionResetsEdgesBetweenWindows) {
  // The inverted order runs on other instances of the same names, as in
  // DetectsSeededAbbaInversion.
  TrackedMutex a1("test.window.a"), a2("test.window.a");
  TrackedMutex b1("test.window.b"), b2("test.window.b");
  {
    LockOrderSession inverted;
    std::lock_guard<TrackedMutex> g1(a1);
    std::lock_guard<TrackedMutex> g2(b1);
  }
  {
    std::lock_guard<TrackedMutex> g1(b2);  // would complete the cycle...
    std::lock_guard<TrackedMutex> g2(a2);
    // ...but the first window is over: no session is tracing here.
  }
  LockOrderSession fresh;
  {
    std::lock_guard<TrackedMutex> g1(b2);
    std::lock_guard<TrackedMutex> g2(a2);
  }
  // Only the second window's (acyclic) order is on the books.
  DiagnosticEngine& engine = fresh.finish();
  EXPECT_TRUE(engine.empty()) << engine.to_ascii();
}

TEST(CheckLockOrder, DotDumpNamesTheRecordedGraph) {
  TrackedMutex outer("test.dot.outer");
  TrackedMutex inner("test.dot.inner");
  LockOrderSession session;
  {
    std::lock_guard<TrackedMutex> g1(outer);
    std::lock_guard<TrackedMutex> g2(inner);
  }
  const std::string dot = LockRegistry::instance().to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("test.dot.outer"), std::string::npos);
  EXPECT_NE(dot.find("test.dot.inner"), std::string::npos);

  const std::string path = "check_lockorder_test_graph.dot";
  ASSERT_TRUE(write_lock_graph(path));
  EXPECT_EQ(read_file(path), dot);
  std::remove(path.c_str());
  // The empty path is the documented no-op.
  EXPECT_TRUE(write_lock_graph(""));
  session.finish();
}

TEST(CheckLockOrder, ObsGaugesExportGraphSize) {
  TrackedMutex outer("test.gauge.outer");
  TrackedMutex inner("test.gauge.inner");
  LockOrderSession session;  // registers the collector (idempotent)
  {
    std::lock_guard<TrackedMutex> g1(outer);
    std::lock_guard<TrackedMutex> g2(inner);
  }
  std::ostringstream out;
  obs::write_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("sacpp_check_lock_classes"), std::string::npos);
  EXPECT_NE(text.find("sacpp_check_lock_edges"), std::string::npos);
  EXPECT_NE(text.find("sacpp_check_lock_cycles"), std::string::npos);
  session.finish();
}

}  // namespace
