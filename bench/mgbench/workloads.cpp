// The four workloads: npb-A / npb-W (mg::run_benchmark), serve-S (an open
// loop into a spawned mg_server) and cluster-W (MgMpi ranks as processes
// over loopback TCP).

#include <fcntl.h>
#include <poll.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <span>

#include "mgbench.hpp"
#include "proc.hpp"
#include "sacpp/mg/driver.hpp"
#include "sacpp/mg/mg_mpi.hpp"
#include "sacpp/msg/msg.hpp"
#include "sacpp/net/codec.hpp"
#include "sacpp/net/tcp_transport.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/serve/wire.hpp"

namespace mgbench {

using namespace sacpp;

bool norm_ok(const Run& run, const mg::MgSpec& spec, double norm,
             std::string* detail) {
  double ref = 0.0;
  if (!mg::reference_norm(spec, &ref)) {
    *detail = "class " + spec.name() + " has no reference norm";
    return false;
  }
  ref *= run.ref_scale;
  const bool ok = ref < 1e-15 ? norm / ref > 0.2 && norm / ref < 5.0
                              : std::abs(norm - ref) / ref <= 1e-8;
  if (!ok) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "class %s norm %.15e vs reference %.15e",
                  spec.name().c_str(), norm, ref);
    *detail = buf;
  }
  return ok;
}

void set_threads(unsigned threads) {
  sac::SacConfig& cfg = sac::config();
  cfg.mt_enabled = threads > 1;
  if (threads > 1) cfg.mt_threads = threads;
}

namespace {

// Repeat `body` (one repetition of every variant, in seeded order) until the
// run's budget is spent: a repetition starts only if the previous one's
// duration still fits.  A fixed Run::reps overrides the budget.
template <typename Body>
void repeat_within_budget(Run& run, Body&& body) {
  const double begin = now_s();
  double last = 0.0;
  for (int rep = 0;; ++rep) {
    if (run.reps > 0 ? rep >= run.reps
                     : rep > 0 && now_s() - begin + last > run.seconds) {
      break;
    }
    const double r0 = now_s();
    body();
    last = now_s() - r0;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// npb-A / npb-W
// ---------------------------------------------------------------------------

void npb_workload(Run& run, const mg::MgSpec& spec) {
  enum { kSac1, kSacMt, kRef };
  const mg::RunOptions opts{.warmup = true, .record_norms = false};
  repeat_within_budget(run, [&] {
    int order[] = {kSac1, kSacMt, kRef};
    std::shuffle(std::begin(order), std::end(order), run.rng);
    for (const int v : order) {
      set_threads(v == kSacMt ? run.threads : 1);
      const mg::Variant variant =
          v == kRef ? mg::Variant::kFortran : mg::Variant::kSac;
      const double t0 = now_s();
      const mg::MgResult res = mg::run_benchmark(variant, spec, opts);
      const double wall = now_s() - t0;
      std::string detail;
      const bool ok = norm_ok(run, spec, res.final_norm, &detail);
      run.report.attempt(ok, std::string(mg::variant_name(variant)) + " " +
                                 detail);
      if (v == kSac1) {
        run.report.add("solve_s", "s", res.seconds);
        run.report.add("setup_s", "s", wall - res.seconds);
      } else if (v == kSacMt) {
        run.report.add("solve_mt_s", "s", res.seconds);
      } else {
        run.report.add("ref_solve_s", "s", res.seconds);
      }
    }
    set_threads(1);
  });
  Report& r = run.report;
  r.set_value("throughput_per_s", "1/s", 1.0 / r.value("solve_mt_s"));
  r.set_value("peak_rss_mb", "MB", peak_rss_mb(false));
  r.set_ratio("f77_ratio", "solve_s", "ref_solve_s");
  r.set_ratio("mt_speedup", "solve_s", "solve_mt_s");
}

// ---------------------------------------------------------------------------
// serve-S
// ---------------------------------------------------------------------------

namespace {

constexpr double kRates[] = {200.0, 400.0, 800.0, 1600.0};  // req/s
constexpr double kLatencyLimitMs = 20.0;  // class-S p99 limit of a rung
constexpr double kWFraction = 0.02;     // class-W share of the request mix
constexpr double kHighFraction = 0.10;  // priority mix: 10 / 70 / 20 %
constexpr double kLowFraction = 0.20;
constexpr std::int64_t kLowDeadlineNs = 100'000'000;
// Class-S requests spread over three connections and the class-W jobs use
// a fourth.  mg_server answers each connection in request order, so a W
// reply (~0.1 s) mixed into every connection would hold back ~10% of the
// class-S replies at 200 req/s, and no rung could meet the latency limit.
constexpr int kConnections = 4;
constexpr double kReplyTimeoutS = 30.0;

// Acknowledge received bytes at once.  mg_server writes replies without
// TCP_NODELAY, so with the kernel's delayed ACKs each pipelined reply waits
// for the client's next request or the 40 ms ACK timer; that wait, not the
// server, would set the latency percentiles.  Linux clears the flag after
// use, so it is set again after every read.
void quick_ack(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
}

serve::SolveRequest make_request(std::uint64_t id, mg::MgClass cls,
                                 serve::Priority prio) {
  serve::SolveRequest req;
  req.id = id;
  req.cls = cls;
  req.variant = mg::Variant::kSacDirect;
  req.priority = prio;
  req.stencil_mode = sac::StencilMode::kPlanes;
  req.backend = sac::BackendKind::kSimd;
  // A class-W solve alone takes about 0.1 s, so only class-S requests get
  // the low lane's deadline.
  req.deadline_ns =
      prio == serve::Priority::kLow && cls == mg::MgClass::S ? kLowDeadlineNs
                                                              : 0;
  return req;
}

// Correctness of one reply that carries a finished solve.
bool reply_ok(const Run& run, mg::MgClass cls, const serve::SolveResult& res,
              std::string* detail) {
  if (!norm_ok(run, mg::MgSpec::for_class(cls), res.final_norm, detail)) {
    return false;
  }
  if (!res.verified) {
    *detail = "the server reported an unverified answer";
    return false;
  }
  return true;
}

// A spawned mg_server with the client connections to it.  Construction
// measures set-up: from spawn until the first class-S request is answered.
// The open loop's sender must not wait behind the server it loads: the
// server gets one core less than the host and runs at nice 10.  On a 4-vCPU
// shared virtual machine the sender's lag p99 exceeded 2 ms in every run
// with all cores at equal priority, in 2 of 23 runs with one core less, and
// with the server niced as well only when the hypervisor stole the
// sender's CPU (see README.md, Validity guards).
class Server {
 public:
  explicit Server(Run& run) {
    const int port = free_port();
    const double spawned = now_s();
    const unsigned cores =
        std::max(2u, std::thread::hardware_concurrency()) - 1;
    child_ = Child({"nice", "-n", "10", run.server_bin, "--port",
                    std::to_string(port), "--cores", std::to_string(cores),
                    "--queue-cap", "64", "--max-conns",
                    std::to_string(kConnections)},
                   {});
    int fd = -1;
    while ((fd = connect_loopback(port)) < 0) {  // answers once listening
      if (now_s() - spawned > 20.0) {
        throw std::runtime_error("mg_server did not start listening");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    conns_.push_back(fd);
    send(fd, mg::MgClass::S, 1);
    receive(run, fd, mg::MgClass::S, 1);
    setup_s_ = now_s() - spawned;
    for (int i = 1; i < kConnections; ++i) {
      const int c = connect_loopback(port);
      if (c < 0) throw std::runtime_error("cannot connect to mg_server");
      conns_.push_back(c);
    }
  }

  ~Server() {
    // mg_server exits once its --max-conns connections have all closed.
    for (const int fd : conns_) ::close(fd);
    child_.wait(20.0);
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  double setup_s() const { return setup_s_; }
  const std::vector<int>& conns() const { return conns_; }
  std::uint64_t take_ids(std::size_t n) {
    const std::uint64_t first = next_id_;
    next_id_ += n;
    return first;
  }

 private:
  // Send `count` normal-priority requests of `cls` on `fd` back to back.
  void send(int fd, mg::MgClass cls, int count) {
    for (int i = 0; i < count; ++i) {
      const serve::SolveRequest req =
          make_request(next_id_++, cls, serve::Priority::kNormal);
      if (!net::write_all(fd, serve::encode_request(req))) {
        throw std::runtime_error("cannot send to mg_server");
      }
    }
  }

  // Read and check `count` replies of class `cls` from `fd`.
  void receive(Run& run, int fd, mg::MgClass cls, int count) {
    net::FrameAssembler assembler(serve::kMaxFrameBytes);
    std::vector<std::uint8_t> frame;
    const double deadline = now_s() + kReplyTimeoutS;
    for (int got = 0; got < count;) {
      if (assembler.next(&frame) == net::FrameResult::kFrame) {
        serve::SolveResult res;
        std::string detail = "undecodable reply";
        const bool ok = serve::decode_result(frame, &res) &&
                        res.status == serve::SolveStatus::kOk &&
                        reply_ok(run, cls, res, &detail);
        run.report.attempt(ok, "first request: " + detail);
        if (!ok) throw std::runtime_error("mg_server: " + detail);
        ++got;
        continue;
      }
      pollfd p{fd, POLLIN, 0};
      std::uint8_t buf[4096];
      if (now_s() > deadline || ::poll(&p, 1, 100) < 0) {
        throw std::runtime_error("no reply from mg_server");
      }
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n <= 0) throw std::runtime_error("mg_server closed the connection");
      quick_ack(fd);
      assembler.feed({buf, static_cast<std::size_t>(n)});
    }
  }

  Child child_;
  std::vector<int> conns_;
  std::uint64_t next_id_ = 1;
  double setup_s_ = 0.0;
};

struct Rung {
  double rate = 0.0;
  std::size_t requests = 0;
  std::size_t not_ok = 0;  // shed, late, errored, wrong or missing
  std::size_t shed = 0;
  // Latencies of the class-S requests; +inf marks a not-ok one.
  std::vector<double> s_all_ms;
  std::vector<double> s_ok_ms;
  std::vector<double> high_ok_ms;
  std::vector<double> queue_ms, exec_ms, edge_ms;  // class S, completed
  std::vector<double> gen_lag_ms;                  // every request
  double backlog = 1.0;  // completions / arrivals in the rung's last quarter
  double score = 0.0;    // > 1: the rung misses the limit (see max_rate)
  // Distinct computations: variant, iterations and knobs are the same in
  // every request, so the class alone tells them apart.
  std::set<mg::MgClass> inputs;
};

// One open-loop rung: Poisson arrivals at `rate` for `rung_s` seconds, one
// sender (this thread) and one poll() receiver thread over the server's
// connections.  Latency runs from each request's scheduled send time.  A
// warm-up rung sends every request at normal priority without a deadline,
// so nothing is shed while the server's pools fill.
Rung run_rung(Run& run, Server& server, double rate, double rung_s,
              bool traced, bool warm_up = false) {
  struct Item {
    double due = 0.0;  // scheduled offset from the rung start
    int conn = 0;
    serve::SolveRequest req;
    double sent = 0.0;
    double recv = 0.0;  // recv/got/res: written by the receiver thread
    bool got = false;
    serve::SolveResult res;
  };
  const std::vector<int>& conns = server.conns();
  const int s_conns = static_cast<int>(conns.size()) - 1;
  std::vector<Item> items;
  std::exponential_distribution<double> gap(rate);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  int next_s_conn = 0;
  for (double t = gap(run.rng); t < rung_s; t += gap(run.rng)) {
    Item it;
    it.due = t;
    const bool w = uni(run.rng) < kWFraction;
    const double p = uni(run.rng);
    const serve::Priority prio = warm_up ? serve::Priority::kNormal
                                 : p < kHighFraction ? serve::Priority::kHigh
                                 : p < kHighFraction + kLowFraction
                                     ? serve::Priority::kLow
                                     : serve::Priority::kNormal;
    it.req = make_request(0, w ? mg::MgClass::W : mg::MgClass::S, prio);
    it.conn = w ? s_conns : next_s_conn++ % s_conns;
    items.push_back(it);
  }
  const std::uint64_t base = server.take_ids(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) items[i].req.id = base + i;

  std::atomic<std::size_t> received{0};
  std::atomic<bool> stop{false};
  std::thread receiver([&] {
    std::vector<net::FrameAssembler> assemblers(
        conns.size(), net::FrameAssembler(serve::kMaxFrameBytes));
    std::vector<pollfd> fds;
    for (const int fd : conns) fds.push_back({fd, POLLIN, 0});
    std::vector<std::uint8_t> frame;
    std::uint8_t buf[16384];
    while (received.load() < items.size() && !stop.load()) {
      if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
      for (std::size_t c = 0; c < fds.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t n = ::read(fds[c].fd, buf, sizeof buf);
        if (n <= 0) {
          fds[c].fd = -1;  // connection closed: its requests stay missing
          continue;
        }
        quick_ack(fds[c].fd);
        const double t = now_s();
        assemblers[c].feed({buf, static_cast<std::size_t>(n)});
        while (assemblers[c].next(&frame) == net::FrameResult::kFrame) {
          serve::SolveResult res;
          if (!serve::decode_result(frame, &res)) continue;
          const std::uint64_t idx = res.id - base;
          if (idx >= items.size() || items[idx].got) continue;
          items[idx].recv = t;
          items[idx].res = res;
          items[idx].got = true;
          received.fetch_add(1);
        }
      }
    }
  });

  const double t0 = now_s() + 0.001;
  for (Item& it : items) {
    const double wait = t0 + it.due - now_s();
    if (wait > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    it.sent = now_s();
    if (!net::write_all(conns[static_cast<std::size_t>(it.conn)],
                        serve::encode_request(it.req))) {
      break;  // the server went away; the rest count as missing
    }
  }
  const double deadline = now_s() + kReplyTimeoutS;
  while (received.load() < items.size() && now_s() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  receiver.join();

  Rung rung;
  rung.rate = rate;
  rung.requests = items.size();
  double arrivals = 0.0, completions = 0.0;
  const double quarter = t0 + 0.75 * rung_s;
  for (const Item& it : items) {
    const double due = t0 + it.due;
    const bool s_class = it.req.cls == mg::MgClass::S;
    rung.gen_lag_ms.push_back((it.sent - due) * 1e3);
    rung.inputs.insert(it.req.cls);
    if (due >= quarter) arrivals += 1.0;
    if (it.got && it.recv >= quarter && it.recv < t0 + rung_s) {
      completions += 1.0;
    }
    std::string detail = "no reply";
    bool correct = false;
    bool in_limit = false;
    if (it.got) {
      switch (it.res.status) {
        case serve::SolveStatus::kOk:
          correct = reply_ok(run, it.req.cls, it.res, &detail);
          in_limit = correct;
          break;
        case serve::SolveStatus::kDeadlineMiss:  // finished, but late
          correct = reply_ok(run, it.req.cls, it.res, &detail);
          break;
        case serve::SolveStatus::kShedDeadline:
        case serve::SolveStatus::kShedCapacity:
          rung.shed += 1;
          correct = true;  // refused by design under overload, not wrong
          break;
        default:
          detail = std::string(serve::solve_status_name(it.res.status)) +
                   " " + it.res.error;
      }
    }
    run.report.attempt(correct, "request " + std::to_string(it.req.id) +
                                    ": " + detail);
    if (correct && !in_limit) run.report.miss();
    const double e2e = static_cast<double>(it.res.e2e_ns) * 1e-9;
    const double queue = static_cast<double>(it.res.queue_ns) * 1e-9;
    if (!in_limit) {
      rung.not_ok += 1;
      if (s_class) rung.s_all_ms.push_back(std::numeric_limits<double>::infinity());
    } else if (s_class) {
      const double lat = (it.recv - due) * 1e3;
      rung.s_all_ms.push_back(lat);
      rung.s_ok_ms.push_back(lat);
      if (it.req.priority == serve::Priority::kHigh) {
        rung.high_ok_ms.push_back(lat);
      }
      rung.queue_ms.push_back(queue * 1e3);
      rung.exec_ms.push_back((e2e - queue) * 1e3);
      rung.edge_ms.push_back((it.recv - it.sent - e2e) * 1e3);
    }
    if (traced && it.got) {
      // Server-side spans come from the reply's durations; the edge time
      // (socket, decode, in-order reply wait, encode) is split evenly
      // around them because the two clocks are not comparable.
      const std::uint64_t trace = run.spans.new_trace();
      const std::uint64_t root =
          run.spans.record("serve.request", due, it.recv, 0, trace);
      run.spans.record("serve.client_send", due, it.sent, root, trace);
      const double edge = std::max(0.0, it.recv - it.sent - e2e);
      const double s0 = it.sent + edge / 2;
      const double s1 = s0 + queue, s2 = s0 + e2e;
      run.spans.record("serve.edge", it.sent, s0, root, trace);
      run.spans.record("serve.queue", s0, s1, root, trace);
      run.spans.record("serve.exec", s1, s2, root, trace);
      run.spans.record("serve.edge", s2, it.recv, root, trace);
    }
  }
  rung.backlog = arrivals > 0.0 ? completions / arrivals : 1.0;
  const double fail_frac =
      static_cast<double>(rung.not_ok) /
      static_cast<double>(std::max<std::size_t>(rung.requests, 1));
  // A not-ok class-S request makes the p99 infinite only when more than 1%
  // failed, which the failure term already scores.
  const double p99 = percentile(rung.s_all_ms, 0.99);
  rung.score = std::max({std::isfinite(p99) ? p99 / kLatencyLimitMs : 0.0,
                         fail_frac / 0.01, (1.0 - rung.backlog) / 0.05});
  return rung;
}

// The highest offered rate whose rung meets the limit: class-S p99 within
// kLatencyLimitMs with failures counted as over it, at most 1% of requests
// failed, and no growing backlog.  Interpolated linearly in the rung score
// between the last passing rung (rate 0 passes with score 0) and the first
// failing one; capped at the top rate.
double max_rate(const std::vector<Rung>& rungs) {
  double pass_rate = 0.0, pass_score = 0.0;
  for (const Rung& r : rungs) {
    if (r.score > 1.0) {
      return pass_rate + (r.rate - pass_rate) * (1.0 - pass_score) /
                             (r.score - pass_score);
    }
    pass_rate = r.rate;
    pass_score = r.score;
  }
  return pass_rate;
}

double share(std::size_t part, std::size_t whole) {
  return static_cast<double>(part) /
         static_cast<double>(std::max<std::size_t>(whole, 1));
}

// Capacity: every connection keeps kInFlight class-S requests outstanding
// (normal priority, no deadline) for `seconds`; returns the solves completed
// per second.  Twice as many requests in flight as executors keep every
// executor busy while replies travel.
constexpr int kInFlight = 2;

double closed_loop(Run& run, Server& server, double seconds) {
  const std::vector<int>& conns = server.conns();
  std::vector<net::FrameAssembler> assemblers(
      conns.size(), net::FrameAssembler(serve::kMaxFrameBytes));
  std::vector<pollfd> fds;
  for (const int fd : conns) fds.push_back({fd, POLLIN, 0});
  const auto send_one = [&](int fd) {
    const serve::SolveRequest req = make_request(
        server.take_ids(1), mg::MgClass::S, serve::Priority::kNormal);
    if (!net::write_all(fd, serve::encode_request(req))) {
      throw std::runtime_error("cannot send to mg_server");
    }
  };
  for (const int fd : conns) {
    for (int i = 0; i < kInFlight; ++i) send_one(fd);
  }
  std::size_t outstanding = conns.size() * kInFlight;
  const double t0 = now_s();
  std::size_t completed = 0;
  const double stop = t0 + seconds;
  const double deadline = stop + kReplyTimeoutS;
  std::vector<std::uint8_t> frame;
  std::uint8_t buf[16384];
  while (outstanding > 0 && now_s() < deadline) {
    if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = ::read(fds[c].fd, buf, sizeof buf);
      if (n <= 0) throw std::runtime_error("mg_server closed the connection");
      quick_ack(fds[c].fd);
      assemblers[c].feed({buf, static_cast<std::size_t>(n)});
      while (assemblers[c].next(&frame) == net::FrameResult::kFrame) {
        serve::SolveResult res;
        std::string detail = "undecodable reply";
        const bool ok = serve::decode_result(frame, &res) &&
                        res.status == serve::SolveStatus::kOk &&
                        reply_ok(run, mg::MgClass::S, res, &detail);
        run.report.attempt(ok, "closed-loop request: " + detail);
        outstanding -= 1;
        if (now_s() < stop) {
          completed += 1;
          send_one(fds[c].fd);
          outstanding += 1;
        }
      }
    }
  }
  return static_cast<double>(completed) / seconds;
}

}  // namespace

void serve_ladder(Run& run, double rung_s, bool traced) {
  Server server(run);
  // One server climbs the whole ladder, lowest rate first.  Its SLO watchdog
  // sheds low-priority requests at the door once a 10 s window holds more
  // than 10% sheds, and that state persists while the traffic lasts; the
  // warm-up gives the window a shed-free history, so only the overloaded
  // rungs reach it.
  run_rung(run, server, kRates[0], 1.0, false, true);
  const double untraced_p50 =
      traced ? percentile(run_rung(run, server, kRates[0], rung_s, false).s_all_ms,
                          0.5)
             : 0.0;
  std::vector<Rung> rungs;
  for (const double rate : kRates) {
    rungs.push_back(run_rung(run, server, rate, rung_s, traced));
  }

  const Rung& base = rungs.front();
  const Rung& top = rungs.back();
  Report& r = run.report;
  if (traced) {
    r.set_value("bench.trace_overhead_frac", "ratio",
                percentile(base.s_all_ms, 0.5) / untraced_p50 - 1.0);
  }
  r.set_value("serve.max_rate_rps", "req/s", max_rate(rungs));
  r.set_value("serve.queue_ms.p50", "ms", percentile(base.queue_ms, 0.5));
  r.set_value("serve.queue_ms.p99", "ms", percentile(base.queue_ms, 0.99));
  r.set_value("serve.exec_ms.p50", "ms", percentile(base.exec_ms, 0.5));
  r.set_value("serve.exec_ms.p99", "ms", percentile(base.exec_ms, 0.99));
  r.set_value("serve.edge_ms.p50", "ms", percentile(base.edge_ms, 0.5));
  r.set_value("serve.edge_ms.p99", "ms", percentile(base.edge_ms, 0.99));
  for (const Rung& g : rungs) {
    r.set_value("serve.rung" + std::to_string(static_cast<int>(g.rate)) +
                    ".p99_ms",
                "ms", percentile(g.s_ok_ms, 0.99));
  }
  r.set_value("serve.high_p99_ms", "ms", percentile(top.high_ok_ms, 0.99));
  r.set_value("serve.shed_frac", "ratio", share(top.shed, top.requests));
  std::set<mg::MgClass> inputs;
  std::size_t requests = 0;
  for (const Rung& g : rungs) {
    inputs.insert(g.inputs.begin(), g.inputs.end());
    requests += g.requests;
  }
  r.set_value("serve.distinct_input_share", "ratio",
              share(inputs.size(), requests));
  // The overload rungs keep every core busy; the generator's own lag is
  // judged where the load is light.
  r.set_value("serve.gen_lag_ms.p99", "ms", percentile(base.gen_lag_ms, 0.99));
}

void serve_workload(Run& run) {
  // Baseline: the request's solve in this process, no server, with the
  // options the server's executors use (no warm-up iteration).  It runs in
  // three batches spread over the run, so that one slow stretch of the host
  // cannot hold all of its samples; the first solves fill the process's
  // pools, as the server's warm-up does.
  const mg::MgSpec spec = mg::MgSpec::for_class(mg::MgClass::S);
  const auto in_process = [&](int solves) {
    const mg::RunOptions opts{.warmup = false, .record_norms = false};
    for (int i = 0; i < solves; ++i) {
      const double t0 = now_s();
      const mg::MgResult res =
          mg::run_benchmark(mg::Variant::kSacDirect, spec, opts);
      run.report.add("ref_solve_s", "s", now_s() - t0);
      std::string detail;
      run.report.attempt(norm_ok(run, spec, res.final_norm, &detail),
                         "in-process solve: " + detail);
    }
  };
  for (int i = 0; i < 10; ++i) {
    mg::run_benchmark(mg::Variant::kSacDirect, spec,
                      {.warmup = false, .record_norms = false});
  }
  in_process(40);
  // Set-up is sampled on fresh servers that answer one request each.
  for (int i = 0; i < 4; ++i) {
    const Server server(run);
    run.report.add("setup_s", "s", server.setup_s());
  }
  Report& r = run.report;
  {
    Server server(run);
    r.add("setup_s", "s", server.setup_s());
    run_rung(run, server, kRates[0], 1.0, false, true);
    // The latency of the light-load rung, and the capacity of a closed
    // loop.  The overload rungs' tails are dominated by rare stalls and by
    // the watchdog state (serve_ladder), so they are per-layer metrics.
    // solve_s is the median class-S latency with every not-ok request
    // counted as over it; the samples recorded are the completed ones.
    const Rung base = run_rung(run, server, kRates[0], run.seconds * 0.45, false);
    in_process(40);
    for (const double ms : base.s_ok_ms) r.add("solve_s", "s", ms * 1e-3);
    r.set_value("solve_s", "s", percentile(base.s_all_ms, 0.5) * 1e-3);
    r.set_value("req_p99_ms", "ms", percentile(base.s_all_ms, 0.99));
    r.set_value("serve.gen_lag_ms.p99", "ms",
                percentile(base.gen_lag_ms, 0.99));
    r.set_value("throughput_per_s", "1/s",
                closed_loop(run, server, run.seconds * 0.2));
  }
  in_process(40);
  r.set_value("peak_rss_mb", "MB", peak_rss_mb(true));  // server reaped
}

// ---------------------------------------------------------------------------
// cluster-W
// ---------------------------------------------------------------------------

namespace {

std::vector<std::string> split(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(item);
  return out;
}

// The value of `key=` in a worker's result line (NaN when absent).
double field(const std::string& line, const std::string& key) {
  const std::size_t at = (" " + line).find(" " + key + "=");
  if (at == std::string::npos) return std::numeric_limits<double>::quiet_NaN();
  return std::strtod(line.c_str() + at + key.size() + 1, nullptr);
}

}  // namespace

ClusterResult launch_cluster(Run& run, const mg::MgSpec& spec, int ranks,
                             double budget_s, std::uint64_t trace) {
  std::vector<int> listeners;
  std::string hosts;
  for (int r = 0; r < ranks; ++r) {
    int port = 0;
    const int fd = listen_loopback(&port);
    if (fd < 0) throw std::runtime_error("cannot bind a rank listener");
    listeners.push_back(fd);
    hosts += (r ? "," : "") + std::string("127.0.0.1:") + std::to_string(port);
  }
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const std::string self = self_exe();
  const double t0 = now_s();
  std::vector<Child> workers;
  for (int r = 0; r < ranks; ++r) {
    Child::Options opts;
    opts.stdout_fd = r == 0 ? out[1] : -1;
    for (int j = 0; j < ranks; ++j) {
      if (j != r) opts.close_fds.push_back(listeners[static_cast<std::size_t>(j)]);
    }
    workers.emplace_back(
        std::vector<std::string>{
            self, "--worker", "cluster", "--rank", std::to_string(r),
            "--hosts", hosts, "--listen-fd",
            std::to_string(listeners[static_cast<std::size_t>(r)]), "--class",
            spec.name(), "--seconds", std::to_string(budget_s)},
        opts);
  }
  for (const int fd : listeners) ::close(fd);
  ::close(out[1]);
  const std::string text = read_all(out[0], 150.0);
  ::close(out[0]);
  bool exited_ok = true;
  for (Child& w : workers) exited_ok = w.wait(20.0) == 0 && exited_ok;
  const double t1 = now_s();

  ClusterResult res;
  res.wall_s = t1 - t0;
  res.ok = exited_ok;
  std::string detail = "a worker failed";
  const std::uint64_t launch =
      trace != 0 ? run.spans.record("cluster.launch", t0, t1, 0, trace) : 0;
  std::stringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("solve ", 0) == 0) {
      const double secs = field(line, "seconds");
      const double start = field(line, "start"), end = field(line, "end");
      std::string why;
      const bool ok = norm_ok(run, spec, field(line, "norm"), &why);
      run.report.attempt(ok, std::to_string(ranks) + " ranks: " + why);
      res.seconds.push_back(secs);
      res.solving_s += end - start;
      if (trace != 0) {
        run.spans.record("cluster.rank_setup", start, end - secs, launch, trace);
        run.spans.record("cluster.solve", end - secs, end, launch, trace);
      }
    } else if (line.rfind("done ", 0) == 0) {
      res.messages = field(line, "messages");
      res.bytes = field(line, "bytes");
      if (trace != 0) {
        run.spans.record("net.rendezvous", field(line, "rdv0"),
                         field(line, "rdv1"), launch, trace);
      }
    }
  }
  res.ok = res.ok && !res.seconds.empty() && std::isfinite(res.messages);
  if (!res.ok) run.report.attempt(false, std::to_string(ranks) + " ranks: " + detail);
  return res;
}

int cluster_worker(int rank, const std::string& hosts, int listen_fd,
                   const std::string& cls, double budget_s) {
  try {
    net::TcpOptions opt;
    opt.rank = rank;
    opt.hosts = split(hosts);
    opt.listen_fd = listen_fd;
    const mg::MgSpec spec = mg::MgSpec::for_class(mg::parse_class(cls));
    const double rdv0 = now_s();
    net::TcpTransport transport(opt);
    const double rdv1 = now_s();
    const double stop = rdv1 + budget_s;
    msg::World world(transport);
    const mg::MgMpi solver(spec, transport.size(), true);
    // Solve until the budget is spent; rank 0 decides whether another solve
    // still fits and tells the others, so every rank runs the same count.
    world.run([&](msg::Comm& comm) {
      for (;;) {
        const double start = now_s();
        const mg::MgMpi::Result result = solver.run_rank(comm, spec.nit);
        const double end = now_s();
        if (rank == 0) {
          std::printf("solve seconds=%.17g norm=%.17g start=%.17g end=%.17g\n",
                      result.seconds, result.final_norm, start, end);
        }
        double again = now_s() + (end - start) <= stop ? 1.0 : 0.0;
        comm.broadcast(0, std::span<double>(&again, 1));
        if (again == 0.0) break;
      }
    });
    // Rank 0 resets the counters at each timed section: these are the last
    // solve's.
    const msg::WorldStats stats = world.stats();
    if (rank == 0) {
      std::printf("done messages=%llu bytes=%llu rdv0=%.17g rdv1=%.17g\n",
                  static_cast<unsigned long long>(stats.messages),
                  static_cast<unsigned long long>(stats.bytes), rdv0, rdv1);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mgbench cluster rank %d: %s\n", rank, e.what());
    return 1;
  }
}

void cluster_workload(Run& run, const mg::MgSpec& spec) {
  // Ranks: 1 (the baseline), 2, and the widest power of two <= threads.
  int wide = 1;
  while (wide * 2 <= static_cast<int>(run.threads)) wide *= 2;
  std::vector<int> order = {1, 2};
  if (wide > 2) order.push_back(wide);
  // Rounds of one launch per rank count, each in seeded order, so a slow
  // stretch of the host falls on every rank count alike.
  constexpr int kRounds = 3;
  const double budget =
      run.reps > 0 ? 0.0
                   : run.seconds * 0.85 /
                         static_cast<double>(kRounds * order.size());
  Report& r = run.report;
  for (int round = 0; round < (run.reps > 0 ? run.reps : kRounds); ++round) {
    std::shuffle(order.begin(), order.end(), run.rng);
    for (const int ranks : order) {
      const ClusterResult res = launch_cluster(run, spec, ranks, budget, 0);
      if (!res.ok) continue;
      // Everything of a launch outside its solves: spawn, rendezvous, world
      // set-up, teardown.
      r.add("setup_s", "s", res.wall_s - res.solving_s);
      const char* name = ranks == 1   ? "ref_solve_s"
                         : ranks == 2 ? "solve_s"
                                      : "solve_wide_s";
      for (const double t : res.seconds) r.add(name, "s", t);
      if (ranks == 2) {
        r.set_value("msg.messages_per_solve", "count", res.messages);
        r.set_value("msg.bytes_per_solve", "B", res.bytes);
      }
    }
  }
  r.set_value("throughput_per_s", "1/s",
              1.0 / r.value(wide > 2 ? "solve_wide_s" : "solve_s"));
  r.set_value("peak_rss_mb", "MB", peak_rss_mb(true));
  r.set_ratio("dist_speedup", "ref_solve_s", "solve_s");
}

}  // namespace mgbench
