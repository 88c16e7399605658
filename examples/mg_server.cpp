// mg_server: the MG solver service behind a TCP socket.
//
//   $ mg_server --port 7733 --cores 4 --queue-cap 64
//   $ mg_server --selftest          # loopback round trip, then exit
//
// Clients speak the sacpp_serve wire protocol (length-prefixed binary
// frames, see sacpp/serve/wire.hpp): each connection streams SolveRequest
// frames and receives one SolveResult frame per request, in request order.
// Requests from all connections funnel into one in-process SolverService,
// which schedules them across the core budget by priority and deadline
// (docs/serve.md).  examples/mg_loadgen.cpp is the matching client.
//
// With --obs the run records spans/histograms and the exit summary includes
// a Prometheus metrics dump with the sacpp_serve_* gauges.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sacpp/check/diagnostics.hpp"
#include "sacpp/common/cli.hpp"
#include "sacpp/common/error.hpp"
#include "sacpp/net/codec.hpp"
#include "sacpp/net/tcp_transport.hpp"
#include "sacpp/obs/export.hpp"
#include "sacpp/obs/obs.hpp"
#include "sacpp/obs/trace.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/serve/selfcheck.hpp"
#include "sacpp/serve/server.hpp"
#include "sacpp/serve/wire.hpp"

using namespace sacpp;

namespace {

std::atomic<bool> g_stop{false};
std::atomic<int> g_listen_fd{-1};

void on_signal(int) {
  g_stop.store(true);
  // Closing the listener breaks the blocking accept() so the main loop can
  // wind down.
  const int fd = g_listen_fd.exchange(-1);
  if (fd >= 0) ::close(fd);
}

// Frame reassembly and blocking writes come from the shared codec
// (sacpp/net/codec.hpp) — the same implementation the socket transport
// uses.  The strict policy means a lying length prefix ends the stream with
// a diagnostic instead of a clamped frame that fails to decode.

// One connection: a reader streaming requests into the service and a writer
// sending results back in request order (responses pipeline behind slower
// requests, but ordering keeps the protocol trivial for clients).
void serve_connection(int fd, serve::SolverService& service) {
  // Send each reply at once rather than holding it until the client ACKs
  // the previous one (Nagle), as the rank links of src/net already do.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::future<serve::SolveResult>> pending;
  bool reader_done = false;

  std::thread writer([&] {
    obs::set_thread_name("serve-writer");
    bool client_alive = true;
    for (;;) {
      std::future<serve::SolveResult> next;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return reader_done || !pending.empty(); });
        if (pending.empty()) return;
        next = std::move(pending.front());
        pending.pop_front();
      }
      // Always drain the future (the job may still be running); only write
      // while the client is reachable.
      serve::SolveResult result = next.get();
      if (client_alive) {
        client_alive = net::write_all(fd, serve::encode_result(result));
      }
    }
  });

  net::FdFrameReader reader(fd, serve::kMaxFrameBytes);
  std::vector<std::uint8_t> frame;
  std::string stream_error;
  while (!g_stop.load() && reader.next(&frame, &stream_error)) {
    serve::SolveRequest request;
    std::string error;
    if (!serve::decode_request(frame, &request, &error)) {
      // One malformed frame poisons the rest of the byte stream, so report
      // it in-band and drop the connection (frames are length-prefixed; we
      // cannot resynchronise reliably).
      std::fprintf(stderr, "mg_server: dropping connection: %s\n",
                   error.c_str());
      serve::SolveResult bad;
      bad.status = serve::SolveStatus::kError;
      bad.error = error;
      std::promise<serve::SolveResult> ready;
      ready.set_value(std::move(bad));
      std::lock_guard<std::mutex> lock(mutex);
      pending.push_back(ready.get_future());
      break;
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      pending.push_back(service.submit(request));
    }
    cv.notify_all();
  }
  if (!stream_error.empty()) {
    // A lying length prefix (or EOF mid-frame) has no trustworthy resync
    // point; answer with an in-band error and drop the connection.
    std::fprintf(stderr, "mg_server: dropping connection: %s\n",
                 stream_error.c_str());
    serve::SolveResult bad;
    bad.status = serve::SolveStatus::kError;
    bad.error = stream_error;
    std::promise<serve::SolveResult> ready;
    ready.set_value(std::move(bad));
    std::lock_guard<std::mutex> lock(mutex);
    pending.push_back(ready.get_future());
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    reader_done = true;
  }
  cv.notify_all();
  writer.join();
  ::close(fd);
}

void print_summary(const serve::SolverService& service) {
  const serve::ServerSnapshot snap = service.snapshot();
  std::printf(
      "mg_server: uptime %.1fs  submitted %llu  ok %llu  wrong %llu  "
      "errors %llu  shed(deadline %llu, capacity %llu+%llu)  late %llu\n",
      snap.uptime_seconds,
      static_cast<unsigned long long>(snap.counters.submitted),
      static_cast<unsigned long long>(snap.counters.completed_ok),
      static_cast<unsigned long long>(snap.counters.wrong_answer),
      static_cast<unsigned long long>(snap.counters.errors),
      static_cast<unsigned long long>(snap.counters.queue.shed_deadline),
      static_cast<unsigned long long>(snap.counters.queue.rejected),
      static_cast<unsigned long long>(snap.counters.queue.evicted),
      static_cast<unsigned long long>(snap.counters.deadline_miss));
  if (snap.exec.count > 0) {
    std::printf(
        "mg_server: exec mean %.2fms p50 %.2fms p95 %.2fms p99 %.2fms "
        "(%llu solves)\n",
        snap.exec.mean_ms, snap.exec.p50_ms, snap.exec.p95_ms,
        snap.exec.p99_ms, static_cast<unsigned long long>(snap.exec.count));
  }
}

// Loopback round trip: spawn a client that sends three requests over TCP and
// checks the answers come back verified and in order.
int run_selftest(serve::SolverService& service, int listen_fd,
                 std::uint16_t port) {
  std::thread client([port] {
    const int fd = net::try_connect("127.0.0.1", port);
    if (fd < 0) {
      std::fprintf(stderr, "mg_server selftest: connect failed\n");
      std::exit(1);
    }
    constexpr int kRequests = 3;
    for (int i = 0; i < kRequests; ++i) {
      serve::SolveRequest req;
      req.id = static_cast<std::uint64_t>(100 + i);
      req.priority =
          i == 0 ? serve::Priority::kHigh : serve::Priority::kNormal;
      if (!net::write_all(fd, serve::encode_request(req))) std::exit(1);
    }
    net::FdFrameReader reader(fd, serve::kMaxFrameBytes);
    std::vector<std::uint8_t> frame;
    for (int i = 0; i < kRequests; ++i) {
      if (!reader.next(&frame)) {
        std::fprintf(stderr, "mg_server selftest: connection died\n");
        std::exit(1);
      }
      serve::SolveResult res;
      std::string error;
      if (!serve::decode_result(frame, &res, &error)) {
        std::fprintf(stderr, "mg_server selftest: %s\n", error.c_str());
        std::exit(1);
      }
      if (res.id != static_cast<std::uint64_t>(100 + i) || !res.verified) {
        std::fprintf(stderr,
                     "mg_server selftest: request %d came back id=%llu "
                     "status=%s verified=%d\n",
                     i, static_cast<unsigned long long>(res.id),
                     serve::solve_status_name(res.status), res.verified);
        std::exit(1);
      }
      std::printf("mg_server selftest: id %llu ok (norm %.15e, %.1fms)\n",
                  static_cast<unsigned long long>(res.id), res.final_norm,
                  static_cast<double>(res.e2e_ns) * 1e-6);
    }
    ::close(fd);
  });

  const int conn = ::accept(listen_fd, nullptr, nullptr);
  if (conn < 0) {
    std::fprintf(stderr, "mg_server selftest: accept failed\n");
    return 1;
  }
  serve_connection(conn, service);
  client.join();
  print_summary(service);
  std::printf("mg_server selftest: PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_option("port", "7733", "TCP port to listen on (0 = ephemeral)");
  cli.add_option("cores", "0", "core budget shared by jobs (0 = hardware)");
  cli.add_option("executors", "0", "executor threads (0 = cores)");
  cli.add_option("queue-cap", "64", "admission queue capacity");
  cli.add_option("max-gang", "0", "largest per-job gang (0 = cores)");
  cli.add_option("deadline-ms", "0",
                 "default deadline for requests without one (0 = none)");
  cli.add_option("max-conns", "0", "exit after N connections (0 = forever)");
  cli.add_option("backend", "",
                 "default row-primitive engine for requests that do not "
                 "pick one: " +
                     sac::backend_names() +
                     " (default: config / SACPP_BACKEND)");
  cli.add_option("trace-sample", "0",
                 "request-trace head-sampling rate 0..1 (>0 mints a trace "
                 "context per request and implies --obs)");
  cli.add_option("traces-out", "",
                 "write retained request traces as JSON at exit");
  cli.add_option("flight-out", "",
                 "flight-recorder dump path (configures crash/deadline/"
                 "drain-timeout black-box dumps)");
  cli.add_option("slo-ms", "0",
                 "p99 end-to-end budget per lane in ms for the SLO "
                 "watchdog (0 = no latency SLO)");
  cli.add_flag("obs", "enable telemetry; dump metrics at exit");
  cli.add_flag("selftest", "loopback round trip over TCP, then exit");
  cli.add_flag("check",
               "--check=<protocol|locks|schedule|all>: run the serve "
               "protocol/concurrency verifier before the selftest");
  cli.add_option("lock-graph-out", "",
                 "write the recorded lock graph as Graphviz "
                 "(--check=locks)");
  if (!cli.parse(argc, argv)) return 1;

  const double trace_sample = cli.get_double("trace-sample");
  // Tracing records spans; it needs the obs layer on.  sac::set_obs, not
  // obs::set_enabled: the first sac::config() access (inside ServeConfig's
  // constructor) applies the SACPP_OBS env default, which would silently
  // undo a bare obs::set_enabled done before it.
  if (cli.get_flag("obs") || trace_sample > 0.0) sac::set_obs(true);

  const std::string backend_arg = cli.get("backend");
  if (!backend_arg.empty() &&
      !sac::parse_backend(backend_arg.c_str(), &sac::config().backend)) {
    std::fprintf(stderr, "mg_server: unknown --backend '%s' (%s)\n",
                 backend_arg.c_str(), sac::backend_names().c_str());
    return 1;
  }

  // Verifier passes run stand-alone (docs/static_analysis.md): each is
  // independently CI-failable with exit status 2.
  const std::string check_arg = cli.get("check");
  if (!check_arg.empty() && check_arg != "0" && !cli.get_flag("check")) {
    serve::CheckPass pass;
    if (!serve::parse_check_pass(check_arg, &pass)) {
      std::fprintf(stderr,
                   "mg_server: unknown --check pass '%s' "
                   "(protocol | locks | schedule | all)\n",
                   check_arg.c_str());
      return 1;
    }
    serve::SelfCheckOptions sopts;
    sopts.lock_graph_path = cli.get("lock-graph-out");
    check::DiagnosticEngine engine;
    const bool ok = serve::run_self_checks(pass, sopts, &engine);
    std::printf("%s", engine.to_ascii(std::string("sacpp_check --check=") +
                                      serve::check_pass_name(pass))
                          .c_str());
    std::printf("mg_server: --check=%s %s\n", serve::check_pass_name(pass),
                ok ? "PASS" : "FAIL");
    if (!ok || !cli.get_flag("selftest")) return ok ? 0 : 2;
    // A clean verifier run with --selftest falls through to the loopback
    // round trip so CI can chain both in one invocation.
  }

  serve::ServeConfig cfg;
  cfg.total_cores = static_cast<unsigned>(cli.get_int("cores"));
  cfg.executors = static_cast<unsigned>(cli.get_int("executors"));
  cfg.queue_capacity = static_cast<std::size_t>(cli.get_int("queue-cap"));
  cfg.max_gang = static_cast<unsigned>(cli.get_int("max-gang"));
  cfg.default_deadline_ns = cli.get_int("deadline-ms") * 1'000'000;
  cfg.trace_sample = trace_sample;
  cfg.flight_path = cli.get("flight-out");
  const std::int64_t slo_ns = cli.get_int("slo-ms") * 1'000'000;
  if (slo_ns > 0) {
    for (auto& budget : cfg.slo.p99_budget_ns) budget = slo_ns;
  }
  serve::SolverService service(cfg);

  long long port = cli.get_int("port");
  if (cli.get_flag("selftest")) port = 0;  // never collide in CI
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "mg_server: --port %lld is not in [0, 65535]\n",
                 port);
    return 1;
  }
  std::uint16_t bound_port = 0;
  int listen_fd = -1;
  try {
    listen_fd = net::create_listener(static_cast<std::uint16_t>(port),
                                     &bound_port);
  } catch (const ContractError& e) {
    std::fprintf(stderr, "mg_server: %s\n", e.what());
    return 1;
  }
  g_listen_fd.store(listen_fd);
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  const auto write_traces = [&cli, &service] {
    const std::string path = cli.get("traces-out");
    if (path.empty()) return;
    if (obs::write_traces_file(path)) {
      std::printf("mg_server: %zu retained trace(s) written to %s "
                  "(slo overloaded=%d)\n",
                  obs::retained_trace_count(), path.c_str(),
                  service.watchdog().overloaded() ? 1 : 0);
    } else {
      std::fprintf(stderr, "mg_server: cannot write traces to %s\n",
                   path.c_str());
    }
  };

  if (cli.get_flag("selftest")) {
    const int rc = run_selftest(service, listen_fd, bound_port);
    write_traces();
    if (cli.get_flag("obs")) {
      obs::write_prometheus_file("mg_server_metrics.txt");
      std::printf("mg_server: metrics written to mg_server_metrics.txt\n");
    }
    const int fd = g_listen_fd.exchange(-1);
    if (fd >= 0) ::close(fd);
    return rc;
  }

  std::printf("mg_server: listening on 127.0.0.1:%d (cores %u, queue %zu)\n",
              bound_port, service.config().total_cores,
              service.config().queue_capacity);
  const long long max_conns = cli.get_int("max-conns");
  long long accepted = 0;
  std::vector<std::thread> connections;
  while (!g_stop.load()) {
    const int fd = g_listen_fd.load();
    if (fd < 0) break;
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) break;  // listener closed by signal
    connections.emplace_back(
        [conn, &service] { serve_connection(conn, service); });
    accepted += 1;
    if (max_conns > 0 && accepted >= max_conns) break;
  }
  for (auto& t : connections) t.join();
  service.drain();
  print_summary(service);
  write_traces();
  if (cli.get_flag("obs")) {
    obs::write_prometheus_file("mg_server_metrics.txt");
    std::printf("mg_server: metrics written to mg_server_metrics.txt\n");
  }
  const int fd = g_listen_fd.exchange(-1);
  if (fd >= 0) ::close(fd);
  return 0;
}
