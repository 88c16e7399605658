// mg_loadgen: open-loop load generator for the MG solver service.
//
//   $ mg_loadgen --requests 32 --rate 8 --arrival poisson
//   $ mg_loadgen --arrival burst --burst-size 8 --high-frac 0.25
//   $ mg_loadgen --connect 127.0.0.1:7733 --requests 64
//
// Open-loop means arrivals follow a precomputed schedule (Poisson, uniform,
// or bursts) regardless of completions — the generator keeps offering load
// when the server falls behind, which is exactly what exercises admission
// control, priority eviction, and deadline shedding.  By default it drives
// an in-process SolverService; --connect sends the same wire frames to a
// running mg_server instead.
//
// The exit summary reports offered vs. achieved throughput, per-status
// counts, and e2e latency percentiles split by priority lane.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "sacpp/common/cli.hpp"
#include "sacpp/common/error.hpp"
#include "sacpp/common/table.hpp"
#include "sacpp/mg/driver.hpp"
#include "sacpp/net/codec.hpp"
#include "sacpp/net/tcp_transport.hpp"
#include "sacpp/obs/obs.hpp"
#include "sacpp/obs/trace.hpp"
#include "sacpp/serve/server.hpp"
#include "sacpp/serve/wire.hpp"

using namespace sacpp;

namespace {

// Arrival offsets (ns from start) for `n` requests at `rate` req/s.
std::vector<std::int64_t> make_schedule(const std::string& arrival,
                                        std::size_t n, double rate,
                                        std::size_t burst_size,
                                        std::uint64_t seed) {
  std::vector<std::int64_t> at(n, 0);
  std::mt19937_64 rng(seed);
  if (arrival == "poisson") {
    std::exponential_distribution<double> gap(rate);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      at[i] = static_cast<std::int64_t>(t * 1e9);
      t += gap(rng);
    }
  } else if (arrival == "burst") {
    // Bursts of `burst_size` back-to-back requests; gaps keep the long-run
    // rate at `rate`.
    const double gap_s = static_cast<double>(burst_size) / rate;
    for (std::size_t i = 0; i < n; ++i) {
      at[i] = static_cast<std::int64_t>(
          static_cast<double>(i / burst_size) * gap_s * 1e9);
    }
  } else {  // uniform
    for (std::size_t i = 0; i < n; ++i) {
      at[i] = static_cast<std::int64_t>(static_cast<double>(i) / rate * 1e9);
    }
  }
  return at;
}

serve::Priority sample_priority(double high_frac, double low_frac,
                                std::mt19937_64& rng) {
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const double r = uni(rng);
  if (r < high_frac) return serve::Priority::kHigh;
  if (r < high_frac + low_frac) return serve::Priority::kLow;
  return serve::Priority::kNormal;
}

struct Tally {
  std::vector<serve::SolveResult> results;
  double wall_seconds = 0.0;
};

void print_tally(const Tally& tally, double offered_rate) {
  std::size_t per_status[6] = {};
  std::vector<double> e2e_ms[serve::kPriorityLanes];
  std::size_t completed = 0;
  for (const serve::SolveResult& r : tally.results) {
    per_status[static_cast<std::size_t>(r.status)] += 1;
    if (serve::solve_completed(r.status)) {
      completed += 1;
      e2e_ms[0].push_back(static_cast<double>(r.e2e_ns) * 1e-6);
    }
  }
  std::printf("mg_loadgen: offered %.2f req/s, achieved %.2f solves/s "
              "(%zu/%zu completed in %.2fs)\n",
              offered_rate,
              tally.wall_seconds > 0.0
                  ? static_cast<double>(completed) / tally.wall_seconds
                  : 0.0,
              completed, tally.results.size(), tally.wall_seconds);
  Table statuses({"status", "count"});
  for (std::size_t s = 0; s < 6; ++s) {
    if (per_status[s] == 0) continue;
    statuses.add_row(
        {serve::solve_status_name(static_cast<serve::SolveStatus>(s)),
         std::to_string(per_status[s])});
  }
  std::printf("%s", statuses.to_ascii("outcomes").c_str());
  std::vector<double>& lat = e2e_ms[0];
  if (!lat.empty()) {
    std::sort(lat.begin(), lat.end());
    const auto pick = [&](double q) {
      const std::size_t idx = std::min(
          lat.size() - 1,
          static_cast<std::size_t>(q * static_cast<double>(lat.size())));
      return lat[idx];
    };
    std::printf("mg_loadgen: e2e p50 %.2fms p95 %.2fms p99 %.2fms "
                "max %.2fms\n",
                pick(0.50), pick(0.95), pick(0.99), lat.back());
  }
}

// Connect-mode plumbing (writes and frame reassembly) comes from the shared
// codec in sacpp/net/codec.hpp — the same one mg_server and the socket
// transport use.

// Stitching report over the retained traces: how many validate into one
// well-formed tree, and how much of each completed request's e2e the
// queue + exec spans explain (the bench gate wants >= 95%).
void print_trace_summary() {
  const std::vector<obs::RetainedTrace> traces = obs::retained_traces();
  if (traces.empty()) return;
  std::size_t stitched = 0;
  std::size_t completed = 0;
  double coverage_sum = 0.0;
  std::string first_failure;
  for (const obs::RetainedTrace& t : traces) {
    // Sheds (queue or dispatch) never execute, so they legitimately have no
    // serve_job span; everything else must decompose.
    const bool done =
        t.meta.status != "shed-deadline" && t.meta.status != "shed-capacity";
    std::string why;
    if (obs::validate_trace(t, done, &why)) {
      stitched += 1;
    } else if (first_failure.empty()) {
      first_failure = why;
    }
    if (done && t.meta.e2e_ns > 0) {
      completed += 1;
      coverage_sum +=
          static_cast<double>(t.meta.queue_ns + t.meta.exec_ns) /
          static_cast<double>(t.meta.e2e_ns);
    }
  }
  std::printf("mg_loadgen: retained %zu trace(s), %zu stitched, "
              "mean queue+exec coverage %.1f%% over %zu completed\n",
              traces.size(), stitched,
              completed > 0 ? 100.0 * coverage_sum /
                                  static_cast<double>(completed)
                            : 0.0,
              completed);
  if (!first_failure.empty()) {
    std::printf("mg_loadgen: first stitch failure: %s\n",
                first_failure.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_option("requests", "16", "number of requests to offer");
  cli.add_option("rate", "8", "offered arrival rate, requests/second");
  cli.add_option("arrival", "poisson", "arrival process: poisson|uniform|burst");
  cli.add_option("burst-size", "8", "requests per burst (--arrival burst)");
  cli.add_option("class", "S", "benchmark class for every request");
  cli.add_option("variant", "direct", "solver variant (sac|f77|omp|direct)");
  cli.add_option("nit", "0", "iteration override (0 = class default)");
  cli.add_option("gang", "0", "worker threads per job (0 = server policy)");
  cli.add_option("deadline-ms", "0", "per-request deadline (0 = none)");
  cli.add_option("high-frac", "0.1", "fraction of requests at high priority");
  cli.add_option("low-frac", "0.2", "fraction of requests at low priority");
  cli.add_option("seed", "42", "RNG seed for arrivals and priorities");
  cli.add_option("connect", "",
                 "host:port of a running mg_server (default: in-process)");
  cli.add_option("cores", "0", "in-process core budget (0 = hardware)");
  cli.add_option("queue-cap", "64", "in-process admission queue capacity");
  cli.add_option("trace-sample", "0",
                 "fraction of requests minted with a client trace context "
                 "(kTraceForced, so each is retained server-side)");
  cli.add_option("traces-out", "",
                 "write retained traces as JSON at exit (in-process mode; "
                 "with --connect the server holds the trace store)");
  cli.add_option("slo-ms", "0",
                 "p99 budget per lane in ms for the in-process SLO watchdog");
  cli.add_option("flight-out", "",
                 "flight-recorder dump path for the in-process service");
  cli.add_flag("obs", "enable telemetry in the in-process service");
  if (!cli.parse(argc, argv)) return 1;

  const auto n = static_cast<std::size_t>(cli.get_int("requests"));
  const double rate = cli.get_double("rate");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double high_frac = cli.get_double("high-frac");
  const double low_frac = cli.get_double("low-frac");
  const double trace_sample = cli.get_double("trace-sample");
  // sac::set_obs, not obs::set_enabled: the first sac::config() access
  // (inside ServeConfig's constructor) applies the SACPP_OBS env default,
  // which would silently undo a bare obs::set_enabled done before it.
  if (cli.get_flag("obs") || trace_sample > 0.0) sac::set_obs(true);

  const std::vector<std::int64_t> schedule =
      make_schedule(cli.get("arrival"), n, rate,
                    static_cast<std::size_t>(cli.get_int("burst-size")),
                    seed);
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<serve::SolveRequest> requests(n);
  for (std::size_t i = 0; i < n; ++i) {
    serve::SolveRequest& req = requests[i];
    req.id = i + 1;
    req.cls = mg::parse_class(cli.get("class"));
    req.variant = mg::parse_variant(cli.get("variant"));
    req.nit = static_cast<std::uint32_t>(cli.get_int("nit"));
    req.gang = static_cast<std::uint32_t>(cli.get_int("gang"));
    req.deadline_ns = cli.get_int("deadline-ms") * 1'000'000;
    req.priority = sample_priority(high_frac, low_frac, rng);
    if (trace_sample > 0.0) {
      std::uniform_real_distribution<double> uni(0.0, 1.0);
      if (uni(rng) < trace_sample) {
        // Client-minted context, forced retention: these are the stitched
        // exemplars the exit decomposition summary and CI validate.
        req.trace_id = obs::mint_trace_id();
        req.trace_flags = obs::kTraceSampled | obs::kTraceForced;
      }
    }
  }

  Tally tally;
  tally.results.reserve(n);
  const auto start = std::chrono::steady_clock::now();
  const auto at = [&](std::size_t i) {
    return start + std::chrono::nanoseconds(schedule[i]);
  };

  const std::string endpoint = cli.get("connect");
  if (endpoint.empty()) {
    serve::ServeConfig cfg;
    cfg.total_cores = static_cast<unsigned>(cli.get_int("cores"));
    cfg.queue_capacity = static_cast<std::size_t>(cli.get_int("queue-cap"));
    // Contexts are minted client-side above (forced), so the service's own
    // head sampler stays off; budgets and the flight recorder pass through.
    const std::int64_t slo_ns = cli.get_int("slo-ms") * 1'000'000;
    if (slo_ns > 0) {
      for (auto& budget : cfg.slo.p99_budget_ns) budget = slo_ns;
    }
    cfg.flight_path = cli.get("flight-out");
    serve::SolverService service(cfg);
    std::vector<std::future<serve::SolveResult>> futures;
    std::vector<std::int64_t> sent_ns(n, 0);
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(at(i));  // open loop: never waits on results
      sent_ns[i] = obs::now_ns();
      futures.push_back(service.submit(requests[i]));
    }
    for (std::size_t i = 0; i < n; ++i) {
      serve::SolveResult res = futures[i].get();
      if (res.trace_id != 0) {
        // Attach the client-observed span to the trace the server retained
        // at job end.  Futures drain in submission order, so this measures
        // send -> drained-here (client-perceived latency in an open loop),
        // not the server's e2e.
        obs::SpanRecord span;
        span.start_ns = sent_ns[i];
        span.dur_ns = obs::now_ns() - sent_ns[i];
        span.arg = static_cast<std::int64_t>(res.id);
        span.trace = res.trace_id;
        span.name = obs::kSpanClient;
        span.kind = obs::SpanKind::kPhase;
        obs::add_trace_span(res.trace_id, span, "loadgen-client");
      }
      tally.results.push_back(std::move(res));
    }
    tally.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    print_tally(tally, rate);
    const serve::ServerSnapshot snap = service.snapshot();
    std::printf("mg_loadgen: service peak queue depth %zu, shed %llu, "
                "evicted %llu, rejected %llu, shed-overload %llu\n",
                snap.counters.queue.peak_depth,
                static_cast<unsigned long long>(
                    snap.counters.queue.shed_deadline),
                static_cast<unsigned long long>(snap.counters.queue.evicted),
                static_cast<unsigned long long>(
                    snap.counters.queue.rejected),
                static_cast<unsigned long long>(
                    snap.counters.queue.shed_overload));
    print_trace_summary();
    const std::string traces_out = cli.get("traces-out");
    if (!traces_out.empty()) {
      if (obs::write_traces_file(traces_out)) {
        std::printf("mg_loadgen: %zu retained trace(s) written to %s\n",
                    obs::retained_trace_count(), traces_out.c_str());
      } else {
        std::fprintf(stderr, "mg_loadgen: cannot write traces to %s\n",
                     traces_out.c_str());
      }
    }
  } else {
    std::string host;
    std::uint16_t port = 0;
    try {
      net::parse_endpoint(endpoint, &host, &port);
    } catch (const ContractError& e) {
      std::fprintf(stderr, "mg_loadgen: %s\n", e.what());
      return 1;
    }
    const int fd = net::try_connect(host, port);
    if (fd < 0) {
      std::fprintf(stderr, "mg_loadgen: cannot connect to %s\n",
                   endpoint.c_str());
      return 1;
    }
    std::vector<serve::SolveResult> results;
    results.reserve(n);
    std::thread reader([fd, n, &results] {
      net::FdFrameReader frames(fd, serve::kMaxFrameBytes);
      std::vector<std::uint8_t> frame;
      std::string stream_error;
      while (results.size() < n) {
        if (!frames.next(&frame, &stream_error)) {
          if (!stream_error.empty()) {
            std::fprintf(stderr, "mg_loadgen: %s\n", stream_error.c_str());
          }
          return;
        }
        serve::SolveResult res;
        std::string error;
        if (!serve::decode_result(frame, &res, &error)) {
          std::fprintf(stderr, "mg_loadgen: %s\n", error.c_str());
          return;
        }
        results.push_back(std::move(res));
      }
    });
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(at(i));
      if (!net::write_all(fd, serve::encode_request(requests[i]))) {
        std::fprintf(stderr, "mg_loadgen: server went away mid-send\n");
        break;
      }
    }
    reader.join();
    ::close(fd);
    tally.results = std::move(results);
    tally.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    print_tally(tally, rate);
    if (!cli.get("traces-out").empty()) {
      std::fprintf(stderr,
                   "mg_loadgen: --traces-out ignored with --connect; the "
                   "server's trace store has the spans (mg_server "
                   "--traces-out)\n");
    }
  }
  return 0;
}
