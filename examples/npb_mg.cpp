// npb_mg: a drop-in style NAS-MG benchmark executable.
//
//   $ npb_mg --class S --impl sac
//   $ npb_mg --class A --impl f77 --no-warmup
//   $ npb_mg --class S --impl sac --check
//   $ npb_mg --class W --impl sac --pool off
//   $ npb_mg --class W --impl sac --obs --trace-out=t.json --metrics-out=m.txt
//
// Runs one implementation on one benchmark class following the official
// measurement protocol and prints the NPB result block, including the
// verification verdict against the regenerated reference norms (classes
// S/A/B equal the official NPB 2.3 constants).
//
// With --check (or SACPP_CHECK=1 in the environment) the run executes in
// checked mode: the array runtime records aliasing and parallel-region
// events and the sacpp_check analyses report on them after the run
// (docs/static_analysis.md).  Diagnostics set exit status 2.
//
// --check=<protocol|locks|schedule|all> instead runs the protocol &
// concurrency verifier over the serving stack — session-typed wire
// conformance, lock-order cycle analysis, and the schedule-exploring
// checker — without the benchmark run; each pass is independently
// CI-failable (exit status 2 on findings).

#include <sys/resource.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "sacpp/check/check.hpp"
#include "sacpp/common/cli.hpp"
#include "sacpp/common/table.hpp"
#include "sacpp/mg/driver.hpp"
#include "sacpp/mg/mg_omp.hpp"
#include "sacpp/obs/export.hpp"
#include "sacpp/obs/flight.hpp"
#include "sacpp/obs/obs.hpp"
#include "sacpp/obs/trace.hpp"
#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/sac/stats.hpp"
#include "sacpp/serve/selfcheck.hpp"

using namespace sacpp;
using namespace sacpp::mg;

namespace {

// One-screen end-of-run telemetry: where the time went (top spans) and how
// it distributes across V-cycle levels — the paper's Sec. 5 view of the run.
void print_obs_summary() {
  const auto spans = obs::top_spans(5);
  if (!spans.empty()) {
    Table top({"span", "kind", "count", "total_ms", "mean_us"});
    for (const obs::SpanTotal& s : spans) {
      const double total_ms = static_cast<double>(s.total_ns) * 1e-6;
      const double mean_us =
          s.count > 0 ? static_cast<double>(s.total_ns) * 1e-3 /
                            static_cast<double>(s.count)
                      : 0.0;
      top.add_row({s.name, obs::span_kind_name(s.kind),
                   std::to_string(s.count), Table::fmt(total_ms),
                   Table::fmt(mean_us)});
    }
    std::printf("\n%s", top.to_ascii("telemetry: top spans by total time").c_str());
  }

  const auto levels = obs::level_metrics();
  double total = 0.0;
  for (const obs::LevelMetrics& m : levels) total += m.seconds;
  if (total > 0.0) {
    Table tbl({"level", "share_%", "seconds", "busy_s", "idle_s", "imbalance",
               "fork_us"});
    for (const obs::LevelMetrics& m : levels) {
      if (m.level < 0) continue;
      tbl.add_row({std::to_string(m.level),
                   Table::fmt(100.0 * m.seconds / total, 1),
                   Table::fmt(m.seconds, 4), Table::fmt(m.busy_seconds, 4),
                   Table::fmt(m.idle_seconds, 4), Table::fmt(m.imbalance, 2),
                   Table::fmt(m.fork_latency_seconds * 1e6, 1)});
    }
    std::printf("\n%s", tbl.to_ascii("telemetry: per-level share").c_str());
  }
  const std::uint64_t dropped = obs::total_dropped_spans();
  if (dropped > 0) {
    std::printf(" (%llu spans dropped; raise SACPP_OBS_RING)\n",
                static_cast<unsigned long long>(dropped));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_option("class", "S", "benchmark class (S, W, A, B, C)");
  cli.add_option("impl", "sac",
                 "implementation: sac | f77 | omp | direct");
  cli.add_flag("no-warmup", "skip the untimed warm-up iteration");
  cli.add_flag("norms", "print the residual norm after every iteration");
  cli.add_flag("check",
               "run under the sacpp_check runtime analyses; "
               "--check=<protocol|locks|schedule|all> runs the serve "
               "protocol/concurrency verifier instead");
  cli.add_option("schedules", "1000",
                 "interleavings explored by --check=schedule");
  cli.add_option("schedule-seed", "0",
                 "replay exactly this schedule seed (--check=schedule)");
  cli.add_option("lock-graph-out", "",
                 "write the recorded lock graph as Graphviz "
                 "(--check=locks)");
  cli.add_option("pool", "",
                 "buffer pool: on | off (default: config / SACPP_POOL)");
  cli.add_option("stencil-mode", "",
                 "stencil evaluation: grouped | naive | planes "
                 "(default: config / SACPP_STENCIL_MODE)");
  cli.add_option("backend", "",
                 "row-primitive engine: " + sac::backend_names() +
                     " (default: config / SACPP_BACKEND)");
  cli.add_flag("obs", "record telemetry and print the end-of-run summary");
  cli.add_option("threads", "",
                 "run multithreaded with N workers (0 = hardware); "
                 "also the OpenMP team of --impl omp (default 1)");
  cli.add_option("trace-out", "",
                 "write a Chrome trace-event JSON (Perfetto-loadable)");
  cli.add_option("metrics-out", "",
                 "write a Prometheus-style text metrics dump");
  cli.add_option("trace-sample", "0",
                 "> 0 traces the benchmark run as one request "
                 "(stamps every span; retains the trace at exit)");
  cli.add_option("flight-out", "",
                 "flight-recorder dump path; installs crash handlers");
  if (!cli.parse(argc, argv)) return 1;

  // --check with a pass selector short-circuits into the serve verifier;
  // the bare flag (or any truthy spelling) keeps its historical meaning of
  // a checked benchmark run.
  const std::string check_arg = cli.get("check");
  if (!check_arg.empty() && check_arg != "0" && !cli.get_flag("check")) {
    serve::CheckPass pass;
    if (!serve::parse_check_pass(check_arg, &pass)) {
      std::fprintf(stderr,
                   "npb_mg: unknown --check pass '%s' "
                   "(protocol | locks | schedule | all)\n",
                   check_arg.c_str());
      return 1;
    }
    serve::SelfCheckOptions sopts;
    sopts.schedules = static_cast<std::uint64_t>(cli.get_int("schedules"));
    sopts.schedule_seed =
        static_cast<std::uint64_t>(cli.get_int("schedule-seed"));
    sopts.lock_graph_path = cli.get("lock-graph-out");
    check::DiagnosticEngine engine;
    const bool ok = serve::run_self_checks(pass, sopts, &engine);
    std::printf("%s", engine.to_ascii(std::string("sacpp_check --check=") +
                                      serve::check_pass_name(pass))
                          .c_str());
    std::printf("npb_mg: --check=%s %s\n", serve::check_pass_name(pass),
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 2;
  }

  const MgSpec spec = MgSpec::for_class(parse_class(cli.get("class")));
  const Variant variant = parse_variant(cli.get("impl"));
  const bool checked = cli.get_flag("check") || sac::config().check;
  const std::string pool_arg = cli.get("pool");
  if (!pool_arg.empty()) {
    sac::config().pool = pool_arg == "on" || pool_arg == "1";
  }
  const std::string stencil_arg = cli.get("stencil-mode");
  if (!stencil_arg.empty() &&
      !sac::parse_stencil_mode(stencil_arg.c_str(),
                               &sac::config().stencil_mode)) {
    std::fprintf(stderr,
                 "npb_mg: unknown --stencil-mode '%s' "
                 "(grouped | naive | planes)\n",
                 stencil_arg.c_str());
    return 1;
  }
  const std::string backend_arg = cli.get("backend");
  if (!backend_arg.empty() &&
      !sac::parse_backend(backend_arg.c_str(), &sac::config().backend)) {
    std::fprintf(stderr, "npb_mg: unknown --backend '%s' (%s)\n",
                 backend_arg.c_str(), sac::backend_names().c_str());
    return 1;
  }
  const std::string threads_arg = cli.get("threads");
  const int threads = threads_arg.empty() ? 1 : std::stoi(threads_arg);
  if (!threads_arg.empty()) {
    sac::config().mt_enabled = true;
    sac::config().mt_threads = threads;
  }
  // The OpenMP variant's team follows --threads too, and is one thread
  // without it, like every other variant.
  MgOmp::omp_threads(threads);
  const std::string trace_out = cli.get("trace-out");
  const std::string metrics_out = cli.get("metrics-out");
  const bool obs_summary = cli.get_flag("obs");
  const bool run_traced = cli.get_double("trace-sample") > 0.0;
  // Any telemetry consumer turns recording on; SACPP_OBS=1 also works.
  if (obs_summary || run_traced || !trace_out.empty() ||
      !metrics_out.empty()) {
    sac::set_obs(true);
  }
  obs::set_thread_name("main");
  const std::string flight_out = cli.get("flight-out");
  if (!flight_out.empty()) {
    obs::flight_configure(flight_out);
    obs::flight_install_signal_handlers();
  }

  std::printf(" NAS Parallel Benchmarks (sacpp reproduction) - MG Benchmark\n");
  std::printf(" Size: %lld x %lld x %lld  Iterations: %d\n\n",
              static_cast<long long>(spec.nx),
              static_cast<long long>(spec.nx),
              static_cast<long long>(spec.nx), spec.nit);

  RunOptions opts;
  opts.warmup = !cli.get_flag("no-warmup");
  opts.record_norms = cli.get_flag("norms");

  // The Session must outlive the run but finish() only after the benchmark's
  // arrays are released, which run_benchmark guarantees (MgResult holds no
  // arrays).
  std::unique_ptr<check::Session> session;
  if (checked) session = std::make_unique<check::Session>();

  // --trace-sample: the whole benchmark is one traced "request" — every
  // span it records (with-loops, levels, kernels, worker chunks) carries
  // the minted id, and the stitched trace is retained at exit.
  std::uint64_t run_trace_id = 0;
  std::int64_t run_trace_start = 0;
  std::optional<obs::TraceBinding> run_trace_binding;
  if (run_traced) {
    run_trace_id = obs::mint_trace_id();
    run_trace_start = obs::now_ns();
    run_trace_binding.emplace(
        obs::TraceContext{run_trace_id, 0, obs::kTraceForced});
  }

  const MgResult result = run_benchmark(variant, spec, opts);

  if (run_trace_id != 0) {
    run_trace_binding.reset();
    obs::TraceMeta meta;
    meta.trace_id = run_trace_id;
    meta.reason = obs::RetainReason::kFlagged;
    meta.status = "benchmark";
    meta.e2e_ns = obs::now_ns() - run_trace_start;
    meta.submit_ns = run_trace_start;
    obs::retain_trace(meta);
    std::printf(" Trace               = %llu (%zu retained)\n",
                static_cast<unsigned long long>(run_trace_id),
                obs::retained_trace_count());
  }

  if (opts.record_norms) {
    for (std::size_t it = 0; it < result.norms.size(); ++it) {
      std::printf("  iter %2zu  L2 norm = %.13e\n", it + 1, result.norms[it]);
    }
    std::printf("\n");
  }

  std::printf("%s", npb_report(result, spec).c_str());
  if (sac::config().pool) {
    const auto& st = sac::stats();
    std::printf(" Buffer pool         = on (%llu hits, %llu misses)\n",
                static_cast<unsigned long long>(st.pool_hits),
                static_cast<unsigned long long>(st.pool_misses));
  }
  // The process's resident high-water mark so far (ru_maxrss, in KiB on
  // Linux); pages still on the kernel's zero page do not count.
  struct rusage ru {};
  if (::getrusage(RUSAGE_SELF, &ru) == 0) {
    std::printf(" Peak memory         = %.1f MB\n",
                static_cast<double>(ru.ru_maxrss) / 1024.0);
  }
  if (variant == Variant::kOpenMp) {
    std::printf(" OpenMP threads      = %d\n", MgOmp::omp_team_size());
  }
  if (variant == Variant::kSac || variant == Variant::kSacDirect) {
    std::printf(" Stencil mode        = %s\n",
                sac::stencil_mode_name(sac::config().stencil_mode));
    std::printf(" Backend             = %s [%s]\n",
                sac::backend_name(sac::config().backend),
                sac::backend_for(sac::config().backend).name());
    if (sac::config().stencil_mode == sac::StencilMode::kPlanes) {
      std::printf(" Rows reused         = %llu\n",
                  static_cast<unsigned long long>(
                      sac::stats().stencil_rows_reused));
    }
  }

  if (obs_summary) print_obs_summary();
  if (!obs::write_chrome_trace_file(trace_out)) {
    std::fprintf(stderr, "npb_mg: cannot write trace to %s\n",
                 trace_out.c_str());
    return 1;
  }
  if (!obs::write_prometheus_file(metrics_out)) {
    std::fprintf(stderr, "npb_mg: cannot write metrics to %s\n",
                 metrics_out.c_str());
    return 1;
  }

  bool check_failed = false;
  if (session != nullptr) {
    check::DiagnosticEngine& engine = session->finish();
    std::printf("\n%s", engine.to_ascii("sacpp_check").c_str());
    check_failed = !engine.empty();
  }

  bool known = false;
  const bool ok = verify(result, spec, &known);
  if (check_failed) return 2;
  return known && !ok ? 1 : 0;
}
