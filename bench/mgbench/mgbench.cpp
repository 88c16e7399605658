// mgbench: the benchmark program behind bench/mgbench/run.py.
//
//   mgbench --workload npb-A --seed 1 --seconds 20 --trace 0
//           --server build/mgbench/sacpp/examples/mg_server --out DIR
//
// Runs one workload and prints one JSON object (metrics with every sample,
// the correctness tally, run facts) as the last line of stdout.  With
// --trace 1 it runs the workload untraced on half the budget, then with
// spans around each call into a layer, runs the layer probes, and writes
// DIR/trace.json and DIR/layers.json.
// Every workload runs the configuration the ROADMAP's "within 1.3x of F77"
// target names: planes stencils on the simd backend, library defaults
// otherwise (pool on, folding on).

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "mgbench.hpp"
#include "sacpp/common/cli.hpp"
#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/config.hpp"

using namespace sacpp;
using namespace mgbench;

namespace {

void run_timed(Run& run, const mg::MgSpec& spec) {
  if (run.workload == "serve-S") {
    serve_workload(run);
  } else if (run.workload == "cluster-W") {
    cluster_workload(run, spec);
  } else {
    npb_workload(run, spec);
  }
}

void run_traced(Run& run, const mg::MgSpec& spec) {
  // The per-layer set holds the timings demoted from the end-to-end set for
  // their run-to-run spread; they come from the untraced workload, run on
  // half the budget before anything is traced.
  run.seconds /= 2;
  run_timed(run, spec);
  Report& rep = run.report;
  if (run.workload == "serve-S") {
    serve_ladder(run, std::max(1.0, run.seconds * 0.2), true);
    mg_replica(run, spec, true, true);
    layer_probes(run, spec, false);
  } else if (run.workload == "cluster-W") {
    const double budget = run.seconds * 0.2;
    const ClusterResult plain = launch_cluster(run, spec, 2, budget, 0);
    const ClusterResult traced =
        launch_cluster(run, spec, 2, budget, run.spans.new_trace());
    rep.set_value("bench.trace_overhead_frac", "ratio",
                  median(traced.seconds) / median(plain.seconds) - 1.0);
    mg_replica(run, spec, true, true);
    layer_probes(run, spec, true);
  } else {
    mg_replica(run, spec, false, false);  // fills the pools: not compared
    const double plain = mg_replica(run, spec, false, false);
    const double traced = mg_replica(run, spec, true, true);
    rep.set_value("bench.trace_overhead_frac", "ratio", traced / plain - 1.0);
    layer_probes(run, spec, true);
  }
  if (!run.spans.write_chrome(run.out_dir + "/trace.json") ||
      !run.spans.write_layers(run.out_dir + "/layers.json")) {
    rep.attempt(false, "cannot write the trace to " + run.out_dir);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_option("workload", "npb-W", "npb-A | npb-W | serve-S | cluster-W");
  cli.add_option("seed", "1", "seed of the generated inputs");
  cli.add_option("seconds", "20", "measuring budget of the run");
  cli.add_option("trace", "0", "1: traced run with the per-layer probes");
  cli.add_option("out", ".", "directory for trace.json and layers.json");
  cli.add_option("server", "", "path of the mg_server executable");
  cli.add_option("class", "", "override the workload's NPB class");
  cli.add_option("reps", "0", "fixed repetitions (0 = fill --seconds)");
  cli.add_option("ref-scale", "1",
                 "multiply every reference norm (negative check)");
  // Worker modes, started by mgbench itself.
  cli.add_option("worker", "", "internal: cluster | net");
  cli.add_option("rank", "0", "internal: worker rank");
  cli.add_option("hosts", "", "internal: host:port per rank");
  cli.add_option("listen-fd", "-1", "internal: inherited listener");
  if (!cli.parse(argc, argv)) return 2;

  const std::string worker = cli.get("worker");
  const int rank = static_cast<int>(cli.get_int("rank"));
  const int listen_fd = static_cast<int>(cli.get_int("listen-fd"));
  if (worker == "cluster") {
    return cluster_worker(rank, cli.get("hosts"), listen_fd, cli.get("class"),
                          cli.get_double("seconds"));
  }
  if (worker == "net") return net_worker(rank, cli.get("hosts"), listen_fd);

  Run run(cli.get_int("trace") != 0,
          static_cast<std::uint64_t>(cli.get_int("seed")));
  run.workload = cli.get("workload");
  run.seconds = cli.get_double("seconds");
  run.reps = static_cast<int>(cli.get_int("reps"));
  run.ref_scale = cli.get_double("ref-scale");
  run.server_bin = cli.get("server");
  run.out_dir = cli.get("out");
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  run.threads = std::min(4u, nproc);

  const char* default_class = run.workload == "npb-A"       ? "A"
                              : run.workload == "npb-W"     ? "W"
                              : run.workload == "serve-S"   ? "S"
                              : run.workload == "cluster-W" ? "W"
                                                            : nullptr;
  if (default_class == nullptr) {
    std::fprintf(stderr, "mgbench: unknown workload '%s'\n",
                 run.workload.c_str());
    return 2;
  }
  const std::string cls =
      cli.get("class").empty() ? default_class : cli.get("class");

  sac::SacConfig& cfg = sac::config();
  cfg.stencil_mode = sac::StencilMode::kPlanes;
  cfg.backend = sac::BackendKind::kSimd;
  run.report.info("workload", run.workload);
  run.report.info("class", cls);
  run.report.info("threads", std::to_string(run.threads));
  run.report.info("nproc", std::to_string(nproc));
  run.report.info("simd_engine", sac::backend_for(sac::BackendKind::kSimd).name());

  int rc = 0;
  try {
    const mg::MgSpec spec = mg::MgSpec::for_class(mg::parse_class(cls));
    if (run.spans.enabled()) {
      run_traced(run, spec);
    } else {
      run_timed(run, spec);
    }
  } catch (const std::exception& e) {
    run.report.attempt(false, std::string("aborted: ") + e.what());
    rc = 1;
  }
  run.report.set_value("success_frac", "ratio", run.report.success_frac());
  if (!run.report.correct()) rc = 1;
  std::printf("%s\n", run.report.to_json().c_str());
  return rc;
}
