#pragma once
// Shared state of one mgbench run and the entry points of its workloads and
// layer probes.  Everything here calls only the public sacpp headers.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "report.hpp"
#include "spans.hpp"
#include "sacpp/mg/spec.hpp"

namespace mgbench {

struct Run {
  Run(bool traced, std::uint64_t seed) : spans(traced), rng(seed) {}

  std::string workload;
  double seconds = 10.0;     // measuring budget of the run
  int reps = 0;              // fixed repetitions (0 = fill the budget)
  double ref_scale = 1.0;    // multiplies reference norms (negative check)
  unsigned threads = 1;      // min(4, nproc): the multithreaded setting
  std::string server_bin;    // mg_server executable
  std::string out_dir;       // trace.json / layers.json (traced runs)
  Report report;
  Spans spans;               // enabled only in the traced run
  std::mt19937_64 rng;       // seeded from --seed: drives generated inputs
};

// Correctness rule of every solve: the final residual norm against the
// recorded class norm (mg::reference_norm, scaled by Run::ref_scale), 1e-8
// relative.  Class W converges to the rounding floor (~1e-18), where the
// library's own verification accepts any norm within a factor of 5; the
// same rule applies here.
bool norm_ok(const Run& run, const sacpp::mg::MgSpec& spec, double norm,
             std::string* detail);

// Set the sac runtime to 1 thread (threads == 1) or to a pool of `threads`.
void set_threads(unsigned threads);

// -- workloads (workloads.cpp) -----------------------------------------------

void npb_workload(Run& run, const sacpp::mg::MgSpec& spec);
void serve_workload(Run& run);
void cluster_workload(Run& run, const sacpp::mg::MgSpec& spec);

// The serving ladder: spawns mg_server, offers Poisson load in rungs of
// `rung_s` at 200, 400, 800 and 1600 req/s, and reports the serve.*
// per-layer metrics; `traced` records a span tree per request.
void serve_ladder(Run& run, double rung_s, bool traced);

// One launch of `ranks` worker processes over loopback TCP, solving
// repeatedly until `budget_s` is spent (at least once).  With a trace id
// (non-zero) its spans are recorded from the timestamps rank 0 reports.
struct ClusterResult {
  bool ok = false;
  double wall_s = 0.0;          // spawn to the last worker reaped
  double solving_s = 0.0;       // rank 0 inside its solves
  std::vector<double> seconds;  // rank-0 timed section of each solve
  double messages = 0.0;        // rank-0 sends in the last timed section
  double bytes = 0.0;           // their payload bytes
};
ClusterResult launch_cluster(Run& run, const sacpp::mg::MgSpec& spec,
                             int ranks, double budget_s, std::uint64_t trace);

// Worker modes: mgbench re-executes itself as one rank of a cluster launch
// or as the peer of the net probe.  Both print their results on stdout.
int cluster_worker(int rank, const std::string& hosts, int listen_fd,
                   const std::string& cls, double budget_s);
int net_worker(int rank, const std::string& hosts, int listen_fd);

// -- layer probes (probes.cpp), traced run only ------------------------------

// The replica of mg::run_benchmark's mg_sac step loop (driver.cpp), with a span around each
// public MgSac call (recorded when `traced`).  Returns the timed section in
// seconds; `record` reports the mg replica, nasrand and sac count metrics.
double mg_replica(Run& run, const sacpp::mg::MgSpec& spec, bool traced,
                  bool record);
// Every other per-layer probe; `with_serve` adds a short serving ladder for
// the workloads that do not run one themselves.
void layer_probes(Run& run, const sacpp::mg::MgSpec& spec, bool with_serve);

}  // namespace mgbench
