// mg_cluster: the NAS MG benchmark spread across OS processes over TCP.
//
//   $ mg_cluster --ranks 2 --class S --verify     # norms vs in-process run
//   $ mg_cluster --ranks 4 --class A --json out.json
//   $ mg_cluster --ranks 2 --class S --chaos-exit # one rank dies mid-solve
//
// The launcher binds one loopback listener per rank on port 0 (so the OS
// picks free ports and children cannot race each other for them), forks one
// worker per rank, and re-executes itself (/proc/self/exe) in worker mode
// with the inherited listener.  Each worker builds a net::TcpTransport over
// the host list, binds it to a msg::World, and runs its rank of the exact
// same MgMpi program the in-process tests run — the kernels, collectives,
// and halo schedule never see which transport is underneath (docs/net.md).
//
// --verify re-runs the solve in-process (threads) in the parent and demands
// the distributed per-iteration norms agree to 1e-12 relative.
//
// --chaos-exit makes the highest rank _exit(7) mid-solve with no farewell,
// exactly like a crashed node; the launcher then requires every survivor to
// exit 9 after surfacing the peer-death ContractError diagnostic — a hang
// is a launcher timeout and a test failure.

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sacpp/common/cli.hpp"
#include "sacpp/common/error.hpp"
#include "sacpp/mg/mg_mpi.hpp"
#include "sacpp/mg/spec.hpp"
#include "sacpp/msg/msg.hpp"
#include "sacpp/net/tcp_transport.hpp"

using namespace sacpp;

namespace {

constexpr int kSurvivorExit = 9;  // worker caught the peer-death diagnostic
constexpr int kChaosExit = 7;     // the deliberately crashed worker

std::vector<std::string> split_hosts(const std::string& csv) {
  std::vector<std::string> hosts;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) hosts.push_back(item);
  return hosts;
}

// ---------------------------------------------------------------------------
// Worker mode: one rank of the distributed solve.
// ---------------------------------------------------------------------------

int run_worker(const Cli& cli) {
  const int rank = static_cast<int>(cli.get_int("worker-rank"));
  net::TcpOptions opt;
  opt.rank = rank;
  opt.hosts = split_hosts(cli.get("hosts"));
  opt.listen_fd = static_cast<int>(cli.get_int("listen-fd"));

  const mg::MgSpec spec = mg::MgSpec::for_class(mg::parse_class(
      cli.get("class")));
  const int nit = cli.get_int("nit") > 0 ? static_cast<int>(cli.get_int("nit"))
                                         : spec.nit;
  const int ranks = static_cast<int>(opt.hosts.size());

  try {
    net::TcpTransport transport(opt);

    if (cli.get_flag("chaos") && rank == ranks - 1) {
      // Die the way a crashed node dies: after rendezvous, once the others
      // are inside the solve, vanish without a bye frame.  The kernel's
      // FIN/RST is all the survivors get.
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      std::_Exit(kChaosExit);
    }

    msg::World world(transport);
    mg::MgMpi solver(spec, ranks, !cli.get_flag("no-overlap"));
    mg::MgMpi::Result result;
    world.run([&](msg::Comm& comm) { result = solver.run_rank(comm, nit); });
    result.comm = world.stats();

    const std::string out = cli.get("result-out");
    if (rank == 0 && !out.empty()) {
      std::ofstream f(out, std::ios::trunc);
      f.precision(17);
      f << "final_norm " << result.final_norm << "\n";
      f << "seconds " << result.seconds << "\n";
      f << "norms";
      for (double n : result.norms) f << " " << n;
      f << "\n";
      f << "bytes_sent " << result.comm.bytes_sent << "\n";
      f << "bytes_received " << result.comm.bytes_received << "\n";
      f << "messages " << result.comm.messages << "\n";
      f << "reconnects " << result.comm.reconnects << "\n";
      if (!f.good()) {
        std::fprintf(stderr, "mg_cluster[%d]: cannot write %s\n", rank,
                     out.c_str());
        return 1;
      }
    }
    return 0;
  } catch (const ContractError& e) {
    // Peer death must surface as a diagnostic, never a hang; the launcher
    // checks for this exit code in --chaos-exit runs.
    std::fprintf(stderr, "mg_cluster[%d]: %s\n", rank, e.what());
    return kSurvivorExit;
  }
}

// ---------------------------------------------------------------------------
// Launcher mode.
// ---------------------------------------------------------------------------

struct Rank0Report {
  double final_norm = 0.0;
  double seconds = 0.0;
  std::vector<double> norms;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages = 0;
  std::uint64_t reconnects = 0;
};

bool read_report(const std::string& path, Rank0Report* rep) {
  std::ifstream f(path);
  if (!f) return false;
  std::string key;
  while (f >> key) {
    if (key == "final_norm") {
      f >> rep->final_norm;
    } else if (key == "seconds") {
      f >> rep->seconds;
    } else if (key == "norms") {
      std::string rest;
      std::getline(f, rest);
      std::stringstream ss(rest);
      double v;
      while (ss >> v) rep->norms.push_back(v);
    } else if (key == "bytes_sent") {
      f >> rep->bytes_sent;
    } else if (key == "bytes_received") {
      f >> rep->bytes_received;
    } else if (key == "messages") {
      f >> rep->messages;
    } else if (key == "reconnects") {
      f >> rep->reconnects;
    } else {
      return false;
    }
  }
  return !rep->norms.empty();
}

int run_launcher(const Cli& cli, const char* self) {
  const int ranks = static_cast<int>(cli.get_int("ranks"));
  if (ranks < 1 || ranks > 64) {
    std::fprintf(stderr, "mg_cluster: --ranks must be in [1, 64]\n");
    return 1;
  }
  const std::string cls = cli.get("class");
  const mg::MgSpec spec = mg::MgSpec::for_class(mg::parse_class(cls));
  const int nit = cli.get_int("nit") > 0 ? static_cast<int>(cli.get_int("nit"))
                                         : spec.nit;
  const bool chaos = cli.get_flag("chaos-exit");
  const bool overlap = !cli.get_flag("no-overlap");

  std::vector<int> fds(static_cast<std::size_t>(ranks));
  std::string hosts;
  for (int r = 0; r < ranks; ++r) {
    std::uint16_t port = 0;
    try {
      fds[static_cast<std::size_t>(r)] = net::create_listener(0, &port);
    } catch (const ContractError& e) {
      std::fprintf(stderr, "mg_cluster: rank %d: %s\n", r, e.what());
      return 1;
    }
    if (r > 0) hosts += ',';
    hosts += "127.0.0.1:" + std::to_string(port);
  }

  const std::string result_path =
      "/tmp/mg_cluster_result_" + std::to_string(::getpid()) + ".txt";

  std::vector<pid_t> pids;
  for (int r = 0; r < ranks; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "mg_cluster: fork failed: %s\n",
                   std::strerror(errno));
      return 1;
    }
    if (pid == 0) {
      // Child: keep only this rank's listener, open across the exec, then
      // become a worker.
      for (int j = 0; j < ranks; ++j) {
        if (j != r) ::close(fds[static_cast<std::size_t>(j)]);
      }
      ::fcntl(fds[static_cast<std::size_t>(r)], F_SETFD, 0);
      std::vector<std::string> args = {
          self,
          "--worker-rank=" + std::to_string(r),
          "--hosts=" + hosts,
          "--listen-fd=" + std::to_string(fds[static_cast<std::size_t>(r)]),
          "--class=" + cls,
          "--nit=" + std::to_string(nit),
          "--result-out=" + (r == 0 ? result_path : std::string()),
      };
      if (chaos) args.push_back("--chaos");
      if (!overlap) args.push_back("--no-overlap");
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv("/proc/self/exe", argv.data());
      std::fprintf(stderr, "mg_cluster: execv failed: %s\n",
                   std::strerror(errno));
      std::_Exit(127);
    }
    pids.push_back(pid);
  }
  for (int fd : fds) ::close(fd);

  bool ok = true;
  for (int r = 0; r < ranks; ++r) {
    int status = 0;
    if (::waitpid(pids[static_cast<std::size_t>(r)], &status, 0) < 0) {
      std::fprintf(stderr, "mg_cluster: waitpid rank %d failed\n", r);
      ok = false;
      continue;
    }
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    const int want = !chaos          ? 0
                     : r == ranks - 1 ? kChaosExit
                                      : kSurvivorExit;
    if (code != want) {
      std::fprintf(stderr,
                   "mg_cluster: rank %d exited %d (expected %d)%s\n", r, code,
                   want, WIFSIGNALED(status) ? " [signalled]" : "");
      ok = false;
    }
  }
  if (chaos) {
    std::remove(result_path.c_str());
    if (ok) {
      std::printf(
          "mg_cluster: chaos run ok — crashed rank exited %d, every "
          "survivor surfaced the peer-death diagnostic (exit %d)\n",
          kChaosExit, kSurvivorExit);
    }
    return ok ? 0 : 1;
  }
  if (!ok) return 1;

  Rank0Report rep;
  if (!read_report(result_path, &rep)) {
    std::fprintf(stderr, "mg_cluster: rank 0 left no result at %s\n",
                 result_path.c_str());
    return 1;
  }
  std::remove(result_path.c_str());

  std::printf(
      "mg_cluster: class %s ranks %d overlap %s  %.3fs  final norm %.15e\n",
      cls.c_str(), ranks, overlap ? "on" : "off", rep.seconds,
      rep.final_norm);
  std::printf(
      "mg_cluster: rank 0 wire traffic: %llu msgs, %llu B out, %llu B in, "
      "%llu reconnect(s)\n",
      static_cast<unsigned long long>(rep.messages),
      static_cast<unsigned long long>(rep.bytes_sent),
      static_cast<unsigned long long>(rep.bytes_received),
      static_cast<unsigned long long>(rep.reconnects));

  if (cli.get_flag("verify")) {
    // The distributed run must reproduce the in-process (thread) world's
    // norms: same kernels, same rank-ordered reductions, different bytes on
    // the wire.  1e-12 relative is the repo-wide cross-world tolerance.
    const mg::MgMpi reference(spec, ranks, overlap);
    const mg::MgMpi::Result local = reference.run(nit);
    if (local.norms.size() != rep.norms.size()) {
      std::fprintf(stderr,
                   "mg_cluster: verify FAILED — %zu iterations in-process "
                   "vs %zu distributed\n",
                   local.norms.size(), rep.norms.size());
      return 1;
    }
    for (std::size_t i = 0; i < local.norms.size(); ++i) {
      const double a = local.norms[i], b = rep.norms[i];
      const double rel = std::abs(a - b) / std::max(std::abs(a), 1e-300);
      if (!(rel <= 1e-12)) {
        std::fprintf(stderr,
                     "mg_cluster: verify FAILED at iteration %zu: "
                     "in-process %.17e vs sockets %.17e (rel %.3e)\n",
                     i, a, b, rel);
        return 1;
      }
    }
    std::printf(
        "mg_cluster: verify ok — %zu iteration norms match the in-process "
        "world to 1e-12\n",
        rep.norms.size());
  }

  const std::string json = cli.get("json");
  if (!json.empty()) {
    std::ofstream f(json, std::ios::trunc);
    f.precision(17);
    f << "{\n"
      << "  \"class\": \"" << cls << "\",\n"
      << "  \"ranks\": " << ranks << ",\n"
      << "  \"nit\": " << nit << ",\n"
      << "  \"overlap\": " << (overlap ? "true" : "false") << ",\n"
      << "  \"seconds\": " << rep.seconds << ",\n"
      << "  \"final_norm\": " << rep.final_norm << ",\n"
      << "  \"bytes_sent\": " << rep.bytes_sent << ",\n"
      << "  \"bytes_received\": " << rep.bytes_received << ",\n"
      << "  \"messages\": " << rep.messages << "\n"
      << "}\n";
    if (!f.good()) {
      std::fprintf(stderr, "mg_cluster: cannot write %s\n", json.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_option("ranks", "2", "number of OS processes (power of two)");
  cli.add_option("class", "S", "NAS problem class (S, W, A, B, C)");
  cli.add_option("nit", "0", "iteration override (0 = class default)");
  cli.add_flag("no-overlap", "post halos after each sweep instead of "
                             "overlapping them with interior compute");
  cli.add_flag("verify", "compare norms against an in-process run (1e-12)");
  cli.add_flag("chaos-exit", "crash the highest rank mid-solve and require "
                             "survivors to surface the diagnostic");
  cli.add_option("json", "", "write a result summary JSON to this path");
  // Worker-mode internals (set by the launcher, not by hand).
  cli.add_option("worker-rank", "-1", "internal: run as this rank");
  cli.add_option("hosts", "", "internal: comma-separated host:port per rank");
  cli.add_option("listen-fd", "-1", "internal: inherited listener fd");
  cli.add_option("result-out", "", "internal: rank 0 result file");
  cli.add_flag("chaos", "internal: this process is the crash rank");
  if (!cli.parse(argc, argv)) return 2;

  if (cli.get_int("worker-rank") >= 0) return run_worker(cli);
  return run_launcher(cli, argv[0]);
}
