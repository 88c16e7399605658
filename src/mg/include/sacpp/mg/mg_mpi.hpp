#pragma once
// Message-passing NAS MG — the paper's second future-work item (Sec. 7):
// "a direct comparison with the MPI-based parallel reference implementation
// of NAS-MG would be interesting."
//
// Structure follows the NPB 2.x MPI implementation, simplified to a 1-D
// slab decomposition (documented in DESIGN.md §4): each of P ranks owns a
// contiguous block of grid planes along the outermost axis, with one halo
// plane on each side exchanged after every kernel, cyclically (periodic
// boundaries).  Grid levels with at least one plane per rank run
// distributed; the coarse tail of the V-cycle is gathered to rank 0 and
// executed serially with the reference kernels (NPB instead idles
// processors — same communication pattern, simpler bookkeeping).
//
// The kernels are the reference kernels (same arithmetic, same order), so
// a distributed run reproduces the serial residual norms to roundoff; the
// tests assert ≤1e-12 relative agreement for 1, 2 and 4 ranks.
//
// Runs on the in-process message-passing world (src/msg) — ranks are
// threads with disjoint data communicating only through Comm — or, via
// run_rank, on any Comm a caller provides, including one rank of a
// socket-backed world (examples/mg_cluster.cpp, docs/net.md), where the
// same program spans OS processes.
//
// With `overlap_halo` (the default) the smoother and residual sweeps
// compute their boundary planes first, post the halo exchange, and overlap
// the interior planes with the in-flight communication.  Plane updates are
// independent, so the overlapped schedule is bitwise identical to the
// post-sweep exchange — only the timing changes.

#include <vector>

#include "sacpp/mg/spec.hpp"
#include "sacpp/msg/msg.hpp"

namespace sacpp::mg {

class MgMpi {
 public:
  struct Result {
    std::vector<double> norms;  // rnm2 after each iteration
    double final_norm = 0.0;
    double seconds = 0.0;       // timed section (iterations only)
    msg::WorldStats comm;       // point-to-point traffic of the timed part
  };

  // ranks must be a power of two with 2 * ranks <= nx.
  MgMpi(const MgSpec& spec, int ranks, bool overlap_halo = true);

  const MgSpec& spec() const { return spec_; }
  int ranks() const { return ranks_; }
  bool overlap_halo() const { return overlap_halo_; }

  // Execute the full benchmark SPMD on an in-process world: setup, optional
  // untimed warm-up iteration, `nit` timed iterations of (V-cycle +
  // residual), per-iteration norms via allreduce.
  Result run(int nit, bool warmup = true) const;

  // One rank's share of the same program on a caller-provided communicator
  // (a transport-bound world's single local rank, or one thread of an
  // in-process world).  comm.size() must equal ranks().  Every rank returns
  // the norms and timing (they are allreduced anyway); `comm` stats are the
  // caller's to collect from its world.
  Result run_rank(msg::Comm& comm, int nit, bool warmup = true) const;

  // Rank `rank`'s slab of the right-hand side as set-up builds it: its
  // nx / ranks owned planes plus one halo plane on each side, each plane
  // (nx+2)^2 values in the layout of fill_rhs.
  std::vector<double> rhs_slab(int rank) const;

 private:
  MgSpec spec_;
  int ranks_;
  bool overlap_halo_;
};

}  // namespace sacpp::mg
