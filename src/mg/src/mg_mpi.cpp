#include "sacpp/mg/mg_mpi.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>

#include "sacpp/common/error.hpp"
#include "sacpp/common/timer.hpp"
#include "sacpp/obs/obs.hpp"
#include "sacpp/mg/mg_ref.hpp"
#include "sacpp/mg/problem.hpp"

namespace sacpp::mg {

namespace {

bool is_power_of_two(int v) { return v > 0 && (v & (v - 1)) == 0; }

int ceil_log2(int v) {
  int k = 0;
  while ((1 << k) < v) ++k;
  return k;
}

// One rank's slab of one grid level: `m` owned interior planes plus one
// halo plane on each side; every plane is a full (n x n) extended sheet
// (the j/k axes are not decomposed).
struct Slab {
  extent_t n = 0;  // global extended extent of the level
  extent_t m = 0;  // owned interior planes
  std::vector<double> data;

  void init(extent_t n_, extent_t m_) {
    n = n_;
    m = m_;
    data.assign(static_cast<std::size_t>((m + 2) * n * n), 0.0);
  }
  double* plane(extent_t l) {
    return data.data() + static_cast<std::size_t>(l * n * n);
  }
  const double* plane(extent_t l) const {
    return data.data() + static_cast<std::size_t>(l * n * n);
  }
  std::size_t plane_elems() const { return static_cast<std::size_t>(n * n); }
  void zero() { std::fill(data.begin(), data.end(), 0.0); }
};

// Rank `rank`'s share of the top-level right-hand side: its owned planes
// plus one halo plane on each side, straight from the streaming generator.
// Every rank scans the deterministic deviate stream and writes only its own
// planes; NPB distributes the generator instead — same data, no traffic.
void fill_rhs_slab(std::span<double> slab, extent_t nx, int ranks, int rank) {
  const extent_t m = nx / ranks;
  fill_rhs_planes(slab, nx, rank * m, m + 2);
}

// Per-rank solver state and kernels.
class RankSolver {
 public:
  RankSolver(const MgSpec& spec, msg::Comm& comm, bool overlap_halo)
      : spec_(spec),
        comm_(comm),
        ranks_(comm.size()),
        overlap_(overlap_halo),
        lt_(spec.levels()),
        kd_(std::max(ceil_log2(comm.size()), kLb)) {
    u_.resize(static_cast<std::size_t>(lt_) + 1);
    r_.resize(static_cast<std::size_t>(lt_) + 1);
    for (int k = kd_; k <= lt_; ++k) {
      const extent_t n = spec_.extended_extent(k);
      const extent_t m = (extent_t{1} << k) / ranks_;
      u_[static_cast<std::size_t>(k)].init(n, m);
      r_[static_cast<std::size_t>(k)].init(n, m);
    }
    v_.init(spec_.extended_extent(lt_),
            (extent_t{1} << lt_) / ranks_);
    lines_.assign(3 * static_cast<std::size_t>(v_.n), 0.0);
    if (kd_ > kLb && comm_.rank() == 0) {
      tail_ = std::make_unique<MgRef>(
          MgSpec::custom(extent_t{1} << kd_, 1, spec_.s[0] == -3.0 / 17.0));
    }
  }

  // -- setup -------------------------------------------------------------

  void setup_rhs() {
    fill_rhs_slab(v_.data, spec_.nx, ranks_, comm_.rank());
  }

  void zero_solution() {
    for (int k = kd_; k <= lt_; ++k) u_[static_cast<std::size_t>(k)].zero();
  }

  // -- one benchmark iteration --------------------------------------------

  void initial_resid() {
    resid_slab(u_top(), v_, r_top());
  }

  void mg3p() {
    // Downward leg over the distributed levels.
    for (int k = lt_; k > kd_; --k) {
      rprj3_slab(r_[static_cast<std::size_t>(k)],
                 r_[static_cast<std::size_t>(k - 1)]);
    }
    if (kd_ > kLb) {
      coarse_tail();  // gather -> serial V-cycle tail on rank 0 -> scatter
    } else {
      // Fully distributed bottom: one smoothing step on a cleared grid.
      Slab& ub = u_[static_cast<std::size_t>(kd_)];
      ub.zero();
      psinv_slab(r_[static_cast<std::size_t>(kd_)], ub);
    }
    // Upward leg.
    for (int k = kd_ + 1; k <= lt_; ++k) {
      Slab& uk = u_[static_cast<std::size_t>(k)];
      Slab& rk = r_[static_cast<std::size_t>(k)];
      if (k < lt_) uk.zero();
      interp_slab(u_[static_cast<std::size_t>(k - 1)], uk);
      if (k < lt_) {
        resid_slab(uk, rk, rk);
        psinv_slab(rk, uk);
      } else {
        resid_slab(uk, v_, rk);
        psinv_slab(rk, uk);
      }
    }
  }

  double residual_norm() {
    const Slab& r = r_top();
    double ss = 0.0;
    for (extent_t l = 1; l <= r.m; ++l) {
      const double* p = r.plane(l);
      for (extent_t j = 1; j < r.n - 1; ++j) {
        const double* row = p + j * r.n;
        for (extent_t k = 1; k < r.n - 1; ++k) ss += row[k] * row[k];
      }
    }
    const double total = comm_.allreduce_sum(ss);
    const double nx = static_cast<double>(spec_.nx);
    return std::sqrt(total / (nx * nx * nx));
  }

  void barrier() { comm_.barrier(); }

 private:
  static constexpr int kLb = 1;

  Slab& u_top() { return u_[static_cast<std::size_t>(lt_)]; }
  Slab& r_top() { return r_[static_cast<std::size_t>(lt_)]; }

  // Global extended plane index of a slab's local plane 0 (its low halo).
  extent_t global_base(const Slab& s) const {
    return static_cast<extent_t>(comm_.rank()) * s.m;
  }

  // -- communication -------------------------------------------------------

  // In-flight halo exchange: the irecv pair waiting on both neighbour
  // planes.  Requests are value handles; wait via end_exchange.
  struct ExchangeHandles {
    msg::Comm::Request high;
    msg::Comm::Request low;
  };

  // Post the cyclic halo exchange along the decomposed axis: local plane 1
  // goes to the previous rank's high halo, local plane m to the next rank's
  // low halo.  The NPB pattern: post both receives, send both planes —
  // buffered-asynchronous sends (a socket transport drains them on its
  // event loop) let communication proceed while the caller computes.  Tags
  // separate concurrent exchanges per level/kind.
  ExchangeHandles begin_exchange(Slab& s, int tag) {
    obs::ScopedSpan span(obs::SpanKind::kPhase, "halo_post", s.n);
    const int prev = (comm_.rank() + ranks_ - 1) % ranks_;
    const int next = (comm_.rank() + 1) % ranks_;
    const std::size_t pe = s.plane_elems();
    auto high_halo = comm_.irecv(next, tag, {s.plane(s.m + 1), pe});
    auto low_halo = comm_.irecv(prev, tag + 1, {s.plane(0), pe});
    comm_.isend(prev, tag, {s.plane(1), pe});      // low-going
    comm_.isend(next, tag + 1, {s.plane(s.m), pe});  // high-going
    return {high_halo, low_halo};
  }

  void end_exchange(ExchangeHandles& h, extent_t n) {
    obs::ScopedSpan span(obs::SpanKind::kPhase, "halo_wait", n);
    h.high.wait();
    h.low.wait();
  }

  void exchange_planes(Slab& s, int tag) {
    ExchangeHandles h = begin_exchange(s, tag);
    end_exchange(h, s.n);
  }

  // Periodic borders of the non-decomposed axes of one owned plane, in the
  // serial comm3 order (axis 2 first, then axis 1).
  void apply_jk_borders(Slab& s, extent_t l) {
    const extent_t n = s.n;
    double* p = s.plane(l);
    for (extent_t j = 0; j < n; ++j) {
      double* row = p + j * n;
      row[0] = row[n - 2];
      row[n - 1] = row[1];
    }
    std::memcpy(p, p + (n - 2) * n, static_cast<std::size_t>(n) * 8);
    std::memcpy(p + (n - 1) * n, p + n, static_cast<std::size_t>(n) * 8);
  }

  // Borders for every owned plane followed by the halo exchange — together
  // equivalent to the serial comm3.
  void comm3_slab(Slab& s, int tag) {
    for (extent_t l = 1; l <= s.m; ++l) apply_jk_borders(s, l);
    exchange_planes(s, tag);
  }

  // -- kernels (the reference's plane-range kernels on slabs) ---------------

  // A smoother or residual sweep writing the owned planes of `out`, then its
  // borders and halo exchange.  `planes(lo, hi)` computes the planes
  // [lo, hi); each reads its input planes l-1 .. l+1 and writes only plane
  // l, so the planes of a sweep are independent.  That licenses the
  // overlapped schedule: boundary planes first, since they are all the
  // neighbours need, then the interior while the exchange flies.  Identical
  // arithmetic per plane, only the schedule differs.
  template <class Planes>
  void sweep(Slab& out, int tag, const Planes& planes) {
    if (overlap_ && out.m >= 2) {
      planes(1, 2);
      planes(out.m, out.m + 1);
      apply_jk_borders(out, 1);
      apply_jk_borders(out, out.m);
      ExchangeHandles h = begin_exchange(out, tag);
      planes(2, out.m);
      for (extent_t l = 2; l < out.m; ++l) apply_jk_borders(out, l);
      end_exchange(h, out.n);
      return;
    }
    planes(1, out.m + 1);
    comm3_slab(out, tag);
  }

  void resid_slab(const Slab& u, const Slab& v, Slab& r) {
    obs::ScopedSpan span(obs::SpanKind::kKernel, "resid", u.n);
    sweep(r, 10, [&](extent_t lo, extent_t hi) {
      resid_planes(spec_, u.plane(0), v.plane(0), r.plane(0), u.n, lo, hi,
                   line(0), line(1));
    });
  }

  void psinv_slab(const Slab& r, Slab& u) {
    obs::ScopedSpan span(obs::SpanKind::kKernel, "psinv", r.n);
    sweep(u, 20, [&](extent_t lo, extent_t hi) {
      psinv_planes(spec_, r.plane(0), u.plane(0), r.n, lo, hi, line(0),
                   line(1));
    });
  }

  // Coarse local plane l restricts fine local planes 2l-1 .. 2l+1, aligned
  // because the fine slab's m is even here.
  void rprj3_slab(const Slab& fine, Slab& coarse) {
    obs::ScopedSpan span(obs::SpanKind::kKernel, "rprj3", fine.n);
    rprj3_planes(spec_, fine.plane(0), fine.n, coarse.plane(0), coarse.n, 1,
                 coarse.m + 1, line(0), line(1));
    comm3_slab(coarse, 30);
  }

  // Additive prolongation of coarse cells 0 .. m into the owned fine planes
  // (cell 0 adds only to fine plane 1, cell m only to plane 2m); afterwards
  // the fine halos are refreshed by a plane exchange (equivalent to the
  // ghost values the serial interp writes, see the derivation in
  // DESIGN.md).
  void interp_slab(const Slab& coarse, Slab& fine) {
    obs::ScopedSpan span(obs::SpanKind::kKernel, "interp", fine.n);
    interp_planes(spec_, coarse.plane(0), coarse.n, fine.plane(0), fine.n, 0,
                  coarse.m + 1, 1, fine.m + 1, line(0), line(1), line(2));
    exchange_planes(fine, 40);
  }

  // Gather the coarsest distributed level to rank 0, run the V-cycle below
  // it with the serial reference (MgRef::vcycle), scatter the correction
  // back.
  void coarse_tail() {
    Slab& rk = r_[static_cast<std::size_t>(kd_)];
    Slab& uk = u_[static_cast<std::size_t>(kd_)];
    const std::size_t pe = rk.plane_elems();
    const extent_t planes = extent_t{1} << kd_;  // == ranks_ (m == 1)

    std::vector<double> full_r(comm_.rank() == 0
                                   ? pe * static_cast<std::size_t>(planes)
                                   : 0);
    comm_.gather(0, std::span<const double>(rk.plane(1), pe * rk.m),
                 std::span<double>(full_r));

    std::vector<double> full_u(comm_.rank() == 0 ? full_r.size() : 0);
    if (comm_.rank() == 0) {
      // Assemble the extended serial grid: interior planes from the gather,
      // halo planes periodic.
      auto rt = tail_->level_r_span(kd_);
      std::memcpy(rt.data() + pe, full_r.data(),
                  full_r.size() * sizeof(double));
      std::memcpy(rt.data(), rt.data() + static_cast<std::size_t>(planes) * pe,
                  pe * sizeof(double));
      std::memcpy(rt.data() + static_cast<std::size_t>(planes + 1) * pe,
                  rt.data() + pe, pe * sizeof(double));
      tail_->vcycle(kd_);
      std::memcpy(full_u.data(), tail_->level_u_span(kd_).data() + pe,
                  full_u.size() * sizeof(double));
    }
    comm_.scatter(0, std::span<const double>(full_u),
                  std::span<double>(uk.plane(1), pe * uk.m));
    exchange_planes(uk, 50);  // periodic halos of the scattered correction
  }

  // Line buffer `i` of the three the kernels share, each a row of the
  // finest level.
  double* line(int i) {
    return lines_.data() + static_cast<std::size_t>(i) * v_.n;
  }

  MgSpec spec_;
  msg::Comm& comm_;
  int ranks_;
  bool overlap_;  // overlap halo exchange with interior compute in sweeps
  int lt_;
  int kd_;  // coarsest distributed level
  std::vector<Slab> u_, r_;
  Slab v_;
  std::vector<double> lines_;    // the kernels' line buffers
  std::unique_ptr<MgRef> tail_;  // rank 0 only
};

}  // namespace

MgMpi::MgMpi(const MgSpec& spec, int ranks, bool overlap_halo)
    : spec_(spec), ranks_(ranks), overlap_halo_(overlap_halo) {
  SACPP_REQUIRE(is_power_of_two(ranks), "rank count must be a power of two");
  SACPP_REQUIRE(2 * static_cast<extent_t>(ranks) <= spec.nx,
                "need at least two grid planes per rank at the top level");
}

std::vector<double> MgMpi::rhs_slab(int rank) const {
  SACPP_REQUIRE(rank >= 0 && rank < ranks_, "rank outside the world");
  const extent_t n = spec_.nx + 2;
  const extent_t m = spec_.nx / ranks_;
  std::vector<double> slab(static_cast<std::size_t>((m + 2) * n * n));
  fill_rhs_slab(slab, spec_.nx, ranks_, rank);
  return slab;
}

MgMpi::Result MgMpi::run_rank(msg::Comm& comm, int nit, bool warmup) const {
  SACPP_REQUIRE(comm.size() == ranks_,
                "communicator size does not match configured rank count");
  RankSolver solver(spec_, comm, overlap_halo_);
  solver.setup_rhs();
  solver.zero_solution();
  solver.initial_resid();
  if (warmup) {
    solver.mg3p();
    solver.initial_resid();
    solver.zero_solution();
    solver.initial_resid();
  }
  comm.barrier();            // all setup traffic delivered
  comm.reset_world_stats();  // each process zeroes its own world's counters
  comm.barrier();

  Result result;
  double elapsed = 0.0;
  for (int it = 0; it < nit; ++it) {
    Timer t;
    solver.mg3p();
    solver.initial_resid();
    solver.barrier();
    elapsed += t.elapsed_seconds();
    result.norms.push_back(solver.residual_norm());
  }
  result.final_norm = result.norms.empty() ? 0.0 : result.norms.back();
  result.seconds = elapsed;
  return result;
}

MgMpi::Result MgMpi::run(int nit, bool warmup) const {
  msg::World world(ranks_);
  Result result;
  std::mutex result_mutex;

  world.run([&](msg::Comm& comm) {
    Result local = run_rank(comm, nit, warmup);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(result_mutex);
      result = std::move(local);
    }
  });
  result.comm = world.stats();
  return result;
}

}  // namespace sacpp::mg
