// Per-layer metrics of the traced run.  Each probe times public calls into
// one layer from outside, or reads the public counters; bytes labelled
// "computed" come from array sizes, not from hardware counters.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>

#include "mgbench.hpp"
#include "proc.hpp"
#include "sacpp/mg/mg_sac.hpp"
#include "sacpp/mg/problem.hpp"
#include "sacpp/msg/msg.hpp"
#include "sacpp/net/tcp_transport.hpp"
#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/jit.hpp"
#include "sacpp/sac/sac.hpp"
#include "sacpp/serve/wire.hpp"

namespace mgbench {

using namespace sacpp;

namespace {

// Median per-call time of `fn` over five batches, each at least 4 ms long,
// after one untimed warm-up call.
double time_call(const std::function<void()>& fn) {
  fn();
  std::vector<double> per_call;
  for (int b = 0; b < 5; ++b) {
    int calls = 0;
    const double t0 = now_s();
    double t = 0.0;
    do {
      fn();
      ++calls;
      t = now_s() - t0;
    } while (t < 0.004);
    per_call.push_back(t / calls);
  }
  return median(per_call);
}

// ---------------------------------------------------------------------------
// host: STREAM triad, the bandwidth ceiling for the *_GBps metrics
// ---------------------------------------------------------------------------

double l3_bytes() {
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream level(dir + "level"), size(dir + "size");
    int lv = 0;
    std::string sz;
    if (!(level >> lv) || !(size >> sz)) continue;
    if (lv != 3) continue;
    double bytes = std::strtod(sz.c_str(), nullptr);
    if (sz.back() == 'K') bytes *= 1024.0;
    if (sz.back() == 'M') bytes *= 1024.0 * 1024.0;
    return bytes;
  }
  return 32.0 * 1024 * 1024;
}

void host_probe(Run& run) {
  // Three arrays that together hold 4x the L3 (sysfs), at most 512 MiB
  // each: an array of 4x L3 apiece would need several GB on large-cache
  // hosts.
  const double l3 = l3_bytes();
  const double array_bytes = std::clamp(4.0 * l3 / 3.0, 64.0 * (1 << 20),
                                        512.0 * (1 << 20));
  const std::size_t n = static_cast<std::size_t>(array_bytes / 8.0);
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  const unsigned threads = run.threads;
  auto in_parallel = [&](unsigned nt, const std::function<void(std::size_t, std::size_t)>& fn) {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < nt; ++t) {
      pool.emplace_back([&, t] { fn(n * t / nt, n * (t + 1) / nt); });
    }
    for (std::thread& th : pool) th.join();
  };
  in_parallel(threads, [&](std::size_t lo, std::size_t hi) {  // first touch
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  for (const unsigned nt : {1u, threads}) {
    std::vector<double> gbps;
    for (int rep = 0; rep < 3; ++rep) {
      const double t0 = now_s();
      in_parallel(nt, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
      });
      gbps.push_back(24.0 * static_cast<double>(n) / (now_s() - t0) * 1e-9);
    }
    run.report.set_value(nt == 1 ? "host.triad_GBps" : "host.triad_mt_GBps",
                         "GB/s", median(gbps));
  }
  run.report.info("host.l3_MB", std::to_string(l3 / (1 << 20)));
  run.report.info("host.triad_array_MB", std::to_string(array_bytes / (1 << 20)));
}

// ---------------------------------------------------------------------------
// mg kernel ladder: public MgSac calls on each level's 2^k+2 grid
// ---------------------------------------------------------------------------

// Deterministic pseudo-random extended grid of level k.
sac::Array<double> random_grid(int level, std::uint64_t salt) {
  const extent_t n = (extent_t{1} << level) + 2;
  return sac::with_genarray<double>(
      cube_shape(3, n), sac::gen_all(),
      sac::rank3_body([=](extent_t i, extent_t j, extent_t k) {
        std::uint64_t x = salt + static_cast<std::uint64_t>((i * n + j) * n + k);
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return static_cast<double>(x >> 11) * 0x1.0p-52 - 1.0;
      }));
}

void mg_ladder(Run& run, const mg::MgSpec& workload_spec) {
  constexpr int kLevels = 8;
  struct Kernels {
    double f2c = 0, c2f = 0, resid = 0, smooth = 0, border = 0;
    double level() const { return f2c + c2f + resid + smooth; }
  };
  Kernels one[kLevels + 1], mt[kLevels + 1];
  const mg::MgSac solver(mg::MgSpec::for_class(mg::MgClass::A));
  const std::uint64_t salt = run.rng();
  // All single-thread timings first: an idle worker pool left over from a
  // multithreaded call must not share the machine with them.
  for (const bool multi : {false, true}) {
    set_threads(multi ? run.threads : 1);
    for (int k = 1; k <= kLevels; ++k) {
      const sac::Array<double> r = random_grid(k, salt + 1);
      const sac::Array<double> u = random_grid(k, salt + 2);
      const sac::Array<double> v = random_grid(k, salt + 3);
      sac::Array<double> a = random_grid(k, salt + 4);
      const sac::Array<double> zc = k >= 2 ? random_grid(k - 1, salt + 5) : r;
      Kernels& t = multi ? mt[k] : one[k];
      t.smooth = time_call([&] { (void)solver.smooth(r); });
      t.border = time_call(
          [&] { a = mg::MgSac::setup_periodic_border(std::move(a)); });
      if (k >= 2) {
        t.f2c = time_call([&] { (void)solver.fine2coarse(r); });
        t.c2f = time_call([&] { (void)solver.coarse2fine(zc); });
        t.resid = time_call([&] { (void)solver.residual(v, u); });
      }
    }
  }
  set_threads(1);

  Report& rep = run.report;
  for (int k = 1; k <= kLevels; ++k) {
    const std::string lv = "mg.level.L" + std::to_string(k);
    rep.set_value(lv + "_s", "s", one[k].level());
    rep.set_value(lv + "_mt_speedup", "ratio", one[k].level() / mt[k].level());
  }
  // One V-cycle of the workload's class visits levels 1..top: every kernel
  // on levels >= 2, the smoother alone on level 1.  Border set-up runs
  // inside the other kernels (once per fine2coarse, residual and smooth on
  // a level, once per coarse2fine on the level below), so it is reported
  // but not added to the ladder sum.
  const int top = workload_spec.levels();
  Kernels sum;
  double ladder = 0.0;
  for (int k = 1; k <= top; ++k) {
    sum.f2c += one[k].f2c;
    sum.c2f += one[k].c2f;
    sum.resid += one[k].resid;
    sum.smooth += one[k].smooth;
    const int borders = (k >= 2 ? 2 : 0) + 1 + (k < top ? 1 : 0);
    sum.border += borders * one[k].border;
    ladder += one[k].level();
  }
  rep.set_value("mg.kernel.fine2coarse_s", "s", sum.f2c);
  rep.set_value("mg.kernel.coarse2fine_s", "s", sum.c2f);
  rep.set_value("mg.kernel.residual_s", "s", sum.resid);
  rep.set_value("mg.kernel.smooth_s", "s", sum.smooth);
  rep.set_value("mg.kernel.border_s", "s", sum.border);
  // Computed bytes at the finest level: each input read once, each output
  // written once; temporaries and cache misses are not counted.
  const double n = static_cast<double>((extent_t{1} << top) + 2);
  const double nc = static_cast<double>((extent_t{1} << (top - 1)) + 2);
  const double cube = n * n * n, coarse = nc * nc * nc;
  const double ghosts = cube - (n - 2) * (n - 2) * (n - 2);
  const Kernels& f = one[top];
  rep.set_value("mg.kernel.fine2coarse_GBps", "GB/s", 8 * (cube + coarse) / f.f2c * 1e-9);
  rep.set_value("mg.kernel.coarse2fine_GBps", "GB/s", 8 * (coarse + cube) / f.c2f * 1e-9);
  rep.set_value("mg.kernel.residual_GBps", "GB/s", 8 * 3 * cube / f.resid * 1e-9);
  rep.set_value("mg.kernel.smooth_GBps", "GB/s", 8 * 2 * cube / f.smooth * 1e-9);
  rep.set_value("mg.kernel.border_GBps", "GB/s", 8 * 2 * ghosts / f.border * 1e-9);
  rep.set_value("mg.unattributed_frac", "ratio",
                1.0 - ladder / rep.value("mg.vcycle_s"));
}

// ---------------------------------------------------------------------------
// sac: backend rows, pool, fork/join
// ---------------------------------------------------------------------------

void backend_probe(Run& run) {
  const mg::MgSpec spec = mg::MgSpec::for_class(mg::MgClass::A);
  const double* c = spec.a.c.data();
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  std::uint64_t jit_kernel = 0, jit_fallback = 0;
  for (const extent_t n : {extent_t{66}, extent_t{258}}) {
    std::vector<double> rows(static_cast<std::size_t>(9 * n));
    for (double& x : rows) x = uni(run.rng);
    std::vector<double> u1(static_cast<std::size_t>(n)), u2(u1), out(u1);
    const double* r[9];
    for (int i = 0; i < 9; ++i) r[i] = rows.data() + i * n;
    for (const sac::BackendKind kind :
         {sac::BackendKind::kScalar, sac::BackendKind::kSimd,
          sac::BackendKind::kJit}) {
      const sac::Backend& be = sac::backend_for(kind);
      const auto row = [&] {
        be.stencil_row(c, r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7],
                       r[8], u1.data(), u2.data(), out.data(), 1, n - 1, n,
                       false);
      };
      if (kind == sac::BackendKind::kJit) {
        row();  // requests the kernel; compiled synchronously (SACPP_JIT_SYNC)
        sac::jit::drain();
      }
      const sac::RuntimeStats s0 = sac::stats_snapshot();
      const double per_call = time_call(row);
      const sac::RuntimeStats s1 = sac::stats_snapshot();
      if (kind == sac::BackendKind::kJit) {
        jit_kernel += s1.jit_kernel_calls - s0.jit_kernel_calls;
        jit_fallback += s1.jit_fallback_calls - s0.jit_fallback_calls;
      }
      run.report.set_value("sac.backend." +
                               std::string(sac::backend_name(kind)) +
                               ".stencil_row_ns_pt.n" + std::to_string(n),
                           "ns", per_call * 1e9 / static_cast<double>(n - 2));
    }
  }
  run.report.set_value(
      "sac.backend.jit.kernel_call_ratio", "ratio",
      static_cast<double>(jit_kernel) /
          static_cast<double>(std::max<std::uint64_t>(jit_kernel + jit_fallback, 1)));

  const sac::Backend& simd = sac::backend_for(sac::BackendKind::kSimd);
  constexpr extent_t kRow = 258;
  std::vector<double> src(2 * kRow), dst(2 * kRow);
  for (double& x : src) x = uni(run.rng);
  volatile double sink = 0.0;
  const double pt = 1e9 / static_cast<double>(kRow);
  run.report.set_value("sac.backend.simd.sum_sq_row_ns_pt", "ns",
                       time_call([&] { sink = simd.sum_sq_row(0.0, src.data(), 0, kRow); }) * pt);
  run.report.set_value("sac.backend.simd.gather_row_ns_pt", "ns",
                       time_call([&] { simd.gather_row(dst.data(), src.data(), 2, kRow); }) * pt);
  run.report.set_value("sac.backend.simd.scatter_row_ns_pt", "ns",
                       time_call([&] { simd.scatter_row(dst.data(), 2, src.data(), kRow); }) * pt);
  (void)sink;
}

// Alloc/release pairs cycling through the V-cycle's size classes (the
// extended cubes of levels 1..6).
void pool_probe(Run& run) {
  sac::BufferPool& pool = sac::BufferPool::instance();
  std::vector<std::size_t> sizes;
  for (const std::size_t n : {4, 6, 10, 18, 34, 66}) {
    sizes.push_back(sac::pool_block_bytes(8 * n * n * n));
  }
  constexpr int kRounds = 1000;
  const auto cycle = [&] {
    for (int i = 0; i < kRounds; ++i) {
      for (const std::size_t s : sizes) pool.deallocate(pool.allocate(s), s);
    }
  };
  const double pairs = static_cast<double>(kRounds) * static_cast<double>(sizes.size());
  run.report.set_value("sac.pool.alloc_release_ns", "ns", time_call(cycle) / pairs * 1e9);

  const unsigned nt = run.threads;
  std::barrier sync(static_cast<std::ptrdiff_t>(nt));
  std::vector<double> per_thread(nt);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < nt; ++t) {
    workers.emplace_back([&, t] {
      cycle();  // warm this thread's magazine
      sync.arrive_and_wait();
      per_thread[t] = time_call(cycle) / pairs * 1e9;
    });
  }
  for (std::thread& w : workers) w.join();
  run.report.set_value("sac.pool.alloc_release_mt_ns", "ns", median(per_thread));
}

void fork_join_probe(Run& run) {
  sac::ThreadPool pool(run.threads);
  const std::function<void(extent_t, extent_t, unsigned)> empty =
      [](extent_t, extent_t, unsigned) {};
  run.report.set_value("sac.fork_join_us", "us",
                       time_call([&] {
                         pool.parallel_for(0, static_cast<extent_t>(run.threads), 1, empty);
                       }) * 1e6);
}

void wire_probe(Run& run) {
  serve::SolveRequest req;
  req.id = 42;
  req.stencil_mode = sac::StencilMode::kPlanes;
  req.backend = sac::BackendKind::kSimd;
  serve::SolveResult res;
  res.id = 42;
  res.status = serve::SolveStatus::kOk;
  res.final_norm = 5.307707005734909e-05;
  res.verified = true;
  const std::vector<std::uint8_t> frame = serve::encode_result(res);
  serve::SolveResult back;
  constexpr int kCalls = 1000;
  run.report.set_value("serve.wire.encode_request_ns", "ns",
                       time_call([&] {
                         for (int i = 0; i < kCalls; ++i) (void)serve::encode_request(req);
                       }) / kCalls * 1e9);
  run.report.set_value("serve.wire.decode_result_ns", "ns",
                       time_call([&] {
                         for (int i = 0; i < kCalls; ++i) serve::decode_result(frame, &back);
                       }) / kCalls * 1e9);
}

// ---------------------------------------------------------------------------
// net / msg: two processes on net::TcpTransport + msg::World
// ---------------------------------------------------------------------------

constexpr extent_t kPlane = 258;  // a class-A/B halo plane is 258^2 doubles
constexpr int kHaloRounds = 200;
constexpr int kReduceRounds = 2000;

struct NetTimes {
  double rendezvous_s = 0.0;
  double halo_s = 0.0;       // one plane each way
  double allreduce_s = 0.0;
};

NetTimes net_program(int rank, const std::string& hosts, int listen_fd) {
  net::TcpOptions opt;
  opt.rank = rank;
  opt.listen_fd = listen_fd;
  for (std::size_t at = 0; at <= hosts.size();) {
    const std::size_t comma = std::min(hosts.find(',', at), hosts.size());
    opt.hosts.push_back(hosts.substr(at, comma - at));
    at = comma + 1;
  }
  NetTimes t;
  const double t0 = now_s();
  net::TcpTransport transport(opt);
  t.rendezvous_s = now_s() - t0;
  msg::World world(transport);
  world.run([&](msg::Comm& comm) {
    const int peer = 1 - comm.rank();
    std::vector<double> out(static_cast<std::size_t>(kPlane * kPlane), 1.0);
    std::vector<double> in(out.size());
    for (int i = 0; i < 5; ++i) comm.sendrecv(peer, out, peer, in, 7);
    comm.barrier();
    double s = now_s();
    for (int i = 0; i < kHaloRounds; ++i) comm.sendrecv(peer, out, peer, in, 7);
    t.halo_s = (now_s() - s) / kHaloRounds;
    comm.barrier();
    s = now_s();
    for (int i = 0; i < kReduceRounds; ++i) (void)comm.allreduce_sum(1.0);
    t.allreduce_s = (now_s() - s) / kReduceRounds;
  });
  return t;
}

void net_probe(Run& run) {
  int port0 = 0, port1 = 0;
  const int fd0 = listen_loopback(&port0);
  const int fd1 = listen_loopback(&port1);
  if (fd0 < 0 || fd1 < 0) throw std::runtime_error("cannot bind net probe");
  const std::string hosts = "127.0.0.1:" + std::to_string(port0) +
                            ",127.0.0.1:" + std::to_string(port1);
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  Child::Options opts;
  opts.stdout_fd = out[1];
  opts.close_fds = {fd0};
  Child peer({self_exe(), "--worker", "net", "--rank", "1", "--hosts", hosts,
              "--listen-fd", std::to_string(fd1)},
             opts);
  ::close(fd1);
  ::close(out[1]);
  const NetTimes t = net_program(0, hosts, fd0);
  const std::string line = read_all(out[0], 60.0);
  ::close(out[0]);
  const bool ok = peer.wait(20.0) == 0;
  run.report.attempt(ok, "net probe peer failed");
  // Rank 1 dials rank 0, which is already listening, so its rendezvous is
  // the connect + hello/ack handshake alone (rank 0's also waits for the
  // peer process to start).
  const std::size_t at = line.find("rendezvous_s=");
  const double rdv = at == std::string::npos ? t.rendezvous_s
                                             : std::strtod(line.c_str() + at + 13, nullptr);
  const double plane_bytes = 8.0 * static_cast<double>(kPlane * kPlane);
  run.report.set_value("net.rendezvous_ms", "ms", rdv * 1e3);
  run.report.set_value("net.halo_plane_us", "us", t.halo_s * 1e6);
  run.report.set_value("net.halo_GBps", "GB/s", 2.0 * plane_bytes / t.halo_s * 1e-9);
  run.report.set_value("net.allreduce_us", "us", t.allreduce_s * 1e6);
}

}  // namespace

int net_worker(int rank, const std::string& hosts, int listen_fd) {
  try {
    const NetTimes t = net_program(rank, hosts, listen_fd);
    std::printf("rendezvous_s=%.17g\n", t.rendezvous_s);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mgbench net rank %d: %s\n", rank, e.what());
    return 1;
  }
}

// ---------------------------------------------------------------------------
// mg: replica of driver.cpp's run_sac step loop
// ---------------------------------------------------------------------------

double mg_replica(Run& run, const mg::MgSpec& spec, bool traced, bool record) {
  Spans off(false);
  Spans& spans = traced ? run.spans : off;
  set_threads(1);
  const std::uint64_t trace = spans.new_trace();
  const Scope root(spans, "npb.solve", 0, trace);

  const extent_t n = spec.nx + 2;
  const Shape shp = cube_shape(3, n);
  std::vector<double> v_raw(static_cast<std::size_t>(n * n * n));
  const double f0 = now_s();
  {
    const Scope s(spans, "nasrand.fill_rhs", root.id(), trace);
    mg::fill_rhs(std::span<double>(v_raw), spec.nx);
  }
  const double fill_s = now_s() - f0;
  sac::Array<double> v;
  {
    const Scope s(spans, "sac.genarray", root.id(), trace);
    v = sac::with_genarray<double>(
        shp, sac::gen_all(),
        sac::rank3_body([&](extent_t i, extent_t j, extent_t k) {
          return v_raw[static_cast<std::size_t>((i * n + j) * n + k)];
        }));
  }
  const mg::MgSac solver(spec);
  sac::Array<double> u, r, z;
  const auto reset = [&] {
    const Scope s(spans, "npb.reset", root.id(), trace);
    u = sac::genarray_const(shp, 0.0);
    r = solver.residual(v, u);
  };
  // One iteration with a span around each public call; returns the
  // (vcycle, update, residual) durations.
  const auto step = [&](Spans& sp, std::uint64_t parent) {
    double t[4];
    t[0] = now_s();
    {
      const Scope s(sp, "mg.vcycle", parent, trace);
      z = solver.vcycle(r);
    }
    t[1] = now_s();
    {
      const Scope s(sp, "mg.update", parent, trace);
      u = std::move(u) + z;  // in place: u is uniquely owned
      z = sac::Array<double>();
    }
    t[2] = now_s();
    {
      const Scope s(sp, "mg.residual", parent, trace);
      r = solver.residual(v, u);
    }
    t[3] = now_s();
    return std::array<double, 3>{t[1] - t[0], t[2] - t[1], t[3] - t[2]};
  };

  reset();
  {
    const Scope s(spans, "npb.warmup", root.id(), trace);
    step(spans, s.id());
  }
  reset();
  std::vector<double> iter_s, vcycle_s, update_s, residual_s;
  for (int it = 0; it < spec.nit; ++it) {
    const Scope s(spans, "mg.iter", root.id(), trace);
    const std::array<double, 3> d = step(spans, s.id());
    vcycle_s.push_back(d[0]);
    update_s.push_back(d[1]);
    residual_s.push_back(d[2]);
    iter_s.push_back(d[0] + d[1] + d[2]);
  }
  double timed = 0.0;
  for (const double t : iter_s) timed += t;

  const Shape& rs = r.shape();
  const double points = static_cast<double>(spec.nx) *
                        static_cast<double>(spec.nx) *
                        static_cast<double>(spec.nx);
  const double norm =
      std::sqrt(sac::with_fold(std::plus<>{}, 0.0, rs, sac::gen_interior(rs),
                               sac::sum_sq_rows(r)) /
                points);
  std::string detail;
  run.report.attempt(norm_ok(run, spec, norm, &detail), "replica: " + detail);
  if (!record) return timed;

  Report& rep = run.report;
  rep.add("nasrand.fill_rhs_s", "s", fill_s);
  rep.set_value("mg.iter_s", "s", median(iter_s));
  rep.set_value("mg.vcycle_s", "s", median(vcycle_s));
  rep.set_value("mg.update_s", "s", median(update_s));
  rep.set_value("mg.residual_s", "s", median(residual_s));

  // Exact per-iteration counts, on the multithreaded setting so parallel
  // regions show: one warm iteration, then the counted one.
  set_threads(run.threads);
  step(off, 0);
  const sac::RuntimeStats a = sac::stats_snapshot();
  step(off, 0);
  const sac::RuntimeStats b = sac::stats_snapshot();
  set_threads(1);
  const auto delta = [](std::uint64_t hi, std::uint64_t lo) {
    return static_cast<double>(hi - lo);
  };
  rep.set_value("sac.with_loops_per_iter", "count", delta(b.with_loops, a.with_loops));
  rep.set_value("sac.elements_per_iter", "count", delta(b.elements, a.elements));
  rep.set_value("sac.allocations_per_iter", "count", delta(b.allocations, a.allocations));
  rep.set_value("sac.bytes_allocated_per_iter", "B",
                delta(b.bytes_allocated, a.bytes_allocated));
  rep.set_value("sac.copies_on_write_per_iter", "count",
                delta(b.copies_on_write, a.copies_on_write));
  rep.set_value("sac.parallel_regions_per_iter", "count",
                delta(b.parallel_regions, a.parallel_regions));
  const double hits = delta(b.pool_hits, a.pool_hits);
  const double misses = delta(b.pool_misses, a.pool_misses);
  const double reuses = delta(b.reuses, a.reuses);
  const double allocs = delta(b.allocations, a.allocations);
  rep.set_value("sac.pool_hit_ratio", "ratio", hits / std::max(hits + misses, 1.0));
  rep.set_value("sac.reuse_ratio", "ratio", reuses / std::max(reuses + allocs, 1.0));
  return timed;
}

void layer_probes(Run& run, const mg::MgSpec& spec, bool with_serve) {
  host_probe(run);
  mg_ladder(run, spec);
  backend_probe(run);
  pool_probe(run);
  fork_join_probe(run);
  wire_probe(run);
  net_probe(run);
  // Exact message counts of a 2-rank solve of the workload's class.
  const ClusterResult c = launch_cluster(run, spec, 2, 0.0, 0);
  run.report.set_value("msg.messages_per_solve", "count", c.messages);
  run.report.set_value("msg.bytes_per_solve", "B", c.bytes);
  if (with_serve) serve_ladder(run, 1.0, false);
}

}  // namespace mgbench
