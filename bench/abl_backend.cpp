// Backend ablation (docs/backends.md) — the row-primitive engine ladder:
//
//   scalar     the historical per-element loops (bit-exact reference),
//   simd       what BackendKind::kSimd resolves to on this host (its AVX2
//              instance when the CPU has AVX2, else the baseline one),
//   portable   kSimd's baseline instance, pinned through
//              detail::ScopedSimdOverride so a host with AVX2 still
//              measures the path a host without it runs,
//   jit        runtime-compiled kernels (docs/jit.md), warmed before the
//              timed loops: main() pre-issues every key the benchmarks
//              request and drains the compile queue, so the numbers are
//              steady-state kernel throughput, not compiler latency.
//
// Three benchmark families, named so mg_consolidate.py can parse the
// backend as a dimension (BM_Backend<family>/<primitive>/<backend>/<n>):
//
//   Row        each Backend row primitive in isolation on rows of length n
//              (the per-primitive breakdown),
//   Fused      the resid/psinv inner row path exactly as the kPlanes engine
//              issues it — one stencil_row call per interior row (plane
//              sums + combine fused; the default engines compose the two
//              passes, the jit engine runs a single generated loop) — on an
//              n x n slab that stays cache-resident, isolating row-engine
//              throughput from DRAM bandwidth,
//   Kernel     the full relax_kernel under StencilMode::kPlanes with the
//              backend selected through ScopedConfig, for end-to-end
//              context (memory-bound at n = 130, so speedups compress).
//
// bench/run_all.sh gates the fused resid/psinv rows at the class-W-sized
// grid (n = 66): simd under 1.5x over scalar, or jit under 2.0x, fails the
// bench run (BENCH_mg.json "backend" section).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/jit.hpp"
#include "sacpp/sac/sac.hpp"

namespace {

using namespace sacpp;
using sac::Array;
using sac::Backend;

// Deterministic pseudo-random fill in [-1, 1) — cheap, no <random>.
std::vector<double> noise(std::size_t count, std::uint64_t seed) {
  std::vector<double> v(count);
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + 1;
  for (double& x : v) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    x = static_cast<double>(static_cast<std::int64_t>(s >> 11)) * 0x1.0p-52;
  }
  return v;
}

Array<double> input_grid(extent_t n) {
  const Shape shp{n, n, n};
  return sac::with_genarray<double>(
      shp, sac::rank3_body([](extent_t i, extent_t j, extent_t k) {
        return 0.25 * static_cast<double>(i + 2 * j + 3 * k);
      }));
}

const sac::StencilCoeffs kResid{{-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0}};
const sac::StencilCoeffs kPsinv{{-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0}};

// -- Row: one primitive per benchmark -----------------------------------------

using RowFn = void (*)(const Backend&, benchmark::State&);

void row_fill(const Backend& be, benchmark::State& state) {
  const extent_t n = state.range(0);
  std::vector<double> out(static_cast<std::size_t>(n));
  for (auto _ : state) {
    be.fill_row(out.data(), 0, n, 0.125);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void row_copy(const Backend& be, benchmark::State& state) {
  const extent_t n = state.range(0);
  const std::vector<double> src = noise(static_cast<std::size_t>(n), 1);
  std::vector<double> out(static_cast<std::size_t>(n));
  for (auto _ : state) {
    be.copy_row(out.data(), src.data(), 0, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void row_plane_sums(const Backend& be, benchmark::State& state) {
  const extent_t n = state.range(0);
  const std::size_t len = static_cast<std::size_t>(n);
  std::vector<std::vector<double>> in;
  for (int r = 0; r < 8; ++r) {
    in.push_back(noise(len, static_cast<std::uint64_t>(r + 2)));
  }
  std::vector<double> u1(len), u2(len);
  for (auto _ : state) {
    be.plane_sums(in[0].data(), in[1].data(), in[2].data(), in[3].data(),
                  in[4].data(), in[5].data(), in[6].data(), in[7].data(),
                  u1.data(), u2.data(), n);
    benchmark::DoNotOptimize(u1.data());
    benchmark::DoNotOptimize(u2.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void row_combine(const Backend& be, benchmark::State& state) {
  const extent_t n = state.range(0);
  const std::size_t len = static_cast<std::size_t>(n);
  const std::vector<double> uc = noise(len, 11), u1 = noise(len, 12),
                            u2 = noise(len, 13);
  std::vector<double> out(len);
  for (auto _ : state) {
    be.combine_row(kResid.c.data(), uc.data(), u1.data(), u2.data(),
                   out.data(), 1, n - 1);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * (n - 2));
}

void row_accumulate(const Backend& be, benchmark::State& state) {
  const extent_t n = state.range(0);
  const std::size_t len = static_cast<std::size_t>(n);
  const std::vector<double> uc = noise(len, 21), u1 = noise(len, 22),
                            u2 = noise(len, 23);
  std::vector<double> out = noise(len, 24);
  for (auto _ : state) {
    be.accumulate_row(kPsinv.c.data(), uc.data(), u1.data(), u2.data(),
                      out.data(), 1, n - 1);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * (n - 2));
}

void row_add_into(const Backend& be, benchmark::State& state) {
  const extent_t n = state.range(0);
  const std::vector<double> a = noise(static_cast<std::size_t>(n), 31);
  std::vector<double> out = noise(static_cast<std::size_t>(n), 32);
  for (auto _ : state) {
    be.add_into_row(a.data(), out.data(), 0, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void row_sub_into(const Backend& be, benchmark::State& state) {
  const extent_t n = state.range(0);
  const std::vector<double> a = noise(static_cast<std::size_t>(n), 35);
  std::vector<double> out = noise(static_cast<std::size_t>(n), 36);
  for (auto _ : state) {
    be.sub_into_row(a.data(), out.data(), 0, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void row_mul_into(const Backend& be, benchmark::State& state) {
  const extent_t n = state.range(0);
  const std::vector<double> a = noise(static_cast<std::size_t>(n), 33);
  std::vector<double> out = noise(static_cast<std::size_t>(n), 34);
  for (auto _ : state) {
    be.mul_into_row(a.data(), out.data(), 0, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void row_gather(const Backend& be, benchmark::State& state) {
  const extent_t n = state.range(0);
  const std::vector<double> src = noise(static_cast<std::size_t>(2 * n), 41);
  std::vector<double> out(static_cast<std::size_t>(n));
  for (auto _ : state) {
    be.gather_row(out.data(), src.data(), 2, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void row_scatter(const Backend& be, benchmark::State& state) {
  const extent_t n = state.range(0);
  const std::vector<double> src = noise(static_cast<std::size_t>(n), 42);
  std::vector<double> out(static_cast<std::size_t>(2 * n));
  for (auto _ : state) {
    be.scatter_row(out.data(), 2, src.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void row_sum_sq(const Backend& be, benchmark::State& state) {
  const extent_t n = state.range(0);
  const std::vector<double> p = noise(static_cast<std::size_t>(n), 51);
  double acc = 0.0;
  for (auto _ : state) {
    acc = be.sum_sq_row(acc * 1e-300, p.data(), 0, n);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void row_max_abs(const Backend& be, benchmark::State& state) {
  const extent_t n = state.range(0);
  const std::vector<double> p = noise(static_cast<std::size_t>(n), 52);
  double acc = 0.0;
  for (auto _ : state) {
    acc = be.max_abs_row(acc * 0.5, p.data(), 0, n);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

// -- Fused: the kPlanes inner row path ----------------------------------------
//
// One n x n slab of rows: for each interior j, one stencil_row over the
// eight neighbour rows of plane i into the output row — precisely the
// per-row call resid issues in StencilMode::kPlanes (accumulate for psinv).
// Three planes of n x n doubles stay L2-resident through n = 130, so this
// measures the row engine, not DRAM.

struct FusedSlab {
  extent_t n;
  std::size_t len;  // n*n doubles per plane
  std::vector<double> pm, pc, pp;  // planes i-1, i, i+1
  std::vector<double> u1, u2, out;

  explicit FusedSlab(extent_t n_in)
      : n(n_in),
        len(static_cast<std::size_t>(n_in) * static_cast<std::size_t>(n_in)),
        pm(noise(len, 61)),
        pc(noise(len, 62)),
        pp(noise(len, 63)),
        u1(static_cast<std::size_t>(n_in)),
        u2(static_cast<std::size_t>(n_in)),
        out(noise(len, 64)) {}

  const double* row(const std::vector<double>& plane, extent_t j) const {
    return plane.data() + static_cast<std::size_t>(j) * static_cast<std::size_t>(n);
  }
};

template <bool kAccumulate>
void fused_rows(const Backend& be, benchmark::State& state) {
  const extent_t n = state.range(0);
  FusedSlab s(n);
  const sac::StencilCoeffs& c = kAccumulate ? kPsinv : kResid;
  for (auto _ : state) {
    for (extent_t j = 1; j < n - 1; ++j) {
      double* out = s.out.data() + static_cast<std::size_t>(j) *
                                       static_cast<std::size_t>(n);
      be.stencil_row(c.c.data(), s.row(s.pc, j), s.row(s.pm, j),
                     s.row(s.pp, j), s.row(s.pc, j - 1), s.row(s.pc, j + 1),
                     s.row(s.pm, j - 1), s.row(s.pm, j + 1),
                     s.row(s.pp, j - 1), s.row(s.pp, j + 1), s.u1.data(),
                     s.u2.data(), out, 1, n - 1, n, kAccumulate);
    }
    benchmark::DoNotOptimize(s.out.data());
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2));
}

// -- Kernel: whole relax_kernel under the selected backend --------------------

void kernel_resid(sac::BackendKind kind, const Backend* pin,
                  benchmark::State& state) {
  const extent_t n = state.range(0);
  sac::SacConfig cfg = sac::config();
  cfg.stencil_mode = sac::StencilMode::kPlanes;
  cfg.backend = kind;
  sac::ScopedConfig scoped(cfg);
  const sac::detail::ScopedSimdOverride pinned(pin);
  auto a = input_grid(n);
  for (auto _ : state) {
    auto r = sac::relax_kernel(a, kResid, sac::StencilMode::kPlanes);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2) * (n - 2));
}

struct Engine {
  const char* label;  // dimension value in benchmark names
  sac::BackendKind kind;
  const Backend* pin;  // the kSimd instance to pin, or nullptr
};

const Engine kEngines[] = {
    {"scalar", sac::BackendKind::kScalar, nullptr},
    {"simd", sac::BackendKind::kSimd, nullptr},
    {"portable", sac::BackendKind::kSimd, &sac::detail::portable_backend()},
    {"jit", sac::BackendKind::kJit, nullptr},
};

struct RowBench {
  const char* primitive;
  RowFn fn;
};

constexpr RowBench kRowBenches[] = {
    {"fill", row_fill},         {"copy", row_copy},
    {"plane_sums", row_plane_sums}, {"combine", row_combine},
    {"accumulate", row_accumulate}, {"add_into", row_add_into},
    {"sub_into", row_sub_into},
    {"mul_into", row_mul_into}, {"gather", row_gather},
    {"scatter", row_scatter},   {"sum_sq", row_sum_sq},
    {"max_abs", row_max_abs},
};

void register_benches() {
  for (const Engine& e : kEngines) {
    const Backend& be = e.pin != nullptr ? *e.pin : sac::backend_for(e.kind);
    for (const RowBench& rb : kRowBenches) {
      const std::string name =
          std::string("BM_BackendRow/") + rb.primitive + "/" + e.label;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [&be, fn = rb.fn](benchmark::State& st) { fn(be, st); })
          ->Arg(66)
          ->Unit(benchmark::kNanosecond);
    }
    benchmark::RegisterBenchmark(
        (std::string("BM_BackendFused/resid/") + e.label).c_str(),
        [&be](benchmark::State& st) { fused_rows<false>(be, st); })
        ->Arg(34)
        ->Arg(66)
        ->Arg(130)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        (std::string("BM_BackendFused/psinv/") + e.label).c_str(),
        [&be](benchmark::State& st) { fused_rows<true>(be, st); })
        ->Arg(34)
        ->Arg(66)
        ->Arg(130)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        (std::string("BM_BackendKernel/resid/") + e.label).c_str(),
        [&e](benchmark::State& st) { kernel_resid(e.kind, e.pin, st); })
        ->Arg(66)
        ->Unit(benchmark::kMillisecond);
  }
}

// Pre-issue every kernel key the jit benchmarks below will request, then
// drain the compile queue: the timed loops measure generated-code
// throughput, never source-to-dlopen latency.  Sync compilation is forced
// unless the caller already chose (overwrite=0), so a cold cache warms in
// one pass either way.
void warm_jit() {
  ::setenv("SACPP_JIT_SYNC", "1", /*overwrite=*/0);
  const Backend& be = sac::backend_for(sac::BackendKind::kJit);
  for (const extent_t n : {extent_t{34}, extent_t{66}, extent_t{130}}) {
    FusedSlab s(n);
    for (const bool acc : {false, true}) {
      const sac::StencilCoeffs& c = acc ? kPsinv : kResid;
      be.stencil_row(c.c.data(), s.row(s.pc, 1), s.row(s.pm, 1),
                     s.row(s.pp, 1), s.row(s.pc, 0), s.row(s.pc, 2),
                     s.row(s.pm, 0), s.row(s.pm, 2), s.row(s.pp, 0),
                     s.row(s.pp, 2), s.u1.data(), s.u2.data(),
                     s.out.data() + static_cast<std::size_t>(n), 1, n - 1, n,
                     acc);
    }
  }
  {
    const extent_t n = 66;
    const std::size_t len = static_cast<std::size_t>(n);
    const auto a = noise(len, 91);
    std::vector<double> out = noise(len, 92);
    std::vector<double> u1(len), u2(len);
    const auto s2 = noise(2 * len, 93);
    std::vector<double> wide(2 * len);
    be.plane_sums(a.data(), a.data(), a.data(), a.data(), a.data(), a.data(),
                  a.data(), a.data(), u1.data(), u2.data(), n);
    be.combine_row(kResid.c.data(), a.data(), u1.data(), u2.data(),
                   out.data(), 1, n - 1);
    be.accumulate_row(kPsinv.c.data(), a.data(), u1.data(), u2.data(),
                      out.data(), 1, n - 1);
    be.add_into_row(a.data(), out.data(), 0, n);
    be.sub_into_row(a.data(), out.data(), 0, n);
    be.mul_into_row(a.data(), out.data(), 0, n);
    be.gather_row(out.data(), s2.data(), 2, n);
    be.scatter_row(wide.data(), 2, a.data(), n);
    benchmark::DoNotOptimize(be.sum_sq_row(0.0, a.data(), 0, n));
    benchmark::DoNotOptimize(be.max_abs_row(0.0, a.data(), 0, n));
  }
  {
    // The end-to-end kernel family: run it once so every row shape the
    // with-loop engine issues at n = 66 (boundary sub-ranges included) has
    // its kernel before timing starts.
    sac::SacConfig cfg = sac::config();
    cfg.stencil_mode = sac::StencilMode::kPlanes;
    cfg.backend = sac::BackendKind::kJit;
    sac::ScopedConfig scoped(cfg);
    auto a = input_grid(66);
    auto r = sac::relax_kernel(a, kResid, sac::StencilMode::kPlanes);
    benchmark::DoNotOptimize(r.data());
  }
  sac::jit::drain();
}

}  // namespace

int main(int argc, char** argv) {
  warm_jit();
  register_benches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
