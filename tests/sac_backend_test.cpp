// Cross-backend differential battery for the pluggable row-primitive
// engines (docs/backends.md).
//
// The contract under test: every element-parallel primitive (fill, copy,
// plane sums, stencil combines, ewise merges, gather, scatter) is bitwise
// identical across kScalar, kSimd, kSimdPortable and kJit; the two folds
// (sum-of-squares, max-abs) may reassociate but agree to 1e-12 relative —
// and the AVX-512, AVX2, portable and JIT engines agree with EACH OTHER
// bit for bit, so kSimd/kJit results are host-independent and pinnable.
//
// Row lengths are drawn adversarially around the vector widths
// (1, 3, 4, 5, w-1, w, w+1, primes) with random sub-ranges including empty
// ones, hunting masked-tail and degenerate-extent bugs.
//
// The kJit battery runs with SACPP_JIT_SYNC=1 so every row call sees its
// compiled kernel immediately; lengths come from a small pool so the suite
// compiles a bounded kernel set while the row data still varies per round.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/jit.hpp"
#include "sacpp/sac/periodic_stencil.hpp"
#include "sacpp/sac/sac.hpp"
#include "sacpp/sac/stats.hpp"

namespace sacpp::sac {
namespace {

Array<double> random_array(const Shape& shp, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  return with_genarray<double>(shp,
                               [&](const IndexVec&) { return dist(rng); });
}

constexpr StencilCoeffs kTestCoeffs{{-0.5, 0.125, 0.0625, 0.03125}};

// Engines under test: scalar is the reference; the portable 4-lane engine
// always exists; the AVX2/AVX-512 engines only on hosts with the ISA.
std::vector<const Backend*> all_engines() {
  std::vector<const Backend*> v{&detail::scalar_backend(),
                                &detail::portable_backend()};
  if (detail::avx2_backend() != nullptr) v.push_back(detail::avx2_backend());
  if (detail::avx512_backend() != nullptr) {
    v.push_back(detail::avx512_backend());
  }
  return v;
}

std::vector<double> random_row(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> dist(-8.0, 8.0);
  std::vector<double> r(n);
  for (double& x : r) x = dist(rng);
  return r;
}

// Adversarial row lengths around the vector width.
extent_t random_length(std::mt19937_64& rng) {
  static constexpr extent_t kPool[] = {1,  2,  3,  4,  5,  7,  8,  9,
                                       11, 13, 16, 17, 23, 31, 32, 33,
                                       37, 61, 64, 67, 97, 128};
  std::uniform_int_distribution<std::size_t> pick(
      0, std::size(kPool) - 1);
  return kPool[pick(rng)];
}

struct RowCase {
  extent_t n;       // row length
  extent_t lo, hi;  // sub-range, possibly empty
};

RowCase random_case(std::mt19937_64& rng) {
  RowCase c;
  c.n = random_length(rng);
  std::uniform_int_distribution<extent_t> bound(0, c.n);
  c.lo = bound(rng);
  c.hi = bound(rng);
  if (c.hi < c.lo) std::swap(c.lo, c.hi);
  return c;
}

constexpr int kRounds = 200;

TEST(BackendRegistry, KindsResolveAndReportLanes) {
  EXPECT_STREQ(backend_for(BackendKind::kScalar).name(), "scalar");
  EXPECT_EQ(backend_for(BackendKind::kScalar).lanes(), 1u);
  EXPECT_FALSE(backend_for(BackendKind::kScalar).vectorized());
  EXPECT_STREQ(backend_for(BackendKind::kSimdPortable).name(), "portable");
  EXPECT_EQ(backend_for(BackendKind::kSimdPortable).lanes(), 4u);
  EXPECT_TRUE(backend_for(BackendKind::kSimdPortable).vectorized());
  // kSimd resolves widest-first: AVX-512, then AVX2, then portable.
  const Backend& simd = backend_for(BackendKind::kSimd);
  EXPECT_TRUE(simd.vectorized());
  if (cpu_has_avx512()) {
    EXPECT_STREQ(simd.name(), "avx512");
    EXPECT_EQ(simd.lanes(), 8u);
  } else if (cpu_has_avx2()) {
    EXPECT_STREQ(simd.name(), "avx2");
    EXPECT_EQ(simd.lanes(), 4u);
  } else {
    EXPECT_STREQ(simd.name(), "portable");
    EXPECT_EQ(simd.lanes(), 4u);
  }
  // kJit wraps the resolved kSimd engine as its fallback.
  const Backend& jit = backend_for(BackendKind::kJit);
  EXPECT_STREQ(jit.name(), "jit");
  EXPECT_TRUE(jit.vectorized());
  EXPECT_TRUE(jit.jit());
  EXPECT_FALSE(simd.jit());
  EXPECT_EQ(jit.lanes(), simd.lanes());
}

TEST(BackendRegistry, KindNamesRoundTripThroughParser) {
  for (const BackendKind k : kAllBackendKinds) {
    BackendKind parsed{};
    ASSERT_TRUE(parse_backend(backend_name(k), &parsed)) << backend_name(k);
    EXPECT_EQ(parsed, k);
  }
  BackendKind parsed{};
  EXPECT_FALSE(parse_backend("sse9", &parsed));
  // The registry-driven name list is what --backend help/errors print.
  EXPECT_EQ(backend_names(), "scalar | simd | simd-portable | jit");
}

// -- per-primitive differential sweeps --------------------------------------

TEST(BackendRows, FillCopyBitIdenticalAcrossEngines) {
  std::mt19937_64 rng(101);
  const auto engines = all_engines();
  for (int round = 0; round < kRounds; ++round) {
    const RowCase c = random_case(rng);
    const auto src = random_row(rng, static_cast<std::size_t>(c.n));
    const double v = static_cast<double>(round) * 0.37 - 3.0;
    std::vector<std::vector<double>> fills, copies;
    for (const Backend* be : engines) {
      std::vector<double> f(static_cast<std::size_t>(c.n), -99.0);
      be->fill_row(f.data(), c.lo, c.hi, v);
      fills.push_back(std::move(f));
      std::vector<double> cp(static_cast<std::size_t>(c.n), -99.0);
      be->copy_row(cp.data(), src.data(), c.lo, c.hi);
      copies.push_back(std::move(cp));
    }
    for (std::size_t e = 1; e < engines.size(); ++e) {
      ASSERT_EQ(fills[e], fills[0]) << engines[e]->name() << " n=" << c.n
                                    << " [" << c.lo << "," << c.hi << ")";
      ASSERT_EQ(copies[e], copies[0]) << engines[e]->name() << " n=" << c.n;
    }
  }
}

TEST(BackendRows, PlaneSumsBitIdenticalAcrossEngines) {
  std::mt19937_64 rng(102);
  const auto engines = all_engines();
  for (int round = 0; round < kRounds; ++round) {
    const extent_t n = random_length(rng);
    std::vector<std::vector<double>> in;
    in.reserve(8);
    for (int r = 0; r < 8; ++r) {
      in.push_back(random_row(rng, static_cast<std::size_t>(n)));
    }
    std::vector<std::vector<double>> u1s, u2s;
    for (const Backend* be : engines) {
      std::vector<double> u1(static_cast<std::size_t>(n), -99.0);
      std::vector<double> u2(static_cast<std::size_t>(n), -99.0);
      be->plane_sums(in[0].data(), in[1].data(), in[2].data(), in[3].data(),
                     in[4].data(), in[5].data(), in[6].data(), in[7].data(),
                     u1.data(), u2.data(), n);
      u1s.push_back(std::move(u1));
      u2s.push_back(std::move(u2));
    }
    for (std::size_t e = 1; e < engines.size(); ++e) {
      ASSERT_EQ(u1s[e], u1s[0]) << engines[e]->name() << " n=" << n;
      ASSERT_EQ(u2s[e], u2s[0]) << engines[e]->name() << " n=" << n;
    }
  }
}

TEST(BackendRows, CombineAndAccumulateBitIdenticalAcrossEngines) {
  std::mt19937_64 rng(103);
  const auto engines = all_engines();
  for (int round = 0; round < kRounds; ++round) {
    const extent_t n = random_length(rng) + 2;  // room for the [lo-1, hi+1) reads
    const auto uc = random_row(rng, static_cast<std::size_t>(n));
    const auto u1 = random_row(rng, static_cast<std::size_t>(n));
    const auto u2 = random_row(rng, static_cast<std::size_t>(n));
    // Interior sub-range: the combine contract needs lo-1 / hi readable.
    std::uniform_int_distribution<extent_t> bound(1, n - 1);
    extent_t lo = bound(rng), hi = bound(rng);
    if (hi < lo) std::swap(lo, hi);
    std::vector<std::vector<double>> outs, accs;
    for (const Backend* be : engines) {
      std::vector<double> o(static_cast<std::size_t>(n), -99.0);
      be->combine_row(kTestCoeffs.c.data(), uc.data(), u1.data(), u2.data(),
                      o.data(), lo, hi);
      outs.push_back(std::move(o));
      std::vector<double> a(static_cast<std::size_t>(n), 0.5);
      be->accumulate_row(kTestCoeffs.c.data(), uc.data(), u1.data(),
                         u2.data(), a.data(), lo, hi);
      accs.push_back(std::move(a));
    }
    for (std::size_t e = 1; e < engines.size(); ++e) {
      ASSERT_EQ(outs[e], outs[0]) << engines[e]->name() << " n=" << n
                                  << " [" << lo << "," << hi << ")";
      ASSERT_EQ(accs[e], accs[0]) << engines[e]->name() << " n=" << n;
    }
  }
}

TEST(BackendRows, EwiseMergesBitIdenticalAcrossEngines) {
  std::mt19937_64 rng(104);
  const auto engines = all_engines();
  for (int round = 0; round < kRounds; ++round) {
    const RowCase c = random_case(rng);
    const auto a = random_row(rng, static_cast<std::size_t>(c.n));
    const auto base = random_row(rng, static_cast<std::size_t>(c.n));
    for (int op = 0; op < 3; ++op) {
      std::vector<std::vector<double>> outs;
      for (const Backend* be : engines) {
        std::vector<double> o = base;
        if (op == 0) be->add_into_row(a.data(), o.data(), c.lo, c.hi);
        if (op == 1) be->sub_into_row(a.data(), o.data(), c.lo, c.hi);
        if (op == 2) be->mul_into_row(a.data(), o.data(), c.lo, c.hi);
        outs.push_back(std::move(o));
      }
      for (std::size_t e = 1; e < engines.size(); ++e) {
        ASSERT_EQ(outs[e], outs[0])
            << engines[e]->name() << " op=" << op << " n=" << c.n;
      }
    }
  }
}

TEST(BackendRows, GatherScatterBitIdenticalAcrossEngines) {
  std::mt19937_64 rng(105);
  const auto engines = all_engines();
  for (int round = 0; round < kRounds; ++round) {
    const extent_t count = random_length(rng);
    std::uniform_int_distribution<extent_t> stride_pick(1, 5);
    const extent_t stride = stride_pick(rng);
    const auto src =
        random_row(rng, static_cast<std::size_t>(count * stride));
    std::vector<std::vector<double>> gathers, scatters;
    for (const Backend* be : engines) {
      std::vector<double> g(static_cast<std::size_t>(count), -99.0);
      be->gather_row(g.data(), src.data(), stride, count);
      gathers.push_back(std::move(g));
      std::vector<double> s(static_cast<std::size_t>(count * stride), -99.0);
      be->scatter_row(s.data(), stride, src.data(), count);
      scatters.push_back(std::move(s));
    }
    for (std::size_t e = 1; e < engines.size(); ++e) {
      ASSERT_EQ(gathers[e], gathers[0])
          << engines[e]->name() << " stride=" << stride;
      ASSERT_EQ(scatters[e], scatters[0])
          << engines[e]->name() << " stride=" << stride;
    }
  }
}

TEST(BackendFolds, AgreeWithScalarToTolAndAcrossSimdEnginesExactly) {
  std::mt19937_64 rng(106);
  const Backend& sc = detail::scalar_backend();
  const Backend& po = detail::portable_backend();
  const Backend* avx = detail::avx2_backend();
  for (int round = 0; round < kRounds; ++round) {
    const RowCase c = random_case(rng);
    const auto p = random_row(rng, static_cast<std::size_t>(c.n));
    const double acc0 = round * 0.013;

    const double ss_sc = sc.sum_sq_row(acc0, p.data(), c.lo, c.hi);
    const double ss_po = po.sum_sq_row(acc0, p.data(), c.lo, c.hi);
    ASSERT_NEAR(ss_po, ss_sc, 1e-12 * std::max(1.0, std::fabs(ss_sc)))
        << "n=" << c.n << " [" << c.lo << "," << c.hi << ")";

    // max is association-insensitive: exact across every engine.
    const double ma_sc = sc.max_abs_row(acc0, p.data(), c.lo, c.hi);
    const double ma_po = po.max_abs_row(acc0, p.data(), c.lo, c.hi);
    ASSERT_EQ(ma_po, ma_sc) << "n=" << c.n;

    if (avx != nullptr) {
      // AVX2 mirrors the portable lane structure bit for bit.
      ASSERT_EQ(avx->sum_sq_row(acc0, p.data(), c.lo, c.hi), ss_po)
          << "n=" << c.n << " [" << c.lo << "," << c.hi << ")";
      ASSERT_EQ(avx->max_abs_row(acc0, p.data(), c.lo, c.hi), ma_po)
          << "n=" << c.n;
    }
    if (const Backend* a512 = detail::avx512_backend()) {
      // The AVX-512 engine keeps the 4-lane fold contract, not 8 lanes.
      ASSERT_EQ(a512->sum_sq_row(acc0, p.data(), c.lo, c.hi), ss_po)
          << "n=" << c.n << " [" << c.lo << "," << c.hi << ")";
      ASSERT_EQ(a512->max_abs_row(acc0, p.data(), c.lo, c.hi), ma_po)
          << "n=" << c.n;
    }
  }
}

// -- whole-kernel differential sweeps ---------------------------------------

Array<double> run_relax(const Array<double>& a, BackendKind backend,
                        bool periodic, int threads = 0) {
  SacConfig cfg = config();
  cfg.stencil_mode = StencilMode::kPlanes;
  cfg.stencil_planes_cutover = 0;
  cfg.backend = backend;
  if (threads > 0) {
    cfg.mt_enabled = true;
    cfg.mt_threads = threads;
    cfg.mt_threshold = 1;
  }
  ScopedConfig guard(cfg);
  return periodic
             ? relax_kernel_periodic(a, kTestCoeffs, StencilMode::kPlanes)
             : relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);
}

TEST(BackendKernels, PlanesRelaxBitIdenticalAcrossBackends) {
  // Stencil rows are element-parallel in every backend, so whole sweeps are
  // bitwise equal — fixed and periodic boundaries, odd extents included.
  for (const Shape& shp :
       {Shape{6, 7, 9}, Shape{5, 5, 4}, Shape{8, 6, 19}, Shape{4, 9, 33}}) {
    auto a = random_array(shp, 71);
    for (const bool periodic : {false, true}) {
      auto scalar = run_relax(a, BackendKind::kScalar, periodic);
      auto simd = run_relax(a, BackendKind::kSimd, periodic);
      auto portable = run_relax(a, BackendKind::kSimdPortable, periodic);
      for (extent_t i = 0; i < scalar.elem_count(); ++i) {
        ASSERT_EQ(simd.at_linear(i), scalar.at_linear(i))
            << (periodic ? "periodic " : "fixed ") << i;
        ASSERT_EQ(portable.at_linear(i), scalar.at_linear(i))
            << (periodic ? "periodic " : "fixed ") << i;
      }
    }
  }
}

TEST(BackendKernels, MultithreadedRunsAreBitwiseDeterministicPerBackend) {
  const Shape shp{24, 24, 24};
  auto a = random_array(shp, 73);
  for (const BackendKind kind :
       {BackendKind::kScalar, BackendKind::kSimd,
        BackendKind::kSimdPortable}) {
    auto serial = run_relax(a, kind, /*periodic=*/false);
    auto mt1 = run_relax(a, kind, /*periodic=*/false, /*threads=*/4);
    auto mt2 = run_relax(a, kind, /*periodic=*/false, /*threads=*/4);
    for (extent_t i = 0; i < serial.elem_count(); ++i) {
      ASSERT_EQ(mt1.at_linear(i), serial.at_linear(i))
          << backend_name(kind) << " " << i;
      ASSERT_EQ(mt2.at_linear(i), mt1.at_linear(i))
          << backend_name(kind) << " " << i;
    }
  }
}

TEST(BackendKernels, GatherRowPathsMatchPerPointEvaluation) {
  // Structural ops over concrete arrays ride the backend gather/scatter row
  // primitives; pure data movement must be bit-identical in every backend
  // and equal to the scalar per-point reference.
  std::mt19937_64 rng(75);
  for (int round = 0; round < 24; ++round) {
    const extent_t n0 = 2 + static_cast<extent_t>(round % 5);
    const Shape shp{n0 * 2, 6, random_length(rng) + 2};
    auto a = random_array(shp, 77 + static_cast<unsigned>(round));
    Array<double> ref_c, ref_s, ref_t, ref_e;
    {
      SacConfig cfg = config();
      cfg.backend = BackendKind::kScalar;
      ScopedConfig guard(cfg);
      ref_c = condense(2, a);
      ref_s = scatter(3, condense(2, a));
      ref_t = take({shp[0] / 2, 3, shp[2] / 2}, a);
      ref_e = embed(IndexVec{shp[0] + 3, shp[1] + 1, shp[2] + 5},
                    IndexVec{2, 1, 3}, a);
    }
    for (const BackendKind kind :
         {BackendKind::kSimd, BackendKind::kSimdPortable}) {
      SacConfig cfg = config();
      cfg.backend = kind;
      ScopedConfig guard(cfg);
      auto c = condense(2, a);
      auto s = scatter(3, condense(2, a));
      auto t = take({shp[0] / 2, 3, shp[2] / 2}, a);
      auto e = embed(IndexVec{shp[0] + 3, shp[1] + 1, shp[2] + 5},
                     IndexVec{2, 1, 3}, a);
      for (extent_t i = 0; i < ref_c.elem_count(); ++i) {
        ASSERT_EQ(c.at_linear(i), ref_c.at_linear(i)) << backend_name(kind);
      }
      for (extent_t i = 0; i < ref_s.elem_count(); ++i) {
        ASSERT_EQ(s.at_linear(i), ref_s.at_linear(i)) << backend_name(kind);
      }
      for (extent_t i = 0; i < ref_t.elem_count(); ++i) {
        ASSERT_EQ(t.at_linear(i), ref_t.at_linear(i)) << backend_name(kind);
      }
      for (extent_t i = 0; i < ref_e.elem_count(); ++i) {
        ASSERT_EQ(e.at_linear(i), ref_e.at_linear(i)) << backend_name(kind);
      }
    }
  }
}

TEST(BackendKernels, FusedRestrictionRowPathMatchesPerPointToTol) {
  // condense(2, stencil) under a vectorized backend runs the stencil's ROW
  // evaluator (planes association) where per-point evaluation groups by
  // class — equal to 1e-12, and bit-identical between the simd engines.
  const Shape shp{10, 10, 18};
  auto a = random_array(shp, 79);
  SacConfig cfg = config();
  cfg.stencil_mode = StencilMode::kPlanes;
  cfg.stencil_planes_cutover = 0;
  auto run = [&](BackendKind kind) {
    SacConfig c = cfg;
    c.backend = kind;
    ScopedConfig guard(c);
    return force(
        lazy_condense(2, StencilExpr(a, kTestCoeffs, StencilMode::kPlanes)));
  };
  auto scalar = run(BackendKind::kScalar);
  auto simd = run(BackendKind::kSimd);
  auto portable = run(BackendKind::kSimdPortable);
  for (extent_t i = 0; i < scalar.elem_count(); ++i) {
    ASSERT_NEAR(simd.at_linear(i), scalar.at_linear(i), 1e-12) << i;
    ASSERT_EQ(portable.at_linear(i), simd.at_linear(i)) << i;
  }
}

TEST(BackendFolds, WholeArrayFoldsAgreeAndSimdEnginesMatchExactly) {
  const Shape shp{12, 13, 21};
  auto r = random_array(shp, 83);
  auto run_ss = [&](BackendKind kind) {
    SacConfig cfg = config();
    cfg.backend = kind;
    ScopedConfig guard(cfg);
    return with_fold(std::plus<>{}, 0.0, r.shape(), gen_interior(r.shape()),
                     sum_sq_rows(r));
  };
  auto run_ma = [&](BackendKind kind) {
    SacConfig cfg = config();
    cfg.backend = kind;
    ScopedConfig guard(cfg);
    return max_abs(r);
  };
  const double ss_scalar = run_ss(BackendKind::kScalar);
  const double ss_simd = run_ss(BackendKind::kSimd);
  EXPECT_NEAR(ss_simd / ss_scalar, 1.0, 1e-12);
  EXPECT_EQ(run_ss(BackendKind::kSimdPortable), ss_simd);
  const double ma_scalar = run_ma(BackendKind::kScalar);
  EXPECT_EQ(run_ma(BackendKind::kSimd), ma_scalar);
  EXPECT_EQ(run_ma(BackendKind::kSimdPortable), ma_scalar);
}

// -- kJit differential battery ----------------------------------------------
//
// Sync-compile battery: SACPP_JIT_SYNC=1 makes jit::request compile on the
// calling thread, so the first row call already runs generated code.  Row
// lengths come from a bounded pool (all >= the dispatch cutoff) so the
// suite compiles a fixed set of kernels while the data varies per round.

constexpr extent_t kJitLengths[] = {16, 17, 33, 64, 128};
constexpr int kJitRounds = 8;  // data rounds per length; kernels compile once

class BackendJit : public ::testing::Test {
 protected:
  void SetUp() override {
    ::setenv("SACPP_JIT_SYNC", "1", 1);
    ::unsetenv("SACPP_JIT_CC");
    ::unsetenv("SACPP_JIT_CACHE_DIR");
    jit::testing::reset();
    // Probe: one eligible row proves the host toolchain works; without one
    // the engine degrades (by design) and this battery has nothing to test.
    double a[16] = {0}, o[16] = {0};
    backend_for(BackendKind::kJit).add_into_row(a, o, 0, 16);
    if (!jit::available()) {
      GTEST_SKIP() << "host toolchain unavailable; jit degraded to simd";
    }
  }
  void TearDown() override {
    ::unsetenv("SACPP_JIT_SYNC");
    ::unsetenv("SACPP_JIT_CACHE_DIR");
    jit::testing::reset();
  }
};

TEST_F(BackendJit, ElementParallelRowsBitIdenticalToScalar) {
  std::mt19937_64 rng(301);
  const Backend& sc = detail::scalar_backend();
  const Backend& be = backend_for(BackendKind::kJit);
  reset_stats();
  for (const extent_t n : kJitLengths) {
    for (int round = 0; round < kJitRounds; ++round) {
      const auto uc = random_row(rng, static_cast<std::size_t>(n));
      const auto u1 = random_row(rng, static_cast<std::size_t>(n));
      const auto u2 = random_row(rng, static_cast<std::size_t>(n));
      const extent_t lo = 1, hi = n - 1;

      std::vector<double> o_sc(static_cast<std::size_t>(n), -99.0);
      std::vector<double> o_jit = o_sc;
      sc.combine_row(kTestCoeffs.c.data(), uc.data(), u1.data(), u2.data(),
                     o_sc.data(), lo, hi);
      be.combine_row(kTestCoeffs.c.data(), uc.data(), u1.data(), u2.data(),
                     o_jit.data(), lo, hi);
      ASSERT_EQ(o_jit, o_sc) << "combine n=" << n;

      std::vector<double> a_sc(static_cast<std::size_t>(n), 0.5);
      std::vector<double> a_jit = a_sc;
      sc.accumulate_row(kTestCoeffs.c.data(), uc.data(), u1.data(),
                        u2.data(), a_sc.data(), lo, hi);
      be.accumulate_row(kTestCoeffs.c.data(), uc.data(), u1.data(),
                        u2.data(), a_jit.data(), lo, hi);
      ASSERT_EQ(a_jit, a_sc) << "accumulate n=" << n;

      std::vector<std::vector<double>> in;
      for (int r = 0; r < 8; ++r) {
        in.push_back(random_row(rng, static_cast<std::size_t>(n)));
      }
      std::vector<double> p1_sc(static_cast<std::size_t>(n)),
          p2_sc(static_cast<std::size_t>(n));
      auto p1_jit = p1_sc, p2_jit = p2_sc;
      sc.plane_sums(in[0].data(), in[1].data(), in[2].data(), in[3].data(),
                    in[4].data(), in[5].data(), in[6].data(), in[7].data(),
                    p1_sc.data(), p2_sc.data(), n);
      be.plane_sums(in[0].data(), in[1].data(), in[2].data(), in[3].data(),
                    in[4].data(), in[5].data(), in[6].data(), in[7].data(),
                    p1_jit.data(), p2_jit.data(), n);
      ASSERT_EQ(p1_jit, p1_sc) << "plane_sums n=" << n;
      ASSERT_EQ(p2_jit, p2_sc) << "plane_sums n=" << n;

      for (const bool accumulate : {false, true}) {
        std::vector<double> s_sc(static_cast<std::size_t>(n), 0.25);
        std::vector<double> s_jit = s_sc;
        std::vector<double> w1(static_cast<std::size_t>(n)),
            w2(static_cast<std::size_t>(n));
        sc.stencil_row(kTestCoeffs.c.data(), uc.data(), in[0].data(),
                       in[1].data(), in[2].data(), in[3].data(),
                       in[4].data(), in[5].data(), in[6].data(),
                       in[7].data(), w1.data(), w2.data(), s_sc.data(), lo,
                       hi, n, accumulate);
        be.stencil_row(kTestCoeffs.c.data(), uc.data(), in[0].data(),
                       in[1].data(), in[2].data(), in[3].data(),
                       in[4].data(), in[5].data(), in[6].data(),
                       in[7].data(), w1.data(), w2.data(), s_jit.data(), lo,
                       hi, n, accumulate);
        ASSERT_EQ(s_jit, s_sc) << "stencil_row acc=" << accumulate
                               << " n=" << n;
      }

      const auto av = random_row(rng, static_cast<std::size_t>(n));
      const auto base = random_row(rng, static_cast<std::size_t>(n));
      for (int op = 0; op < 3; ++op) {
        std::vector<double> e_sc = base, e_jit = base;
        if (op == 0) {
          sc.add_into_row(av.data(), e_sc.data(), 0, n);
          be.add_into_row(av.data(), e_jit.data(), 0, n);
        } else if (op == 1) {
          sc.sub_into_row(av.data(), e_sc.data(), 0, n);
          be.sub_into_row(av.data(), e_jit.data(), 0, n);
        } else {
          sc.mul_into_row(av.data(), e_sc.data(), 0, n);
          be.mul_into_row(av.data(), e_jit.data(), 0, n);
        }
        ASSERT_EQ(e_jit, e_sc) << "ewise op=" << op << " n=" << n;
      }

      const extent_t stride = 3;
      const auto src = random_row(rng, static_cast<std::size_t>(n * stride));
      std::vector<double> g_sc(static_cast<std::size_t>(n), -99.0);
      std::vector<double> g_jit = g_sc;
      sc.gather_row(g_sc.data(), src.data(), stride, n);
      be.gather_row(g_jit.data(), src.data(), stride, n);
      ASSERT_EQ(g_jit, g_sc) << "gather n=" << n;
      std::vector<double> t_sc(static_cast<std::size_t>(n * stride), -99.0);
      std::vector<double> t_jit = t_sc;
      sc.scatter_row(t_sc.data(), stride, src.data(), n);
      be.scatter_row(t_jit.data(), stride, src.data(), n);
      ASSERT_EQ(t_jit, t_sc) << "scatter n=" << n;
    }
  }
  // The battery must have exercised generated code, not just the fallback.
  // (Some combine calls DO fall back: their sub-range n-2 sits below the
  // dispatch cutoff for the two shortest pool lengths — by design.)
  EXPECT_GT(stats().jit_kernel_calls, 0u);
}

TEST_F(BackendJit, StencilRowElidesZeroCoeffTermsExactly) {
  // The MG operators carry one exactly-zero coefficient each (resid c1,
  // psinv c3); codegen drops those terms.  On the nonzero data below the
  // elision is exact, so outputs stay bitwise equal to scalar.
  const double kResid[4] = {-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0};
  const double kPsinv[4] = {-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0};
  std::mt19937_64 rng(303);
  const Backend& sc = detail::scalar_backend();
  const Backend& be = backend_for(BackendKind::kJit);
  const extent_t n = 67, lo = 1, hi = n - 1;
  const auto uc = random_row(rng, static_cast<std::size_t>(n));
  std::vector<std::vector<double>> in;
  for (int r = 0; r < 8; ++r) {
    in.push_back(random_row(rng, static_cast<std::size_t>(n)));
  }
  std::vector<double> w1(static_cast<std::size_t>(n)),
      w2(static_cast<std::size_t>(n));
  for (const double* c : {kResid, kPsinv}) {
    for (const bool accumulate : {false, true}) {
      std::vector<double> o_sc(static_cast<std::size_t>(n), 0.125);
      std::vector<double> o_jit = o_sc;
      sc.stencil_row(c, uc.data(), in[0].data(), in[1].data(), in[2].data(),
                     in[3].data(), in[4].data(), in[5].data(), in[6].data(),
                     in[7].data(), w1.data(), w2.data(), o_sc.data(), lo, hi,
                     n, accumulate);
      be.stencil_row(c, uc.data(), in[0].data(), in[1].data(), in[2].data(),
                     in[3].data(), in[4].data(), in[5].data(), in[6].data(),
                     in[7].data(), w1.data(), w2.data(), o_jit.data(), lo,
                     hi, n, accumulate);
      ASSERT_EQ(o_jit, o_sc) << (c == kResid ? "resid" : "psinv")
                             << " acc=" << accumulate;
    }
  }
}

TEST_F(BackendJit, FoldsMatchPortableExactlyAndScalarToTol) {
  std::mt19937_64 rng(305);
  const Backend& sc = detail::scalar_backend();
  const Backend& po = detail::portable_backend();
  const Backend& be = backend_for(BackendKind::kJit);
  for (const extent_t n : kJitLengths) {
    for (int round = 0; round < kJitRounds; ++round) {
      const auto p = random_row(rng, static_cast<std::size_t>(n));
      const double acc0 = round * 0.013;
      const double ss = be.sum_sq_row(acc0, p.data(), 0, n);
      // Generated folds replicate the portable 4-lane shape bit for bit.
      ASSERT_EQ(ss, po.sum_sq_row(acc0, p.data(), 0, n)) << "n=" << n;
      const double ss_sc = sc.sum_sq_row(acc0, p.data(), 0, n);
      ASSERT_NEAR(ss, ss_sc, 1e-12 * std::max(1.0, std::fabs(ss_sc)))
          << "n=" << n;
      ASSERT_EQ(be.max_abs_row(acc0, p.data(), 0, n),
                sc.max_abs_row(acc0, p.data(), 0, n))
          << "n=" << n;
    }
  }
}

TEST_F(BackendJit, ShortRowsFallBackToSimdAndTally) {
  const Backend& be = backend_for(BackendKind::kJit);
  const Backend& sc = detail::scalar_backend();
  std::mt19937_64 rng(307);
  const extent_t n = 8;  // below the dispatch cutoff
  const auto a = random_row(rng, static_cast<std::size_t>(n));
  std::vector<double> o_sc = a, o_jit = a;
  reset_stats();
  sc.add_into_row(a.data(), o_sc.data(), 0, n);
  be.add_into_row(a.data(), o_jit.data(), 0, n);
  EXPECT_EQ(o_jit, o_sc);
  EXPECT_EQ(stats().jit_kernel_calls, 0u);
  EXPECT_GT(stats().jit_fallback_calls, 0u);
}

TEST_F(BackendJit, DiskCachePersistsAndRehydratesWithoutRecompiling) {
  char tmpl[] = "/tmp/sacpp_jit_cache_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  ::setenv("SACPP_JIT_CACHE_DIR", dir, 1);
  jit::testing::reset();

  std::mt19937_64 rng(309);
  const extent_t n = 64;
  const auto a = random_row(rng, static_cast<std::size_t>(n));
  std::vector<double> o(static_cast<std::size_t>(n), 1.0);
  const Backend& be = backend_for(BackendKind::kJit);

  reset_stats();
  be.add_into_row(a.data(), o.data(), 0, n);
  EXPECT_GT(stats().jit_compiles, 0u);
  EXPECT_GT(stats().jit_kernel_calls, 0u);

  // The kernel must have landed on disk under its deterministic name.
  std::string found;
  {
    const std::string cmd =
        std::string("ls ") + dir + "/sacpp_jit_v1_*.so 2>/dev/null";
    FILE* ls = ::popen(cmd.c_str(), "r");
    ASSERT_NE(ls, nullptr);
    char buf[512];
    if (std::fgets(buf, sizeof buf, ls) != nullptr) found = buf;
    ::pclose(ls);
  }
  EXPECT_FALSE(found.empty()) << "no cached .so in " << dir;

  // Drop the in-memory table: the same key must rehydrate from disk —
  // counted as a disk hit, with no fresh compile.
  jit::testing::reset();
  reset_stats();
  be.add_into_row(a.data(), o.data(), 0, n);
  EXPECT_EQ(stats().jit_compiles, 0u);
  EXPECT_GT(stats().jit_disk_hits, 0u);
  EXPECT_GT(stats().jit_kernel_calls, 0u);
}

TEST_F(BackendJit, MissingCompilerDegradesToSimdWithIdenticalResults) {
  // Two broken toolchains: one that cannot be spawned, and one that "builds"
  // a file dlopen rejects (a script writing text to its -o path).
  const std::string fake_cc = ::testing::TempDir() + "sacpp_fake_cc_" +
                              std::to_string(::getpid()) + ".sh";
  {
    std::FILE* f = std::fopen(fake_cc.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "#!/bin/sh\n"
        "while [ $# -gt 0 ]; do\n"
        "  if [ \"$1\" = -o ]; then echo 'not an ELF object' > \"$2\"; fi\n"
        "  shift\n"
        "done\n",
        f);
    std::fclose(f);
    ASSERT_EQ(::chmod(fake_cc.c_str(), 0755), 0);
  }

  std::mt19937_64 rng(311);
  // A row length no other test compiles: dlopen answers a path this process
  // has already mapped from that mapping, without reading the new file.
  const extent_t n = 48;
  const auto a = random_row(rng, static_cast<std::size_t>(n));
  const auto base = random_row(rng, static_cast<std::size_t>(n));
  const Backend& be = backend_for(BackendKind::kJit);
  std::vector<double> o_simd = base;
  backend_for(BackendKind::kSimd).add_into_row(a.data(), o_simd.data(), 0, n);

  for (const std::string& cc :
       {std::string("/nonexistent/compiler"), fake_cc}) {
    ::setenv("SACPP_JIT_CC", cc.c_str(), 1);
    jit::testing::reset();
    reset_stats();
    std::vector<double> o_jit = base, o_again = base;
    ::testing::internal::CaptureStderr();
    be.add_into_row(a.data(), o_jit.data(), 0, n);
    be.add_into_row(a.data(), o_again.data(), 0, n);  // degraded: no retry
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(o_jit, o_simd) << cc;  // fallback keeps the bitwise contract
    EXPECT_EQ(o_again, o_simd) << cc;
    EXPECT_NE(err.find("sacpp jit:"), std::string::npos) << cc;
    EXPECT_EQ(err.find("sacpp jit:"), err.rfind("sacpp jit:"))
        << cc << ": one diagnostic, got " << err;
    EXPECT_GT(stats().jit_compile_fails, 0u) << cc;
    EXPECT_EQ(stats().jit_kernel_calls, 0u) << cc;
    EXPECT_GT(stats().jit_fallback_calls, 0u) << cc;
    EXPECT_FALSE(jit::available()) << cc;
  }
  ::unlink(fake_cc.c_str());

  // Degradation is per-process state, re-armed by reset: with the override
  // gone the same key compiles and serves.
  ::unsetenv("SACPP_JIT_CC");
  jit::testing::reset();
  reset_stats();
  std::vector<double> o2 = base;
  be.add_into_row(a.data(), o2.data(), 0, n);
  EXPECT_EQ(o2, o_simd);
  EXPECT_GT(stats().jit_kernel_calls, 0u);
  EXPECT_TRUE(jit::available());
}

TEST(BackendStats, SimdRowTallyCountsVectorizedRowsOnly) {
  const Shape shp{20, 20, 20};
  auto a = random_array(shp, 89);
  {
    SacConfig cfg = config();
    cfg.stencil_mode = StencilMode::kPlanes;
    cfg.stencil_planes_cutover = 0;
    cfg.backend = BackendKind::kScalar;
    ScopedConfig guard(cfg);
    reset_stats();
    (void)relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);
    EXPECT_EQ(stats().backend_simd_rows, 0u);
  }
  {
    SacConfig cfg = config();
    cfg.stencil_mode = StencilMode::kPlanes;
    cfg.stencil_planes_cutover = 0;
    cfg.backend = BackendKind::kSimd;
    ScopedConfig guard(cfg);
    reset_stats();
    (void)relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);
    EXPECT_GT(stats().backend_simd_rows, 0u);
  }
}

}  // namespace
}  // namespace sacpp::sac
