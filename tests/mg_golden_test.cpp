// Golden-value regression battery: every MG variant, classes S and W, with
// the pooled allocator on and off, against checked-in reference residuals.
//
// The golden values are this reproduction's regenerated norms (all variants
// agree with the official NPB 2.3 class-S verification constant to the NPB
// tolerance; at class W the 40 iterations converge to the rounding floor,
// where each kernel ordering has its own reproducible round-off signature,
// hence per-variant values).  The assertions are far tighter than NPB's
// 1e-8 verification: 1e-12 relative, so any allocator change that corrupts
// or reorders numerics — a recycled buffer handed out dirty, an aliased
// block, a dropped write — fails loudly.  On top of that, pool-on runs must
// be bit-identical to pool-off runs: recycling memory must not change
// arithmetic at all.

#include <gtest/gtest.h>

#include <cmath>

#include <cstdlib>

#include "sacpp/mg/driver.hpp"
#include "sacpp/mg/mg_mpi.hpp"
#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/sac/jit.hpp"
#include "sacpp/sac/stats.hpp"

namespace sacpp::mg {
namespace {

// The official NPB 2.3 class-S verification constant (NPB's own tolerance
// is 1e-8 relative; our regenerated values sit within ~1e-13 of it).
constexpr double kNpbClassS = 0.5307707005734e-04;

struct GoldenCase {
  Variant variant;
  MgClass cls;
  double norm;  // regenerated on the reference host; see docs/memory.md
};

// clang-format off
constexpr GoldenCase kGolden[] = {
    {Variant::kSac,       MgClass::S, 5.30770700573490823e-05},
    {Variant::kFortran,   MgClass::S, 5.30770700573490891e-05},
    {Variant::kOpenMp,    MgClass::S, 5.30770700573490891e-05},
    {Variant::kSacDirect, MgClass::S, 5.30770700573490823e-05},
    {Variant::kSac,       MgClass::W, 3.20727265776402994e-18},
    {Variant::kFortran,   MgClass::W, 2.43573159008149673e-18},
    {Variant::kOpenMp,    MgClass::W, 2.43573159008149673e-18},
    {Variant::kSacDirect, MgClass::W, 3.20727265776402994e-18},
};
constexpr double kMpiGolden[] = {
    /*S=*/5.30770700573490552e-05,
    /*W=*/2.43573159008149673e-18,
};
// clang-format on

constexpr double kTol = 1e-12;  // relative

double run_final_norm(Variant variant, MgClass cls, bool pool) {
  sac::SacConfig cfg = sac::config();
  cfg.pool = pool;
  // Pin the stencil engine AND the backend: these goldens are the grouped
  // scalar signature, and a SACPP_STENCIL_MODE=planes or SACPP_BACKEND=simd
  // environment (the sanitizer CI jobs) must not silently retarget them.
  // Planes and simd have their own goldens below.
  cfg.stencil_mode = sac::StencilMode::kGrouped;
  cfg.backend = sac::BackendKind::kScalar;
  sac::ScopedConfig guard(cfg);
  RunOptions opts;
  opts.warmup = false;
  opts.record_norms = false;
  return run_benchmark(variant, MgSpec::for_class(cls), opts).final_norm;
}

double run_mpi_final_norm(MgClass cls, bool pool) {
  sac::SacConfig cfg = sac::config();
  cfg.pool = pool;
  sac::ScopedConfig guard(cfg);
  const MgSpec spec = MgSpec::for_class(cls);
  return MgMpi(spec, /*ranks=*/2).run(spec.nit, /*warmup=*/false).final_norm;
}

class GoldenNorm : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenNorm, MatchesWithPoolOffAndOn) {
  const GoldenCase& c = GetParam();
  const double off = run_final_norm(c.variant, c.cls, /*pool=*/false);
  EXPECT_NEAR(off / c.norm, 1.0, kTol)
      << variant_name(c.variant) << " pool=off norm " << off
      << " vs golden " << c.norm;

  // Recycled buffers must not change a single bit of the result.
  const double on = run_final_norm(c.variant, c.cls, /*pool=*/true);
  EXPECT_EQ(on, off) << variant_name(c.variant)
                     << ": pool on/off results diverged";
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, GoldenNorm, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenCase>& param_info) {
      std::string name = variant_name(param_info.param.variant);
      for (char& ch : name) {
        if (ch == '-' || ch == '/') ch = '_';
      }
      return name + (param_info.param.cls == MgClass::S ? "_S" : "_W");
    });

// kPlanes goldens.  The shared plane-sum engine (docs/stencil.md)
// reassociates each point's additions — class-1/2 rows are summed once and
// reused across the k loop — so unlike the pool toggle (which performs no
// arithmetic and must be bit-exact) planes results match the grouped goldens
// only to rounding: 1e-12 relative.  At class S that is well inside the
// tolerance, so the S rows below are the grouped constants.  At class W the
// 40 iterations converge to the rounding floor (~1e-18), where every
// summation order has its own reproducible signature, so the W rows are
// regenerated planes-specific constants.
// clang-format off
constexpr GoldenCase kPlanesGolden[] = {
    {Variant::kSac,       MgClass::S, 5.30770700573490823e-05},  // = grouped
    {Variant::kSacDirect, MgClass::S, 5.30770700573490823e-05},  // = grouped
    {Variant::kSac,       MgClass::W, 2.74493052790239970e-18},
    {Variant::kSacDirect, MgClass::W, 2.85476196186829163e-18},
};
// clang-format on

double run_planes_final_norm(Variant variant, MgClass cls, bool pool,
                             int threads = 0) {
  sac::SacConfig cfg = sac::config();
  cfg.pool = pool;
  cfg.stencil_mode = sac::StencilMode::kPlanes;
  cfg.backend = sac::BackendKind::kScalar;  // simd has its own goldens below
  if (threads > 0) {
    cfg.mt_enabled = true;
    cfg.mt_threads = threads;
  }
  sac::ScopedConfig guard(cfg);
  RunOptions opts;
  opts.warmup = false;
  opts.record_norms = false;
  return run_benchmark(variant, MgSpec::for_class(cls), opts).final_norm;
}

class PlanesGoldenNorm : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(PlanesGoldenNorm, MatchesWithPoolOffAndOn) {
  const GoldenCase& c = GetParam();
  const double off = run_planes_final_norm(c.variant, c.cls, /*pool=*/false);
  EXPECT_NEAR(off / c.norm, 1.0, kTol)
      << variant_name(c.variant) << " planes pool=off norm " << off
      << " vs golden " << c.norm;

  // Scratch rows come from the pool, but recycling still must not change
  // a single bit of the result.
  const double on = run_planes_final_norm(c.variant, c.cls, /*pool=*/true);
  EXPECT_EQ(on, off) << variant_name(c.variant)
                     << ": planes pool on/off results diverged";
}

INSTANTIATE_TEST_SUITE_P(
    SacVariants, PlanesGoldenNorm, ::testing::ValuesIn(kPlanesGolden),
    [](const ::testing::TestParamInfo<GoldenCase>& param_info) {
      std::string name = variant_name(param_info.param.variant);
      for (char& ch : name) {
        if (ch == '-' || ch == '/') ch = '_';
      }
      return name + (param_info.param.cls == MgClass::S ? "_S" : "_W");
    });

// Rows are computed independently, so the planes sweeps themselves are
// bitwise thread-invariant (sac_stencil_test proves that on relax_kernel);
// the full-benchmark norm is not, because the MT L2 reduction folds per-chunk
// partial sums — grouped mode drifts identically.  Hence golden tolerance
// here, not bitwise equality.
TEST(PlanesGoldenNorm, ClassSMatchesGoldenAcrossThreadCounts) {
  for (int threads = 1; threads <= 8; ++threads) {
    const double norm = run_planes_final_norm(Variant::kSac, MgClass::S,
                                              /*pool=*/false, threads);
    EXPECT_NEAR(norm / kGolden[0].norm, 1.0, kTol) << "threads=" << threads;
  }
}

// Backend goldens (docs/backends.md).  The vectorized backends keep every
// element-parallel primitive bit-identical to scalar and reassociate ONLY
// the L2 fold (four lanes, fixed combine order), so:
//   * f77 / omp never touch backend row primitives — under kSimd they must
//     equal the scalar constants bit for bit;
//   * sac / sac-direct match the scalar goldens to rounding at class S and
//     carry their own pinned constants at the class-W rounding floor;
//   * the AVX2 and baseline kSimd instances are bit-identical by
//     construction, so one constant covers kSimd on any host (the
//     differential battery in sac_backend_test proves the equivalence).
struct BackendGoldenCase {
  Variant variant;
  MgClass cls;
  sac::StencilMode mode;
  double norm;
};

// clang-format off
constexpr BackendGoldenCase kSimdGolden[] = {
    {Variant::kSac,       MgClass::S, sac::StencilMode::kGrouped, 5.30770700573490823e-05},
    {Variant::kFortran,   MgClass::S, sac::StencilMode::kGrouped, 5.30770700573490891e-05},
    {Variant::kOpenMp,    MgClass::S, sac::StencilMode::kGrouped, 5.30770700573490891e-05},
    {Variant::kSacDirect, MgClass::S, sac::StencilMode::kGrouped, 5.30770700573490823e-05},
    {Variant::kSac,       MgClass::S, sac::StencilMode::kPlanes,  5.30770700573490823e-05},
    {Variant::kSacDirect, MgClass::S, sac::StencilMode::kPlanes,  5.30770700573490823e-05},
    {Variant::kFortran,   MgClass::W, sac::StencilMode::kGrouped, 2.43573159008149673e-18},
    {Variant::kOpenMp,    MgClass::W, sac::StencilMode::kGrouped, 2.43573159008149673e-18},
    {Variant::kSac,       MgClass::W, sac::StencilMode::kGrouped, 3.20727265776402994e-18},
    {Variant::kSacDirect, MgClass::W, sac::StencilMode::kGrouped, 3.20727265776402994e-18},
    {Variant::kSac,       MgClass::W, sac::StencilMode::kPlanes,  2.77739287704745898e-18},
    {Variant::kSacDirect, MgClass::W, sac::StencilMode::kPlanes,  2.71711919120625163e-18},
};
// clang-format on

double run_backend_final_norm(Variant variant, MgClass cls,
                              sac::BackendKind backend, sac::StencilMode mode,
                              bool pool = false) {
  sac::SacConfig cfg = sac::config();
  cfg.pool = pool;
  cfg.stencil_mode = mode;
  cfg.backend = backend;
  sac::ScopedConfig guard(cfg);
  RunOptions opts;
  opts.warmup = false;
  opts.record_norms = false;
  return run_benchmark(variant, MgSpec::for_class(cls), opts).final_norm;
}

class SimdGoldenNorm : public ::testing::TestWithParam<BackendGoldenCase> {};

TEST_P(SimdGoldenNorm, MatchesPinnedConstant) {
  const BackendGoldenCase& c = GetParam();
  const double simd = run_backend_final_norm(c.variant, c.cls,
                                             sac::BackendKind::kSimd, c.mode);
  EXPECT_NEAR(simd / c.norm, 1.0, kTol)
      << variant_name(c.variant) << " simd norm " << simd << " vs golden "
      << c.norm;

  // The baseline kSimd instance runs the same source as the AVX2 one, so
  // pinning kSimd to it must not change a single bit of the result.
  const sac::detail::ScopedSimdOverride pin(
      &sac::detail::portable_backend());
  const double portable = run_backend_final_norm(
      c.variant, c.cls, sac::BackendKind::kSimd, c.mode);
  EXPECT_EQ(portable, simd)
      << variant_name(c.variant) << ": simd vs its baseline instance diverged";
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, SimdGoldenNorm, ::testing::ValuesIn(kSimdGolden),
    [](const ::testing::TestParamInfo<BackendGoldenCase>& param_info) {
      std::string name = variant_name(param_info.param.variant);
      for (char& ch : name) {
        if (ch == '-' || ch == '/') ch = '_';
      }
      name += param_info.param.mode == sac::StencilMode::kPlanes ? "_planes"
                                                                 : "_grouped";
      return name + (param_info.param.cls == MgClass::S ? "_S" : "_W");
    });

// The reference kernels bypass the array runtime entirely, so the backend
// knob must be invisible to them: bit-equal results, not just within
// tolerance.
TEST(SimdGoldenNorm, ReferenceVariantsAreBackendInvariant) {
  for (const Variant v : {Variant::kFortran, Variant::kOpenMp}) {
    const double scalar = run_backend_final_norm(
        v, MgClass::W, sac::BackendKind::kScalar, sac::StencilMode::kGrouped);
    const double simd = run_backend_final_norm(
        v, MgClass::W, sac::BackendKind::kSimd, sac::StencilMode::kGrouped);
    EXPECT_EQ(simd, scalar) << variant_name(v);
  }
}

// Pool recycling must stay arithmetic-neutral under the simd backend too.
TEST(SimdGoldenNorm, PoolOnOffBitIdenticalUnderSimd) {
  const double off = run_backend_final_norm(Variant::kSac, MgClass::S,
                                            sac::BackendKind::kSimd,
                                            sac::StencilMode::kPlanes,
                                            /*pool=*/false);
  const double on = run_backend_final_norm(Variant::kSac, MgClass::S,
                                           sac::BackendKind::kSimd,
                                           sac::StencilMode::kPlanes,
                                           /*pool=*/true);
  EXPECT_EQ(on, off);
}

// kJit goldens (docs/jit.md).  The JIT engine is bit-identical to the
// resolved kSimd engine for every element-parallel primitive and keeps the
// fixed 4-lane fold contract, so a --backend jit run must reproduce the
// kSimd norm EXACTLY — on the warm path (SACPP_JIT_SYNC=1: every row runs a
// generated kernel) and on the cold path (async compiles still in flight,
// rows served by the simd fallback mid-swap).  Anything else means a
// generated kernel reassociated, contracted into FMA, or mis-indexed.
TEST(JitGoldenNorm, WarmRunsMatchSimdBitForBit) {
  for (const sac::StencilMode mode :
       {sac::StencilMode::kGrouped, sac::StencilMode::kPlanes}) {
    const double simd = run_backend_final_norm(
        Variant::kSac, MgClass::S, sac::BackendKind::kSimd, mode);
    EXPECT_NEAR(simd / kGolden[0].norm, 1.0, kTol);

    ::setenv("SACPP_JIT_SYNC", "1", 1);
    sac::jit::testing::reset();
    const double warm = run_backend_final_norm(
        Variant::kSac, MgClass::S, sac::BackendKind::kJit, mode);
    ::unsetenv("SACPP_JIT_SYNC");
    EXPECT_EQ(warm, simd)
        << "jit (warm) vs simd diverged, mode "
        << sac::stencil_mode_name(mode);
  }
}

TEST(JitGoldenNorm, ColdAsyncRunsMatchSimdBitForBit) {
  // No sync flag: the first rows run on the fallback while the compile
  // thread races, and kernels hot-swap in mid-run — still bit-exact.
  const double simd =
      run_backend_final_norm(Variant::kSac, MgClass::S,
                             sac::BackendKind::kSimd,
                             sac::StencilMode::kPlanes);
  sac::jit::testing::reset();
  const double cold =
      run_backend_final_norm(Variant::kSac, MgClass::S,
                             sac::BackendKind::kJit,
                             sac::StencilMode::kPlanes);
  sac::jit::drain();  // don't leak queued compiles into later tests
  EXPECT_EQ(cold, simd) << "jit (cold/async) vs simd diverged";
}

TEST(JitGoldenNorm, ClassWMatchesPinnedPlanesConstant) {
  ::setenv("SACPP_JIT_SYNC", "1", 1);
  sac::jit::testing::reset();
  const double jit =
      run_backend_final_norm(Variant::kSac, MgClass::W,
                             sac::BackendKind::kJit,
                             sac::StencilMode::kPlanes);
  ::unsetenv("SACPP_JIT_SYNC");
  // Same constant as the kSimd planes row above: kJit is pinnable because
  // it is bitwise simd, on either kSimd instance.
  EXPECT_NEAR(jit / 2.77739287704745898e-18, 1.0, kTol);
  const double simd =
      run_backend_final_norm(Variant::kSac, MgClass::W,
                             sac::BackendKind::kSimd,
                             sac::StencilMode::kPlanes);
  EXPECT_EQ(jit, simd);
}

TEST(GoldenNormMpi, ClassSMatchesWithPoolOffAndOn) {
  const double off = run_mpi_final_norm(MgClass::S, false);
  EXPECT_NEAR(off / kMpiGolden[0], 1.0, kTol);
  EXPECT_EQ(run_mpi_final_norm(MgClass::S, true), off);
}

TEST(GoldenNormMpi, ClassWMatchesWithPoolOffAndOn) {
  const double off = run_mpi_final_norm(MgClass::W, false);
  EXPECT_NEAR(off / kMpiGolden[1], 1.0, kTol);
  EXPECT_EQ(run_mpi_final_norm(MgClass::W, true), off);
}

// The class-S goldens themselves must agree with the official NPB
// verification constant (guards against regenerating them from a broken
// solver and blessing the breakage).
TEST(GoldenNorm, ClassSGoldensMatchOfficialNpbConstant) {
  for (const GoldenCase& c : kGolden) {
    if (c.cls != MgClass::S) continue;
    EXPECT_NEAR(c.norm / kNpbClassS, 1.0, 1e-8);
  }
  EXPECT_NEAR(kMpiGolden[0] / kNpbClassS, 1.0, 1e-8);
}

// Sanity on the integration: a pooled class-S run actually exercises the
// pool (hits dominate after the first V-cycle).
TEST(GoldenNorm, PooledRunRecyclesBuffers) {
  sac::SacConfig cfg = sac::config();
  cfg.pool = true;
  // The hits + misses == allocations invariant only holds when every pool
  // request flows through Buffer: the planes engine's scratch rows hit the
  // pool directly (stencil.hpp PlaneScratch), so pin the grouped mode.
  cfg.stencil_mode = sac::StencilMode::kGrouped;
  sac::ScopedConfig guard(cfg);
  sac::reset_stats();
  RunOptions opts;
  opts.warmup = false;
  opts.record_norms = false;
  run_benchmark(Variant::kSac, MgSpec::for_class(MgClass::S), opts);
  const auto& st = sac::stats();
  EXPECT_GT(st.pool_hits, st.pool_misses);
  EXPECT_EQ(st.pool_hits + st.pool_misses, st.allocations);
}

}  // namespace
}  // namespace sacpp::mg
