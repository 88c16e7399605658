// Cross-backend differential battery for the pluggable row-primitive
// engines (docs/backends.md).
//
// The contract under test: every element-parallel primitive (fill, copy,
// plane sums, stencil combines, ewise merges, gather, scatter) is bitwise
// identical across kScalar, both kSimd instances and kJit; the two folds
// (sum-of-squares, max-abs) may reassociate but agree to 1e-12 relative —
// and the kSimd instances and the JIT agree with EACH OTHER bit for bit,
// so kSimd/kJit results are host-independent and pinnable.
//
// The kSimd battery covers every row length 0..300 with a random sub-range
// per length, so every split of a row into the vectorizer's body and
// remainder is hit on both instances (baseline and, where the CPU has it,
// AVX2).  Whole kernels run on the baseline instance through
// detail::ScopedSimdOverride.
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

// The kSimd instances present on this host: the baseline one always, the
// AVX2 one where the CPU has it.
std::vector<const Backend*> simd_instances() {
  std::vector<const Backend*> v{&detail::portable_backend()};
  if (detail::avx2_backend() != nullptr) v.push_back(detail::avx2_backend());
  return v;
}

std::vector<double> random_row(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> dist(-8.0, 8.0);
  std::vector<double> r(n);
  for (double& x : r) x = dist(rng);
  return r;
}

// Every row length the element-parallel sweeps cover.
constexpr extent_t kMaxRow = 300;

struct Range {
  extent_t lo, hi;
};

// [first, last] itself plus one random sub-range of it, possibly empty.
std::vector<Range> ranges(std::mt19937_64& rng, extent_t first,
                          extent_t last) {
  std::uniform_int_distribution<extent_t> bound(first, last);
  extent_t lo = bound(rng), hi = bound(rng);
  if (hi < lo) std::swap(lo, hi);
  return {{first, last}, {lo, hi}};
}

std::string where(const Backend* be, extent_t n, Range r) {
  return std::string(be->name()) + " n=" + std::to_string(n) + " [" +
         std::to_string(r.lo) + "," + std::to_string(r.hi) + ")";
}

TEST(BackendRegistry, KindsResolveAndReportLanes) {
  EXPECT_STREQ(backend_for(BackendKind::kScalar).name(), "scalar");
  EXPECT_EQ(backend_for(BackendKind::kScalar).lanes(), 1u);
  EXPECT_FALSE(backend_for(BackendKind::kScalar).vectorized());
  // kSimd resolves to the AVX2 instance where the CPU has it, else to the
  // baseline one; both fold in 4 lanes.
  const Backend& simd = backend_for(BackendKind::kSimd);
  EXPECT_TRUE(simd.vectorized());
  EXPECT_STREQ(simd.name(), cpu_has_avx2() ? "avx2" : "portable");
  EXPECT_EQ(simd.lanes(), 4u);
  EXPECT_STREQ(detail::portable_backend().name(), "portable");
  EXPECT_EQ(detail::portable_backend().lanes(), 4u);
  EXPECT_EQ(&detail::simd_backend(), &simd);
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
  EXPECT_FALSE(parse_backend("simd-portable", &parsed));  // retired
  // The registry-driven name list is what --backend help/errors print.
  EXPECT_EQ(backend_names(), "scalar | simd | jit");
}

TEST(BackendRegistry, SimdOverrideIsScopedAndNests) {
  const Backend& host = backend_for(BackendKind::kSimd);
  {
    detail::ScopedSimdOverride pin(&detail::portable_backend());
    EXPECT_EQ(&backend_for(BackendKind::kSimd), &detail::portable_backend());
    {
      detail::ScopedSimdOverride unpin(nullptr);
      EXPECT_EQ(&backend_for(BackendKind::kSimd), &host);
    }
    EXPECT_EQ(&backend_for(BackendKind::kSimd), &detail::portable_backend());
    // Only kSimd moves: the JIT keeps this host's instance as its fallback.
    EXPECT_EQ(backend_for(BackendKind::kJit).lanes(), host.lanes());
  }
  EXPECT_EQ(&backend_for(BackendKind::kSimd), &host);
}

// -- per-primitive differential sweeps --------------------------------------
//
// Each instance against scalar, bitwise, at every row length 0..kMaxRow.
// Every instance runs its own sweep over the same data, so a defect in the
// shared source fails each instance separately.

// Runs `sweep(instance, rng)` once per kSimd instance, each from a fresh
// generator seeded with `seed`.
template <typename Sweep>
void for_each_instance(unsigned seed, Sweep sweep) {
  for (const Backend* be : simd_instances()) {
    SCOPED_TRACE(be->name());
    std::mt19937_64 rng(seed);
    sweep(*be, rng);
  }
}

TEST(BackendRows, FillCopyBitIdenticalAcrossEngines) {
  const Backend& sc = detail::scalar_backend();
  for_each_instance(101, [&](const Backend& be, std::mt19937_64& rng) {
    for (extent_t n = 0; n <= kMaxRow; ++n) {
      const auto src = random_row(rng, static_cast<std::size_t>(n));
      const double v = static_cast<double>(n) * 0.37 - 3.0;
      for (const Range r : ranges(rng, 0, n)) {
        auto run = [&](const Backend& e) {
          std::vector<double> f(static_cast<std::size_t>(n), -99.0);
          std::vector<double> c = f;
          e.fill_row(f.data(), r.lo, r.hi, v);
          e.copy_row(c.data(), src.data(), r.lo, r.hi);
          f.insert(f.end(), c.begin(), c.end());
          return f;
        };
        ASSERT_EQ(run(be), run(sc)) << where(&be, n, r);
      }
    }
  });
}

TEST(BackendRows, PlaneSumsBitIdenticalAcrossEngines) {
  const Backend& sc = detail::scalar_backend();
  for_each_instance(102, [&](const Backend& be, std::mt19937_64& rng) {
    for (extent_t n = 0; n <= kMaxRow; ++n) {
      std::vector<std::vector<double>> in;
      for (int r = 0; r < 8; ++r) {
        in.push_back(random_row(rng, static_cast<std::size_t>(n)));
      }
      auto run = [&](const Backend& e) {
        std::vector<double> u1(static_cast<std::size_t>(n), -99.0);
        std::vector<double> u2 = u1;
        e.plane_sums(in[0].data(), in[1].data(), in[2].data(), in[3].data(),
                     in[4].data(), in[5].data(), in[6].data(), in[7].data(),
                     u1.data(), u2.data(), n);
        u1.insert(u1.end(), u2.begin(), u2.end());
        return u1;
      };
      ASSERT_EQ(run(be), run(sc)) << "n=" << n;
    }
  });
}

TEST(BackendRows, CombineAndAccumulateBitIdenticalAcrossEngines) {
  // Rows of n + 2 so the combine's [lo-1, hi+1) reads stay in bounds for
  // every sub-range of [1, n + 1).  accumulate_row adds into a random row
  // in place.
  const Backend& sc = detail::scalar_backend();
  for_each_instance(103, [&](const Backend& be, std::mt19937_64& rng) {
    for (extent_t n = 0; n <= kMaxRow; ++n) {
      const auto len = static_cast<std::size_t>(n + 2);
      const auto uc = random_row(rng, len);
      const auto u1 = random_row(rng, len);
      const auto u2 = random_row(rng, len);
      const auto base = random_row(rng, len);
      for (const Range r : ranges(rng, 1, n + 1)) {
        for (const bool accumulate : {false, true}) {
          auto run = [&](const Backend& e) {
            std::vector<double> o = base;
            if (accumulate) {
              e.accumulate_row(kTestCoeffs.c.data(), uc.data(), u1.data(),
                               u2.data(), o.data(), r.lo, r.hi);
            } else {
              e.combine_row(kTestCoeffs.c.data(), uc.data(), u1.data(),
                            u2.data(), o.data(), r.lo, r.hi);
            }
            return o;
          };
          ASSERT_EQ(run(be), run(sc))
              << where(&be, n, r) << (accumulate ? " accumulate" : " combine");
        }
      }
    }
  });
}

TEST(BackendRows, EwiseMergesBitIdenticalAcrossEngines) {
  // `a` is a separate row, or `out` itself (the one overlap the contract
  // allows).
  const Backend& sc = detail::scalar_backend();
  for_each_instance(104, [&](const Backend& be, std::mt19937_64& rng) {
    for (extent_t n = 0; n <= kMaxRow; ++n) {
      const auto a = random_row(rng, static_cast<std::size_t>(n));
      const auto base = random_row(rng, static_cast<std::size_t>(n));
      for (const Range r : ranges(rng, 0, n)) {
        for (int op = 0; op < 3; ++op) {
          for (const bool self : {false, true}) {
            auto run = [&](const Backend& e) {
              std::vector<double> o = base;
              const double* in = self ? o.data() : a.data();
              if (op == 0) e.add_into_row(in, o.data(), r.lo, r.hi);
              if (op == 1) e.sub_into_row(in, o.data(), r.lo, r.hi);
              if (op == 2) e.mul_into_row(in, o.data(), r.lo, r.hi);
              return o;
            };
            ASSERT_EQ(run(be), run(sc))
                << where(&be, n, r) << " op=" << op << " self=" << self;
          }
        }
      }
    }
  });
}

// -- the fused stencil row (StencilRow) --------------------------------------

// One fused-row call: nine random source rows of length n, a random output
// row, and the merge operands separate from `out` or `out` itself.
struct FusedRowCase {
  extent_t n, lo, hi, km, kp;
  RowMerge merge;
  bool a_is_out, b_is_out;
  std::vector<std::vector<double>> src;  // centre, im, ip, jm, jp, ...
  std::vector<double> a, b, base;
};

const char* merge_name(RowMerge m) {
  switch (m) {
    case RowMerge::kAssign: return "assign";
    case RowMerge::kAdd: return "add";
    case RowMerge::kSub: return "sub";
    case RowMerge::kAddAdd: return "add-add";
  }
  return "?";
}

std::string where(const Backend& be, const FusedRowCase& c) {
  return std::string(be.name()) + " " + merge_name(c.merge) +
         " n=" + std::to_string(c.n) + " [" + std::to_string(c.lo) + "," +
         std::to_string(c.hi) + ") km=" + std::to_string(c.km) +
         " kp=" + std::to_string(c.kp) + (c.a_is_out ? " a=out" : "") +
         (c.b_is_out ? " b=out" : "");
}

// The output row `e` writes for case `c`.
std::vector<double> run_fused(const Backend& e, const FusedRowCase& c) {
  const auto len = static_cast<std::size_t>(c.n);
  std::vector<double> out = c.base, u1(len), u2(len), t(len);
  StencilRow r;
  for (int q = 0; q < 9; ++q) r.src[q] = c.src[static_cast<std::size_t>(q)].data();
  r.c = kTestCoeffs.c.data();
  r.n = c.n;
  r.lo = c.lo;
  r.hi = c.hi;
  r.km = c.km;
  r.kp = c.kp;
  r.u1 = u1.data();
  r.u2 = u2.data();
  r.t = t.data();
  r.merge = c.merge;
  r.a = c.a_is_out ? out.data() : c.a.data();
  r.b = c.b_is_out ? out.data() : c.b.data();
  r.out = out.data();
  e.stencil_row(r);
  return out;
}

// StencilRow's definition evaluated point by point.
std::vector<double> fused_reference(const FusedRowCase& c) {
  const auto& s = c.src;
  auto x = [&](extent_t p) {
    return static_cast<std::size_t>(p < c.lo ? c.km : p >= c.hi ? c.kp : p);
  };
  auto uc = [&](extent_t p) { return s[0][x(p)]; };
  auto u1 = [&](extent_t p) {
    return ((s[1][x(p)] + s[2][x(p)]) + s[3][x(p)]) + s[4][x(p)];
  };
  auto u2 = [&](extent_t p) {
    return ((s[5][x(p)] + s[6][x(p)]) + s[7][x(p)]) + s[8][x(p)];
  };
  const auto& k4 = kTestCoeffs.c;
  std::vector<double> out = c.base;
  for (extent_t k = c.lo; k < c.hi; ++k) {
    const auto i = static_cast<std::size_t>(k);
    const double v = k4[0] * uc(k) + k4[1] * ((u1(k) + uc(k - 1)) + uc(k + 1)) +
                     k4[2] * ((u2(k) + u1(k - 1)) + u1(k + 1)) +
                     k4[3] * (u2(k - 1) + u2(k + 1));
    const double a = c.a_is_out ? c.base[i] : c.a[i];
    const double b = c.b_is_out ? c.base[i] : c.b[i];
    switch (c.merge) {
      case RowMerge::kAssign: out[i] = v; break;
      case RowMerge::kAdd: out[i] = a + v; break;
      case RowMerge::kSub: out[i] = a - v; break;
      case RowMerge::kAddAdd: out[i] = b + (a + v); break;
    }
  }
  return out;
}

// Every merge and aliasing over a row of length n: the output range
// [lo, hi) and end positions km and kp drawn at random, read as they are
// (km = lo - 1, kp = hi) or remapped, as a view's or a wrap map's ends are.
void for_each_fused_case(std::mt19937_64& rng, extent_t n,
                         const std::function<void(const FusedRowCase&)>& f) {
  const auto len = static_cast<std::size_t>(n);
  FusedRowCase c;
  c.n = n;
  for (int q = 0; q < 9; ++q) c.src.push_back(random_row(rng, len));
  c.a = random_row(rng, len);
  c.b = random_row(rng, len);
  c.base = random_row(rng, len);
  std::uniform_int_distribution<extent_t> pos(0, n - 1);
  for (const bool remapped : {false, true}) {
    extent_t lo = remapped ? pos(rng) : std::uniform_int_distribution<extent_t>(1, n - 2)(rng);
    extent_t hi = std::uniform_int_distribution<extent_t>(lo + 1, remapped ? n : n - 1)(rng);
    if (rng() % 3 == 0) {  // the whole row a stencil evaluates
      lo = remapped ? 0 : 1;
      hi = remapped ? n : n - 1;
    }
    c.lo = lo;
    c.hi = hi;
    c.km = remapped ? pos(rng) : lo - 1;
    c.kp = remapped ? pos(rng) : hi;
    for (const RowMerge m : {RowMerge::kAssign, RowMerge::kAdd, RowMerge::kSub,
                             RowMerge::kAddAdd}) {
      c.merge = m;
      for (int alias = 0; alias < 3; ++alias) {
        if (m == RowMerge::kAssign && alias > 0) break;
        if (m != RowMerge::kAddAdd && alias > 1) break;
        c.a_is_out = alias == 1;
        c.b_is_out = alias == 2;
        f(c);
      }
    }
  }
}

TEST(BackendRows, FusedStencilRowEveryMergeBitIdenticalAcrossEngines) {
  // Row lengths 3..70 cover the V-cycle's rows with every vector split; the
  // scalar engine's composition is pinned to the definition point by point,
  // and every kSimd instance to the scalar engine.
  const Backend& sc = detail::scalar_backend();
  for_each_instance(111, [&](const Backend& be, std::mt19937_64& rng) {
    for (extent_t n = 3; n <= 70; ++n) {
      for (int round = 0; round < 4; ++round) {
        for_each_fused_case(rng, n, [&](const FusedRowCase& c) {
          const std::vector<double> want = run_fused(sc, c);
          ASSERT_EQ(want, fused_reference(c)) << where(sc, c);
          ASSERT_EQ(run_fused(be, c), want) << where(be, c);
        });
      }
    }
  });
}

TEST(BackendRows, GatherScatterBitIdenticalAcrossEngines) {
  // Strides 1..5: the grid transfers' stride 2 has its own vector loop.
  const Backend& sc = detail::scalar_backend();
  for_each_instance(105, [&](const Backend& be, std::mt19937_64& rng) {
    for (extent_t n = 0; n <= kMaxRow; ++n) {
      for (extent_t stride = 1; stride <= 5; ++stride) {
        const auto src =
            random_row(rng, static_cast<std::size_t>(n * stride));
        auto run = [&](const Backend& e) {
          std::vector<double> g(static_cast<std::size_t>(n), -99.0);
          e.gather_row(g.data(), src.data(), stride, n);
          std::vector<double> s(static_cast<std::size_t>(n * stride), -99.0);
          e.scatter_row(s.data(), stride, src.data(), n);
          g.insert(g.end(), s.begin(), s.end());
          return g;
        };
        ASSERT_EQ(run(be), run(sc)) << "n=" << n << " stride=" << stride;
      }
    }
  });
}

TEST(BackendRows, InterpRowsBitIdenticalAcrossEngines) {
  // sum_rows over 2 and 4 rows of length n; interp_row over every sub-range
  // of [0, n), reading a coarse row long enough for the last odd position.
  const Backend& sc = detail::scalar_backend();
  for_each_instance(106, [&](const Backend& be, std::mt19937_64& rng) {
    for (extent_t n = 0; n <= kMaxRow; ++n) {
      const auto len = static_cast<std::size_t>(n);
      const auto a = random_row(rng, len), b = random_row(rng, len),
                 c = random_row(rng, len), d = random_row(rng, len);
      const auto w = random_row(rng, len / 2 + 2);
      const double ca = 0.5 + 0.01 * static_cast<double>(n), cb = -0.25;
      auto sums = [&](const Backend& e) {
        std::vector<double> w2(len, -99.0), w4(len, -99.0);
        e.sum_rows(a.data(), b.data(), nullptr, nullptr, w2.data(), n);
        e.sum_rows(a.data(), b.data(), c.data(), d.data(), w4.data(), n);
        w2.insert(w2.end(), w4.begin(), w4.end());
        return w2;
      };
      ASSERT_EQ(sums(be), sums(sc)) << "sum_rows n=" << n;
      for (const Range r : ranges(rng, 0, n)) {
        auto run = [&](const Backend& e) {
          std::vector<double> o(len, -99.0);
          e.interp_row(ca, cb, w.data(), o.data(), r.lo, r.hi);
          return o;
        };
        ASSERT_EQ(run(be), run(sc)) << where(&be, n, r);
      }
    }
  });
}

TEST(BackendFolds, AgreeWithScalarToTolAndAcrossSimdEnginesExactly) {
  // Every instance folds in the same four lanes: bitwise equal to the
  // baseline instance, within 1e-12 of scalar, and max-abs (insensitive
  // to association) exactly scalar's.
  const Backend& sc = detail::scalar_backend();
  const Backend& po = detail::portable_backend();
  for_each_instance(106, [&](const Backend& be, std::mt19937_64& rng) {
    for (extent_t n = 0; n <= kMaxRow; ++n) {
      const auto p = random_row(rng, static_cast<std::size_t>(n));
      const double acc0 = static_cast<double>(n) * 0.013;
      for (const Range r : ranges(rng, 0, n)) {
        const double ss = be.sum_sq_row(acc0, p.data(), r.lo, r.hi);
        const double ss_sc = sc.sum_sq_row(acc0, p.data(), r.lo, r.hi);
        ASSERT_NEAR(ss, ss_sc, 1e-12 * std::max(1.0, std::fabs(ss_sc)))
            << where(&be, n, r);
        ASSERT_EQ(ss, po.sum_sq_row(acc0, p.data(), r.lo, r.hi))
            << where(&be, n, r);
        ASSERT_EQ(be.max_abs_row(acc0, p.data(), r.lo, r.hi),
                  sc.max_abs_row(acc0, p.data(), r.lo, r.hi))
            << where(&be, n, r);
      }
    }
  });
}

// -- whole-kernel differential sweeps ---------------------------------------

// A whole-kernel engine: a kind and, for kSimd, the instance it is pinned
// to (nullptr: this host's own).
struct Engine {
  const char* label;
  BackendKind kind;
  const Backend* pin;
};

const Engine kScalarEngine{"scalar", BackendKind::kScalar, nullptr};
const Engine kSimdEngine{"simd", BackendKind::kSimd, nullptr};
const Engine kPortableEngine{"portable", BackendKind::kSimd,
                             &detail::portable_backend()};

SacConfig with_backend(SacConfig cfg, BackendKind kind) {
  cfg.backend = kind;
  return cfg;
}

// RAII: run the calling scope on `e`, on top of `base`.
class UseEngine {
 public:
  explicit UseEngine(const Engine& e, const SacConfig& base = config())
      : cfg_(with_backend(base, e.kind)), pin_(e.pin) {}

 private:
  ScopedConfig cfg_;
  detail::ScopedSimdOverride pin_;
};

Array<double> run_relax(const Array<double>& a, const Engine& e,
                        bool periodic, int threads = 0) {
  SacConfig cfg = config();
  cfg.stencil_mode = StencilMode::kPlanes;
  cfg.stencil_planes_cutover = 0;
  if (threads > 0) {
    cfg.mt_enabled = true;
    cfg.mt_threads = threads;
    cfg.mt_threshold = 1;
  }
  const UseEngine use(e, cfg);
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
      auto scalar = run_relax(a, kScalarEngine, periodic);
      auto simd = run_relax(a, kSimdEngine, periodic);
      auto portable = run_relax(a, kPortableEngine, periodic);
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
  for (const Engine& e : {kScalarEngine, kSimdEngine, kPortableEngine}) {
    auto serial = run_relax(a, e, /*periodic=*/false);
    auto mt1 = run_relax(a, e, /*periodic=*/false, /*threads=*/4);
    auto mt2 = run_relax(a, e, /*periodic=*/false, /*threads=*/4);
    for (extent_t i = 0; i < serial.elem_count(); ++i) {
      ASSERT_EQ(mt1.at_linear(i), serial.at_linear(i)) << e.label << " " << i;
      ASSERT_EQ(mt2.at_linear(i), mt1.at_linear(i)) << e.label << " " << i;
    }
  }
}

TEST(BackendKernels, GatherRowPathsMatchPerPointEvaluation) {
  // Structural ops over concrete arrays ride the backend gather/scatter row
  // primitives; pure data movement must be bit-identical in every backend
  // and equal to the scalar per-point reference.
  std::mt19937_64 rng(75);
  std::uniform_int_distribution<extent_t> row(1, 130);
  for (int round = 0; round < 24; ++round) {
    const extent_t n0 = 2 + static_cast<extent_t>(round % 5);
    const Shape shp{n0 * 2, 6, row(rng) + 2};
    auto a = random_array(shp, 77 + static_cast<unsigned>(round));
    Array<double> ref_c, ref_s, ref_t, ref_e;
    {
      const UseEngine use(kScalarEngine);
      ref_c = condense(2, a);
      ref_s = scatter(3, condense(2, a));
      ref_t = take({shp[0] / 2, 3, shp[2] / 2}, a);
      ref_e = embed(IndexVec{shp[0] + 3, shp[1] + 1, shp[2] + 5},
                    IndexVec{2, 1, 3}, a);
    }
    for (const Engine& eng : {kSimdEngine, kPortableEngine}) {
      const UseEngine use(eng);
      auto c = condense(2, a);
      auto s = scatter(3, condense(2, a));
      auto t = take({shp[0] / 2, 3, shp[2] / 2}, a);
      auto e = embed(IndexVec{shp[0] + 3, shp[1] + 1, shp[2] + 5},
                     IndexVec{2, 1, 3}, a);
      for (extent_t i = 0; i < ref_c.elem_count(); ++i) {
        ASSERT_EQ(c.at_linear(i), ref_c.at_linear(i)) << eng.label;
      }
      for (extent_t i = 0; i < ref_s.elem_count(); ++i) {
        ASSERT_EQ(s.at_linear(i), ref_s.at_linear(i)) << eng.label;
      }
      for (extent_t i = 0; i < ref_t.elem_count(); ++i) {
        ASSERT_EQ(t.at_linear(i), ref_t.at_linear(i)) << eng.label;
      }
      for (extent_t i = 0; i < ref_e.elem_count(); ++i) {
        ASSERT_EQ(e.at_linear(i), ref_e.at_linear(i)) << eng.label;
      }
    }
  }
}

TEST(BackendKernels, FusedRestrictionRowPathMatchesPerPointToTol) {
  // condense(2, stencil) under a vectorized backend runs the stencil's ROW
  // evaluator (planes association) where per-point evaluation groups by
  // class — equal to 1e-12, and bit-identical between the simd instances.
  const Shape shp{10, 10, 18};
  auto a = random_array(shp, 79);
  SacConfig cfg = config();
  cfg.stencil_mode = StencilMode::kPlanes;
  cfg.stencil_planes_cutover = 0;
  auto run = [&](const Engine& e) {
    const UseEngine use(e, cfg);
    return force(
        lazy_condense(2, StencilExpr(a, kTestCoeffs, StencilMode::kPlanes)));
  };
  auto scalar = run(kScalarEngine);
  auto simd = run(kSimdEngine);
  auto portable = run(kPortableEngine);
  for (extent_t i = 0; i < scalar.elem_count(); ++i) {
    ASSERT_NEAR(simd.at_linear(i), scalar.at_linear(i), 1e-12) << i;
    ASSERT_EQ(portable.at_linear(i), simd.at_linear(i)) << i;
  }
}

TEST(BackendFolds, WholeArrayFoldsAgreeAndSimdEnginesMatchExactly) {
  const Shape shp{12, 13, 21};
  auto r = random_array(shp, 83);
  auto run_ss = [&](const Engine& e) {
    const UseEngine use(e);
    return with_fold(std::plus<>{}, 0.0, r.shape(), gen_interior(r.shape()),
                     sum_sq_rows(r));
  };
  auto run_ma = [&](const Engine& e) {
    const UseEngine use(e);
    return max_abs(r);
  };
  const double ss_scalar = run_ss(kScalarEngine);
  const double ss_simd = run_ss(kSimdEngine);
  EXPECT_NEAR(ss_simd / ss_scalar, 1.0, 1e-12);
  EXPECT_EQ(run_ss(kPortableEngine), ss_simd);
  const double ma_scalar = run_ma(kScalarEngine);
  EXPECT_EQ(run_ma(kSimdEngine), ma_scalar);
  EXPECT_EQ(run_ma(kPortableEngine), ma_scalar);
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

TEST_F(BackendJit, FusedStencilRowEveryMergeBitIdenticalToScalar) {
  // The JIT compiles the unmerged row and the in-place add over rows read
  // as they are, and hands every other form to its simd instance: each is
  // bitwise the scalar engine's.  Lengths come from a small pool, so the
  // battery compiles a bounded kernel set.
  std::mt19937_64 rng(311);
  const Backend& sc = detail::scalar_backend();
  const Backend& be = backend_for(BackendKind::kJit);
  reset_stats();
  for (const extent_t n : {extent_t{18}, extent_t{34}, extent_t{66}}) {
    for (int round = 0; round < 4; ++round) {
      for_each_fused_case(rng, n, [&](const FusedRowCase& c) {
        ASSERT_EQ(run_fused(be, c), run_fused(sc, c)) << where(be, c);
      });
    }
  }
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
