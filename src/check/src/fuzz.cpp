#include "sacpp/check/fuzz.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <utility>
#include <vector>

#include "sacpp/common/shape.hpp"
#include "sacpp/sac/array_lib.hpp"
#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/scatter_stencil.hpp"
#include "sacpp/sac/stencil.hpp"

namespace sacpp::check {

namespace {

// xorshift64* — deterministic, no global state, good enough for structural
// fuzzing (we need variety, not statistical quality).
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1DULL;
  }
  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  extent_t range(extent_t lo, extent_t hi) {  // inclusive
    return lo + static_cast<extent_t>(next() % static_cast<std::uint64_t>(
                                                   hi - lo + 1));
  }
};

// Row lengths biased to the masked-tail danger zone around the 4-lane width.
extent_t fuzz_row_length(Rng& rng) {
  static constexpr extent_t kPool[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,
                                       11, 13, 15, 16, 17, 23, 31, 32, 33,
                                       61, 64, 67, 97};
  if (rng.pick(4) == 0) return rng.range(0, 130);
  return kPool[rng.pick(std::size(kPool))];
}

std::vector<double> fuzz_row(Rng& rng, std::size_t n) {
  std::vector<double> r(n);
  for (double& x : r) {
    x = static_cast<double>(rng.range(-4000, 4000)) / 997.0;
  }
  return r;
}

bool rows_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bitwise: memcmp semantics without tripping on -0.0 vs +0.0 being ==.
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) return false;
  }
  return true;
}

// The JIT engine joins the differential set only under SACPP_JIT_SYNC=1
// (exported by the jit-backend CI job): in async mode its rows answer from
// the fallback engine while compiles race in the background, so diffing it
// would not exercise generated code — and the fuzzer's randomized key
// stream would leave the compile queue churning long after the rounds end.
bool fuzz_jit() {
  const char* sync = std::getenv("SACPP_JIT_SYNC");
  return sync != nullptr && sync[0] == '1' && sync[1] == '\0';
}

// Every engine present on this host, scalar first (the reference).
std::vector<const sac::Backend*> fuzz_engines() {
  std::vector<const sac::Backend*> v{&sac::detail::scalar_backend(),
                                     &sac::detail::portable_backend()};
  if (sac::detail::avx2_backend() != nullptr) {
    v.push_back(sac::detail::avx2_backend());
  }
  if (fuzz_jit()) v.push_back(&sac::detail::jit_backend());
  return v;
}

// One round of raw-primitive differential checks on a random row config.
void fuzz_primitives(Rng& rng, const std::vector<const sac::Backend*>& engines,
                     BackendFuzzReport* stats) {
  const extent_t n = fuzz_row_length(rng);
  extent_t lo = n == 0 ? 0 : rng.range(0, n);
  extent_t hi = n == 0 ? 0 : rng.range(0, n);
  if (hi < lo) std::swap(lo, hi);
  const auto nz = static_cast<std::size_t>(n);
  const auto a = fuzz_row(rng, nz);
  const auto b = fuzz_row(rng, nz);
  const double v = static_cast<double>(rng.range(-9, 9)) * 0.625;

  std::vector<std::vector<double>> fill(engines.size()), copy(engines.size()),
      add(engines.size()), sub(engines.size()), mul(engines.size());
  std::vector<double> ss(engines.size()), ma(engines.size());
  for (std::size_t e = 0; e < engines.size(); ++e) {
    const sac::Backend* be = engines[e];
    fill[e].assign(nz, -77.0);
    be->fill_row(fill[e].data(), lo, hi, v);
    copy[e].assign(nz, -77.0);
    be->copy_row(copy[e].data(), a.data(), lo, hi);
    add[e] = b;
    be->add_into_row(a.data(), add[e].data(), lo, hi);
    sub[e] = b;
    be->sub_into_row(a.data(), sub[e].data(), lo, hi);
    mul[e] = b;
    be->mul_into_row(a.data(), mul[e].data(), lo, hi);
    ss[e] = be->sum_sq_row(0.125, a.data(), lo, hi);
    ma[e] = be->max_abs_row(0.0, a.data(), lo, hi);
    stats->rows_checked += 1;
    if (e == 0) continue;
    if (!rows_equal(fill[e], fill[0]) || !rows_equal(copy[e], copy[0]) ||
        !rows_equal(add[e], add[0]) || !rows_equal(sub[e], sub[0]) ||
        !rows_equal(mul[e], mul[0])) {
      stats->mismatches += 1;
    }
    const double tol = 1e-12 * std::max(1.0, std::abs(ss[0]));
    if (std::abs(ss[e] - ss[0]) > tol || ma[e] != ma[0]) {
      stats->fold_mismatches += 1;
    }
    // The vectorized engines must agree with each other exactly.
    if (e >= 2 && (ss[e] != ss[1] || ma[e] != ma[1])) {
      stats->fold_mismatches += 1;
    }
  }

  // Stencil row combine: needs lo-1 / hi readable, so pad the range in.
  if (n >= 3) {
    const auto uc = fuzz_row(rng, nz);
    const auto u1 = fuzz_row(rng, nz);
    const auto u2 = fuzz_row(rng, nz);
    const double c[4] = {-0.5, 0.125, 0.0625, 0.03125};
    extent_t clo = rng.range(1, n - 1), chi = rng.range(1, n - 1);
    if (chi < clo) std::swap(clo, chi);
    std::vector<std::vector<double>> comb(engines.size()),
        accr(engines.size());
    for (std::size_t e = 0; e < engines.size(); ++e) {
      comb[e].assign(nz, -77.0);
      engines[e]->combine_row(c, uc.data(), u1.data(), u2.data(),
                              comb[e].data(), clo, chi);
      accr[e] = b;
      engines[e]->accumulate_row(c, uc.data(), u1.data(), u2.data(),
                                 accr[e].data(), clo, chi);
      stats->rows_checked += 1;
      if (e > 0 && (!rows_equal(comb[e], comb[0]) ||
                    !rows_equal(accr[e], accr[0]))) {
        stats->mismatches += 1;
      }
    }
  }

  // The fused stencil row in a random merge, its output range and ends
  // drawn at random (read as they are, or remapped as a view's ends are),
  // its merge operands separate from `out` or `out` itself.
  if (n >= 3) {
    sac::StencilRow row;
    std::vector<std::vector<double>> src;
    for (int q = 0; q < 9; ++q) {
      src.push_back(fuzz_row(rng, nz));
      row.src[q] = src.back().data();
    }
    const auto merge = static_cast<sac::RowMerge>(rng.pick(4));
    const bool remapped = rng.pick(2) == 0;
    extent_t flo = remapped ? rng.range(0, n - 1) : rng.range(1, n - 2);
    const extent_t fhi = rng.range(flo + 1, remapped ? n : n - 1);
    const int alias = static_cast<int>(rng.pick(3));  // a, b or neither
    const double c[4] = {-0.5, 0.125, 0.0625, 0.03125};
    row.c = c;
    row.n = n;
    row.lo = flo;
    row.hi = fhi;
    row.km = remapped ? rng.range(0, n - 1) : flo - 1;
    row.kp = remapped ? rng.range(0, n - 1) : fhi;
    row.merge = merge;
    std::vector<std::vector<double>> out(engines.size());
    std::vector<double> u1(nz), u2(nz), t(nz);
    for (std::size_t e = 0; e < engines.size(); ++e) {
      out[e] = b;
      row.u1 = u1.data();
      row.u2 = u2.data();
      row.t = t.data();
      row.out = out[e].data();
      row.a = alias == 0 ? out[e].data() : a.data();
      row.b = alias == 1 ? out[e].data() : a.data();
      engines[e]->stencil_row(row);
      stats->rows_checked += 1;
      if (e > 0 && !rows_equal(out[e], out[0])) stats->mismatches += 1;
    }
  }

  // The polyphase prolongation rows: sums of 2 and 4 rows, and the
  // interleaved row over a coarse row long enough for its last odd point.
  {
    const auto c = fuzz_row(rng, nz), d = fuzz_row(rng, nz);
    const auto w = fuzz_row(rng, nz / 2 + 2);
    std::vector<std::vector<double>> sums(engines.size()),
        interp(engines.size());
    for (std::size_t e = 0; e < engines.size(); ++e) {
      sums[e].assign(2 * nz, -77.0);
      engines[e]->sum_rows(a.data(), b.data(), nullptr, nullptr,
                           sums[e].data(), n);
      engines[e]->sum_rows(a.data(), b.data(), c.data(), d.data(),
                           sums[e].data() + nz, n);
      interp[e].assign(nz, -77.0);
      engines[e]->interp_row(v, 0.375, w.data(), interp[e].data(), lo, hi);
      stats->rows_checked += 1;
      if (e > 0 && (!rows_equal(sums[e], sums[0]) ||
                    !rows_equal(interp[e], interp[0]))) {
        stats->mismatches += 1;
      }
    }
  }

  // Strided gather / scatter.
  if (n >= 1) {
    const extent_t stride = rng.range(1, 4);
    const auto src = fuzz_row(rng, static_cast<std::size_t>(n * stride));
    std::vector<std::vector<double>> g(engines.size()), s(engines.size());
    for (std::size_t e = 0; e < engines.size(); ++e) {
      g[e].assign(nz, -77.0);
      engines[e]->gather_row(g[e].data(), src.data(), stride, n);
      s[e].assign(static_cast<std::size_t>(n * stride), -77.0);
      engines[e]->scatter_row(s[e].data(), stride, src.data(), n);
      stats->rows_checked += 1;
      if (e > 0 &&
          (!rows_equal(g[e], g[0]) || !rows_equal(s[e], s[0]))) {
        stats->mismatches += 1;
      }
    }
  }
}

constexpr sac::StencilCoeffs kCoeffs{{-0.5, 0.125, 0.0625, 0.03125}};

// One engine the expression checks force under: a backend kind and, for
// kSimd, the instance it is pinned to (nullptr: this host's own).
struct FuzzKind {
  sac::BackendKind kind;
  const sac::Backend* simd = nullptr;
};

// Every engine the expression checks force under, scalar first; kSimd runs
// on this host's instance and on the baseline one.
std::vector<FuzzKind> fuzz_kinds() {
  std::vector<FuzzKind> kinds{
      {sac::BackendKind::kScalar},
      {sac::BackendKind::kSimd},
      {sac::BackendKind::kSimd, &sac::detail::portable_backend()}};
  if (fuzz_jit()) kinds.push_back({sac::BackendKind::kJit});
  return kinds;
}

// RAII: select `k` for the calling scope.
class UseKind {
 public:
  explicit UseKind(const FuzzKind& k)
      : cfg_(with_backend(k.kind)), pin_(k.simd) {}

 private:
  static sac::SacConfig with_backend(sac::BackendKind kind) {
    sac::SacConfig cfg = sac::config();
    cfg.backend = kind;
    return cfg;
  }
  sac::ScopedConfig cfg_;
  sac::detail::ScopedSimdOverride pin_;
};

sac::Array<double> fuzz_array(Rng& rng, const Shape& shp) {
  const std::uint64_t salt = rng.next();
  return sac::with_genarray<double>(shp, [&](const IndexVec& iv) {
    const auto lin = static_cast<std::uint64_t>(shp.linearize(iv));
    return static_cast<double>((lin * 2654435761ULL + salt) % 1000) / 997.0;
  });
}

// The reference every fused force is measured against.
template <typename Expr>
sac::Array<double> per_point(const Expr& expr) {
  return sac::with_genarray<double>(
      expr.shape(), [&](const IndexVec& iv) { return expr(iv); });
}

bool arrays_equal(const sac::Array<double>& a, const sac::Array<double>& b) {
  if (a.shape() != b.shape()) return false;
  for (extent_t i = 0; i < a.elem_count(); ++i) {
    const double x = a.at_linear(i), y = b.at_linear(i);
    if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
  }
  return true;
}

// Equal under ==: a +0.0 and a -0.0 match.
bool arrays_equal_values(const sac::Array<double>& a,
                         const sac::Array<double>& b) {
  if (a.shape() != b.shape()) return false;
  for (extent_t i = 0; i < a.elem_count(); ++i) {
    if (a.at_linear(i) != b.at_linear(i)) return false;
  }
  return true;
}

bool arrays_close(const sac::Array<double>& a, const sac::Array<double>& b) {
  if (a.shape() != b.shape()) return false;
  for (extent_t i = 0; i < a.elem_count(); ++i) {
    const double x = a.at_linear(i), y = b.at_linear(i);
    if (std::abs(x - y) > 1e-12 * std::max(1.0, std::abs(y))) return false;
  }
  return true;
}

// Whole-expression check: force `expr` under every backend kind and compare
// bitwise against its per-point evaluation.
template <typename Expr>
void fuzz_expr_backends(const Expr& expr, BackendFuzzReport* stats) {
  const sac::Array<double> ref = per_point(expr);
  for (const FuzzKind& k : fuzz_kinds()) {
    const UseKind use(k);
    stats->exprs_checked += 1;
    if (!arrays_equal(sac::force(expr), ref)) stats->mismatches += 1;
  }
}

// Gathers over a stencil: `chain` wraps its argument in the same gathers
// whether that is the stencil itself (the fused expression) or the stencil
// forced on its own (the step-by-step reference).  The scalar engine
// evaluates the fused chain per point.  A vectorized engine runs the nested
// row protocol, whose kPlanes stencil rows reassociate, so it must equal
// the stencil's own rows gathered.  Every engine stays within 1e-12 of
// per-point evaluation.
template <typename Chain>
void fuzz_stencil_chain(const sac::Array<double>& a, sac::StencilMode mode,
                        const Chain& chain, BackendFuzzReport* stats) {
  const sac::Array<double> ref =
      per_point(chain(sac::StencilExpr(a, kCoeffs, mode)));
  for (const FuzzKind& k : fuzz_kinds()) {
    const UseKind use(k);
    const sac::StencilExpr st(a, kCoeffs, mode);  // snapshots this engine
    const sac::Array<double> got = sac::force(chain(st));
    const sac::Array<double> want = sac::active_backend().vectorized()
                                        ? sac::force(chain(sac::force(st)))
                                        : ref;
    stats->exprs_checked += 1;
    stats->stencil_chains_checked += 1;
    if (!arrays_equal(got, want)) stats->mismatches += 1;
    if (!arrays_close(got, ref)) stats->fold_mismatches += 1;
  }
}

// fine2coarse's embed(condense(stencil)) under both stencil modes, or a
// take over it: the nested gather row protocol at depth 2 and 3.
void fuzz_stencil_gathers(Rng& rng, BackendFuzzReport* stats) {
  const Shape shp{rng.range(3, 7), rng.range(3, 7), fuzz_row_length(rng) + 3};
  const sac::Array<double> a = fuzz_array(rng, shp);
  const extent_t phase = rng.range(0, 1);
  const IndexVec cs = shp.extents() / 2;  // condensed shape
  IndexVec es(3), pos(3), ts(3);
  for (std::size_t d = 0; d < 3; ++d) {
    es[d] = cs[d] + rng.range(0, 3);
    pos[d] = rng.range(0, es[d] - cs[d]);
    ts[d] = rng.range(1, es[d]);
  }
  const bool deep = rng.pick(2) == 0;
  auto f2c = [&](auto inner) {
    return sac::lazy_embed(es, pos,
                           sac::lazy_condense(2, std::move(inner), phase));
  };
  // Planes rows need no minimum extent here: the fuzzer's grids are small.
  sac::SacConfig cfg = sac::config();
  cfg.stencil_planes_cutover = 0;
  sac::ScopedConfig guard(cfg);
  for (const sac::StencilMode mode :
       {sac::StencilMode::kGrouped, sac::StencilMode::kPlanes}) {
    if (deep) {
      fuzz_stencil_chain(
          a, mode,
          [&](auto inner) { return sac::lazy_take(ts, f2c(std::move(inner))); },
          stats);
    } else {
      fuzz_stencil_chain(a, mode, f2c, stats);
    }
  }
}

void fuzz_gather_rows(Rng& rng, BackendFuzzReport* stats) {
  IndexVec ext{rng.range(1, 6), rng.range(1, 6), fuzz_row_length(rng) + 1};
  const Shape base{ext};
  sac::Array<double> a = fuzz_array(rng, base);
  switch (rng.pick(6)) {
    case 0: {
      bool ok = true;
      for (std::size_t d = 0; d < 3; ++d) {
        if (base.extent(d) < 2) ok = false;
      }
      if (ok) {
        fuzz_expr_backends(sac::lazy_condense(2, a, rng.range(0, 1)), stats);
      }
      break;
    }
    case 1:
      if (base.elem_count() < 2000) {
        fuzz_expr_backends(sac::lazy_scatter(2, a, rng.range(0, 1)), stats);
      }
      break;
    case 2: {
      IndexVec shp2(3);
      for (std::size_t d = 0; d < 3; ++d) {
        shp2[d] = rng.range(1, base.extent(d));
      }
      fuzz_expr_backends(sac::lazy_take(shp2, a), stats);
      break;
    }
    case 3: {
      IndexVec shp2(3), pos(3);
      for (std::size_t d = 0; d < 3; ++d) {
        shp2[d] = base.extent(d) + rng.range(0, 5);
        pos[d] = rng.range(0, shp2[d] - base.extent(d));
      }
      fuzz_expr_backends(sac::lazy_embed(shp2, pos, a), stats);
      break;
    }
    case 4: {
      // Composition: embed(condense(.)) — nested GatherExpr row protocols.
      bool ok = true;
      for (std::size_t d = 0; d < 3; ++d) {
        if (base.extent(d) < 2) ok = false;
      }
      if (ok) {
        auto inner = sac::lazy_condense(2, a, rng.range(0, 1));
        const Shape cs = inner.shape();
        IndexVec shp2(3), pos(3);
        for (std::size_t d = 0; d < 3; ++d) {
          shp2[d] = cs.extent(d) + rng.range(0, 3);
          pos[d] = rng.range(0, shp2[d] - cs.extent(d));
        }
        fuzz_expr_backends(sac::lazy_embed(shp2, pos, std::move(inner)),
                           stats);
      }
      break;
    }
    default:
      // coarse2fine's take(scatter(.)), with a random phase.
      if (base.elem_count() < 2000) {
        auto inner = sac::lazy_scatter(2, a, rng.range(0, 1));
        IndexVec shp2(3);
        for (std::size_t d = 0; d < 3; ++d) {
          shp2[d] = rng.range(1, inner.shape().extent(d));
        }
        fuzz_expr_backends(sac::lazy_take(shp2, std::move(inner)), stats);
      }
      break;
  }
}

// Degenerate stencil grids under the planes row path: extents 3..5 give
// interiors that are empty along some axes or a single point (the
// gen_interior regression class from the planes engine work).
void fuzz_degenerate_stencils(Rng& rng, BackendFuzzReport* stats) {
  const Shape shp{rng.range(3, 5), rng.range(3, 5), rng.range(3, 5)};
  const sac::Array<double> a = fuzz_array(rng, shp);
  sac::SacConfig cfg = sac::config();
  cfg.stencil_planes_cutover = 0;
  cfg.stencil_mode = sac::StencilMode::kPlanes;
  sac::ScopedConfig guard(cfg);
  sac::Array<double> ref;
  {
    sac::SacConfig scalar_cfg = sac::config();
    scalar_cfg.backend = sac::BackendKind::kScalar;
    sac::ScopedConfig scalar_guard(scalar_cfg);
    ref = sac::relax_kernel(a, kCoeffs, sac::StencilMode::kPlanes);
  }
  for (const FuzzKind& k : fuzz_kinds()) {
    if (k.kind != sac::BackendKind::kSimd) continue;
    const UseKind use(k);
    stats->exprs_checked += 1;
    if (!arrays_equal(
            sac::relax_kernel(a, kCoeffs, sac::StencilMode::kPlanes), ref)) {
      stats->mismatches += 1;
    }
  }
}

// Random face-slab shift partitions (with_loop.hpp): per axis, ghost
// layers of width 1 or 2 at either end, each reading the layers the
// periodic wrap puts there; a face is sometimes left out.
std::vector<sac::ReadingPartition<double>> fuzz_slab_parts(Rng& rng,
                                                           const Shape& shp) {
  const std::size_t rank = shp.rank();
  std::vector<sac::ReadingPartition<double>> parts;
  for (std::size_t d = 0; d < rank; ++d) {
    const extent_t n = shp.extent(d);
    const extent_t w = n >= 6 && rng.pick(2) == 0 ? 2 : 1;
    for (const bool low : {true, false}) {
      if (rng.pick(4) == 0) continue;
      IndexVec lower = uniform_vec(rank, 0);
      IndexVec upper(shp.extents().begin(), shp.extents().end());
      IndexVec shift = uniform_vec(rank, 0);
      if (low) {
        upper[d] = w;
        shift[d] = n - 2 * w;
      } else {
        lower[d] = n - w;
        shift[d] = -(n - 2 * w);
      }
      parts.push_back(sac::shift_partition<double>(
          sac::gen_range(std::move(lower), std::move(upper)),
          std::move(shift)));
    }
  }
  return parts;
}

// The stencil, embed(condense(stencil)) and take(scatter) chains over a
// copy-free view of a random shared base.  The oracle is the same chain
// over the forced view, bitwise, under every engine: the view readers must
// see exactly the values the border with-loops would have written.
void fuzz_view_chains(Rng& rng, BackendFuzzReport* stats) {
  const Shape shp{rng.range(3, 8), rng.range(3, 8), fuzz_row_length(rng) + 3};
  const sac::Array<double> base = fuzz_array(rng, shp);
  const sac::Array<double> view =
      sac::with_modarray_reading(base, fuzz_slab_parts(rng, shp));
  sac::Array<double> forced = view;
  forced.materialise();
  const extent_t phase = rng.range(0, 1);
  IndexVec ts(3);
  for (std::size_t d = 0; d < 3; ++d) ts[d] = rng.range(1, 2 * shp.extent(d));
  sac::SacConfig cfg = sac::config();
  cfg.stencil_planes_cutover = 0;
  sac::ScopedConfig guard(cfg);
  auto check = [&](const auto& chain) {
    for (const FuzzKind& k : fuzz_kinds()) {
      const UseKind use(k);
      stats->exprs_checked += 1;
      stats->view_chains_checked += 1;
      if (!arrays_equal(sac::force(chain(view)), sac::force(chain(forced)))) {
        stats->mismatches += 1;
      }
    }
  };
  using A = const sac::Array<double>&;
  // The fused row forms: a + S and a - S, and b + (a + S), out of place
  // and written into a private copy of the left operand.
  const sac::Array<double> w1 = fuzz_array(rng, shp), w2 = fuzz_array(rng, shp);
  auto own = [](const sac::Array<double>& x) {
    sac::Array<double> c = x;
    (void)c.mutable_data();
    return c;
  };
  auto check_merges = [&](auto stencil) {
    auto check_array = [&](const auto& form) {
      for (const FuzzKind& k : fuzz_kinds()) {
        const UseKind use(k);
        stats->exprs_checked += 1;
        stats->view_chains_checked += 1;
        if (!arrays_equal(form(stencil(view)), form(stencil(forced)))) {
          stats->mismatches += 1;
        }
      }
    };
    check_array([&](auto st) {
      return sac::force(sac::ewise(w1, std::move(st), std::plus<>{}));
    });
    check_array([&](auto st) {
      return sac::force(sac::ewise(own(w1), std::move(st), std::minus<>{}));
    });
    check_array([&](auto st) {
      return sac::force(sac::ewise(
          own(w2), sac::ewise(w1, std::move(st), std::plus<>{}),
          std::plus<>{}));
    });
  };
  for (const sac::StencilMode mode :
       {sac::StencilMode::kGrouped, sac::StencilMode::kPlanes}) {
    check([&](A x) { return sac::StencilExpr(x, kCoeffs, mode); });
    check([&](A x) {
      auto rc =
          sac::lazy_condense(2, sac::StencilExpr(x, kCoeffs, mode), phase);
      const IndexVec coarse = rc.shape().extents() + 1;
      return sac::lazy_embed(coarse, 0 * coarse, std::move(rc));
    });
    check_merges([&](A x) { return sac::StencilExpr(x, kCoeffs, mode); });
  }
  check([&](A x) {
    return sac::lazy_take(ts, sac::lazy_scatter(2, x, phase));
  });
  if (!view.is_view()) stats->mismatches += 1;  // no reader may force it
}

// coarse2fine's stencil over take(scatter(.)), read straight from a random
// array or from a view of one, against the stencil over the forced gather
// on every engine and stencil mode; and mg_sac_direct's periodic stencil
// over the whole scatter(.) of the same source, against the periodic stencil
// over the forced scatter.  Equal under ==: the exact-zero taps they drop
// can flip the sign of a zero, nothing else.
void fuzz_scatter_stencils(Rng& rng, BackendFuzzReport* stats) {
  const Shape coarse{rng.range(3, 6), rng.range(3, 6),
                     fuzz_row_length(rng) / 2 + 3};
  const sac::Array<double> base = fuzz_array(rng, coarse);
  const sac::Array<double> src =
      rng.pick(2) == 0
          ? base
          : sac::with_modarray_reading(base, fuzz_slab_parts(rng, coarse));
  const extent_t phase = rng.range(0, 1);
  IndexVec ts(3);
  for (std::size_t d = 0; d < 3; ++d) {
    ts[d] = rng.range(3, 2 * coarse.extent(d));
  }
  sac::SacConfig cfg = sac::config();
  cfg.stencil_planes_cutover = 0;
  sac::ScopedConfig guard(cfg);
  const auto gather = sac::lazy_take(ts, sac::lazy_scatter(2, src, phase));
  const auto scatter = sac::lazy_scatter(2, src, phase);
  // Coefficients that round, so that each mode's association order shows.
  constexpr sac::StencilCoeffs kRounding{{-8.0 / 3.0, 0.3, 1.0 / 6.0, 0.1}};
  auto check = [&](const sac::Array<double>& got,
                   const sac::Array<double>& want) {
    stats->exprs_checked += 1;
    stats->scatter_stencils_checked += 1;
    if (!arrays_equal_values(got, want)) stats->mismatches += 1;
  };
  for (const sac::StencilMode mode :
       {sac::StencilMode::kNaive, sac::StencilMode::kGrouped,
        sac::StencilMode::kPlanes}) {
    for (const FuzzKind& k : fuzz_kinds()) {
      const UseKind use(k);
      check(sac::relax_kernel(gather, kRounding, mode),
            sac::relax_kernel(sac::force(gather), kRounding, mode));
      check(sac::relax_kernel_periodic(scatter, kRounding, mode),
            sac::relax_kernel_periodic(sac::force(scatter), kRounding, mode));
    }
  }
}

}  // namespace

BackendFuzzReport fuzz_backend_rows(std::uint64_t seed, int rounds) {
  Rng rng{seed | 1};
  BackendFuzzReport stats;
  const auto engines = fuzz_engines();
  for (int r = 0; r < rounds; ++r) {
    fuzz_primitives(rng, engines, &stats);
    fuzz_gather_rows(rng, &stats);
    fuzz_stencil_gathers(rng, &stats);
    fuzz_degenerate_stencils(rng, &stats);
    fuzz_view_chains(rng, &stats);
    fuzz_scatter_stencils(rng, &stats);
  }
  return stats;
}

}  // namespace sacpp::check
