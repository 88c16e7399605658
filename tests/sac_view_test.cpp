// Copy-free views (array.hpp, with_loop.hpp) and force's in-place ewise
// (expr.hpp): the differential batteries.
//
// A periodic border over a shared base is a view.  Every reader of views —
// the stencil's per-point evaluators and kPlanes rows, the gather rows of a
// concrete array, the element accessors — and every eager operation that
// forces one must give, bitwise, what the same expression gives over the
// forced view, on every engine, stencil mode and thread count, while the
// shared base keeps its values.  Likewise force(ewise(std::move(a), rhs,
// op)) must give what the out-of-place force gives, in a's own buffer
// exactly when a held it alone with reuse on.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "sacpp/check/runtime_check.hpp"
#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/sac.hpp"

namespace sacpp::sac {
namespace {

constexpr StencilCoeffs kCoeffs{{-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0}};
constexpr StencilCoeffs kSmoother{{-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0}};

// An engine: a kind and, for kSimd, the instance it is pinned to (nullptr:
// this host's own).
struct Engine {
  BackendKind kind;
  const Backend* pin = nullptr;
};

struct Combo {
  StencilMode mode;
  Engine engine;
  unsigned threads;
  std::int64_t cutover;  // SacConfig::stencil_planes_cutover
};

std::string label(const Shape& shp, const Combo& c) {
  std::ostringstream os;
  os << "shape {";
  for (std::size_t d = 0; d < shp.rank(); ++d) {
    os << (d ? "," : "") << shp.extent(d);
  }
  os << "} " << stencil_mode_name(c.mode) << " cutover " << c.cutover << " "
     << backend_name(c.engine.kind);
  if (c.engine.pin != nullptr) os << " [" << c.engine.pin->name() << "]";
  os << " threads " << c.threads;
  return os.str();
}

// kSimd runs on this host's instance and on the baseline one.  The jit
// engine joins only under SACPP_JIT_SYNC=1, when its rows run compiled
// kernels rather than the fallback engine.
std::vector<Engine> engines() {
  std::vector<Engine> v{{BackendKind::kScalar},
                        {BackendKind::kSimd},
                        {BackendKind::kSimd, &detail::portable_backend()}};
  const char* sync = std::getenv("SACPP_JIT_SYNC");
  if (sync != nullptr && std::string(sync) == "1") {
    v.push_back({BackendKind::kJit});
  }
  return v;
}

std::vector<Combo> all_combos() {
  std::vector<Combo> v;
  for (const StencilMode mode :
       {StencilMode::kNaive, StencilMode::kGrouped, StencilMode::kPlanes}) {
    for (const Engine& be : engines()) {
      for (const unsigned threads : {1u, 4u}) {
        v.push_back(Combo{mode, be, threads, 18});
        // Planes rows on every grid size, not just above the cutover.
        if (mode == StencilMode::kPlanes) {
          v.push_back(Combo{mode, be, threads, 0});
        }
      }
    }
  }
  return v;
}

Array<double> random_array(const Shape& shp, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  return with_genarray<double>(shp, [&](const IndexVec&) { return dist(rng); });
}

bool same_bits(const Array<double>& a, const Array<double>& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.elem_count()) *
                         sizeof(double)) == 0;
}

// The MG periodic border as face-slab shift partitions.
std::vector<ReadingPartition<double>> periodic_parts(const Shape& shp) {
  const std::size_t rank = shp.rank();
  std::vector<ReadingPartition<double>> parts;
  for (std::size_t d = 0; d < rank; ++d) {
    const extent_t n = shp.extent(d);
    IndexVec shift = uniform_vec(rank, 0);
    IndexVec low_up(shp.extents().begin(), shp.extents().end());
    low_up[d] = 1;
    shift[d] = n - 2;
    parts.push_back(shift_partition<double>(
        gen_range(uniform_vec(rank, 0), std::move(low_up)), shift));
    IndexVec high_lo = uniform_vec(rank, 0);
    high_lo[d] = n - 1;
    shift[d] = -(n - 2);
    parts.push_back(shift_partition<double>(
        gen_range(std::move(high_lo), shp.extents()), std::move(shift)));
  }
  return parts;
}

// psinv's in-place update z + S r, as mg_sac writes it: z's private copy
// is its last reference, so force writes the sum into z's own buffer, the
// kPlanes rows accumulating into z's rows.
Array<double> add_smooth(Array<double> z, const Array<double>& r) {
  (void)z.mutable_data();  // copy-on-write: z now holds its buffer alone
  return force(ewise(std::move(z), StencilExpr(r, kSmoother), std::plus<>{}));
}

// Row-protocol calls on sub-ranges of a row, which the with-loop engine
// never issues itself but the nested gathers do: every (row, range) pair of
// `rows` over the view must write what it writes over the forced view.
template <typename MakeExpr>
void expect_same_rows(const Array<double>& view, const Array<double>& forced,
                      MakeExpr make, const std::string& what) {
  const auto over_view = make(view);
  const auto over_forced = make(forced);
  if (over_view.shape().rank() != 3 || !over_view.row_fill_enabled()) return;
  const Shape& shp = over_view.shape();
  const extent_t n2 = shp.extent(2);
  auto s1 = over_view.make_row_state();
  auto s2 = over_forced.make_row_state();
  const std::vector<std::pair<extent_t, extent_t>> ranges{
      {0, n2}, {1, 2}, {0, 2}, {n2 - 2, n2}, {2, n2 - 2}, {n2 / 2, n2 / 2 + 1}};
  const extent_t di = std::max<extent_t>(1, shp.extent(0) / 4);
  const extent_t dj = std::max<extent_t>(1, shp.extent(1) / 3);
  for (extent_t i = 0; i < shp.extent(0); i += di) {
    for (extent_t j = 0; j < shp.extent(1); j += dj) {
      for (const auto& [lo, hi] : ranges) {
        if (lo < 0 || hi > n2 || lo >= hi) continue;
        std::vector<double> a(static_cast<std::size_t>(n2), 0.5);
        std::vector<double> b = a;
        over_view.fill_row(s1, i, j, a.data(), lo, hi);
        over_forced.fill_row(s2, i, j, b.data(), lo, hi);
        ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)),
                  0)
            << what << " row (" << i << ", " << j << ") [" << lo << ", " << hi
            << ")";
      }
    }
  }
}

// Every reader over the view of a shared base against the forced view.
void check_views(const Shape& shp, unsigned seed, const Combo& c) {
  // The inputs first: random_array's generator must run sequentially.
  const Array<double> base = random_array(shp, seed);
  const Array<double> w = random_array(shp, seed + 1);
  SacConfig cfg = config();
  cfg.stencil_mode = c.mode;
  cfg.backend = c.engine.kind;
  cfg.mt_enabled = c.threads > 1;
  cfg.mt_threads = c.threads;
  cfg.mt_threshold = 1;
  cfg.stencil_planes_cutover = c.cutover;
  ScopedConfig guard(cfg);
  const detail::ScopedSimdOverride pin(c.engine.pin);
  const std::string where = label(shp, c);

  const std::vector<double> before(base.data(),
                                   base.data() + base.elem_count());
  const Array<double> view = with_modarray_reading(base, periodic_parts(shp));
  ASSERT_TRUE(view.is_view()) << where;
  Array<double> forced = view;
  forced.materialise();
  const std::size_t rank = shp.rank();

  auto same = [&](const char* what, auto f) {
    const Array<double> got = f(view);
    const Array<double> want = f(forced);
    EXPECT_TRUE(same_bits(got, want)) << what << ", " << where;
  };
  using A = const Array<double>&;
  if (rank <= 3) {  // the stencil's coefficient classes stop at rank 3
    same("relax_kernel", [&](A x) { return relax_kernel(x, kCoeffs); });
    same("ewise(v, stencil)", [&](A x) {
      return force(ewise(w, StencilExpr(x, kCoeffs), std::minus<>{}));
    });
    same("add_smooth", [&](A x) { return add_smooth(w, x); });
    same("embed(condense(stencil))", [&](A x) {
      auto rc = lazy_condense(2, StencilExpr(x, kCoeffs));
      const IndexVec coarse = rc.shape().extents() + 1;
      return force(lazy_embed(coarse, 0 * coarse, std::move(rc)));
    });
  }
  same("take(scatter)", [&](A x) {
    return force(lazy_take(2 * shp.extents() - 2, lazy_scatter(2, x)));
  });
  // Eager operations: some read the view per element, the others force
  // their own handle of it, never the caller's.
  same("zip", [&](A x) { return x - w; });
  same("move-qualified +", [&](A x) {
    Array<double> own = x;
    return std::move(own) + w;
  });
  same("map", [&](A x) { return x * 0.5; });
  same("folds", [&](A x) {
    const double ss = with_fold(std::plus<>{}, 0.0, shp, gen_all(),
                                sum_sq_rows(x));
    return Array<double>::vector({sum(x), max_abs(x), ss});
  });

  if (rank == 3) {
    expect_same_rows(view, forced,
                     [&](A x) { return StencilExpr(x, kCoeffs); },
                     "stencil fill_row, " + where);
    expect_same_rows(view, forced,
                     [&](A x) { return lazy_scatter(2, x, 1); },
                     "scatter fill_row, " + where);
    expect_same_rows(view, forced,
                     [&](A x) { return lazy_condense(2, x, 1); },
                     "condense fill_row, " + where);
    expect_same_rows(view, forced,
                     [&](A x) {
                       return lazy_embed(shp.extents() + 2,
                                         uniform_vec(3, 1), x);
                     },
                     "embed fill_row, " + where);
    // accumulate_row on sub-ranges, into a row holding other values.
    if (c.mode == StencilMode::kPlanes) {
      const StencilExpr sv(view, kCoeffs), sf(forced, kCoeffs);
      if (sv.row_fill_enabled()) {
        auto s1 = sv.make_row_state();
        auto s2 = sf.make_row_state();
        const extent_t n2 = shp.extent(2);
        for (extent_t lo = 0; lo < n2; lo += 3) {
          std::vector<double> a(static_cast<std::size_t>(n2), 0.25);
          std::vector<double> b = a;
          sv.merge_row<RowMerge::kAdd>(s1, 1, 1, a.data(), nullptr, a.data(),
                                       lo, n2 - lo / 2);
          sf.merge_row<RowMerge::kAdd>(s2, 1, 1, b.data(), nullptr, b.data(),
                                       lo, n2 - lo / 2);
          EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)),
                    0)
              << "accumulate_row from " << lo << ", " << where;
        }
      }
    }
  }

  EXPECT_TRUE(view.is_view()) << "a reader forced the caller's view, " << where;
  EXPECT_EQ(std::memcmp(base.data(), before.data(),
                        before.size() * sizeof(double)),
            0)
      << "the shared base changed, " << where;
}

// Every combination over small and awkward shapes of every rank.
TEST(ViewBattery, EveryEngineModeAndThreadCount) {
  const std::vector<Shape> shapes{
      Shape{3},       Shape{9},        Shape{4, 4},     Shape{7, 12},
      Shape{3, 3, 3}, Shape{4, 4, 4},  Shape{5, 18, 7}, Shape{18, 6, 34},
      Shape{3, 20, 19}, cube_shape(3, 18), cube_shape(3, 34),
      Shape{4, 4, 4, 4}, Shape{5, 3, 6, 4}};
  unsigned seed = 1;
  for (const Combo& c : all_combos()) {
    for (const Shape& shp : shapes) check_views(shp, seed++, c);
  }
  shutdown_runtime();
}

// Every cubic extent of the V-cycle's range, rotating through the
// combinations so that each one meets many extents.
TEST(ViewBattery, CubicExtents3To66) {
  const std::vector<Combo> combos = all_combos();
  for (extent_t n = 3; n <= 66; ++n) {
    const auto idx = static_cast<std::size_t>(n);
    check_views(cube_shape(3, n), 500 + static_cast<unsigned>(n),
                combos[idx % combos.size()]);
    // The benchmark's own configuration at every extent.
    check_views(cube_shape(3, n), 600 + static_cast<unsigned>(n),
                Combo{StencilMode::kPlanes, {BackendKind::kSimd},
                      n % 2 == 0 ? 4u : 1u, 18});
  }
  shutdown_runtime();
}

// -- the fused stencil row forms ---------------------------------------------

// The interior of an extended grid: its ghost-free form.
Array<double> interior(const Array<double>& ext) {
  IndexVec pure(ext.shape().extents().begin(), ext.shape().extents().end());
  for (extent_t& e : pure) e -= 2;
  return with_genarray<double>(Shape(pure), [&](const IndexVec& iv) {
    return ext[iv + 1];
  });
}

// A private copy: its holder alone owns the buffer, so force's in-place
// form writes into it.
Array<double> own(const Array<double>& a) {
  Array<double> c = a;
  c.materialise();
  (void)c.mutable_data();
  return c;
}

// Every row form the planes engine fuses — S, a + S, a - S and
// b + (a + S), out of place and in place — read through a periodic border
// view, through the same border materialised, and through the periodic
// form's wrap maps over the ghost-free grid: the view and the materialised
// border agree bit for bit on the whole grid, and the wrap maps give their
// interior.
void check_merge_forms(const Shape& ext, unsigned seed, const Combo& c) {
  const Array<double> x = random_array(ext, seed);
  const Array<double> a = random_array(ext, seed + 1);
  const Array<double> b = random_array(ext, seed + 2);
  const Array<double> xp = interior(x), ap = interior(a), bp = interior(b);
  SacConfig cfg = config();
  cfg.stencil_mode = c.mode;
  cfg.backend = c.engine.kind;
  cfg.mt_enabled = c.threads > 1;
  cfg.mt_threads = c.threads;
  cfg.mt_threshold = 1;
  cfg.stencil_planes_cutover = c.cutover;
  ScopedConfig guard(cfg);
  const detail::ScopedSimdOverride pin(c.engine.pin);
  const std::string where = label(ext, c);
  const Array<double> view = with_modarray_reading(x, periodic_parts(ext));
  ASSERT_TRUE(view.is_view()) << where;
  Array<double> forced = view;
  forced.materialise();

  // Each form over an extended argument (`periodic` false) or over the
  // ghost-free one, with its operands.
  using A = const Array<double>&;
  auto forms = [&](auto check) {
    check("S", [](auto st, A, A) { return force(st); });
    check("a + S", [](auto st, A a1, A) {
      return force(ewise(a1, std::move(st), std::plus<>{}));
    });
    check("a - S", [](auto st, A a1, A) {
      return force(ewise(a1, std::move(st), std::minus<>{}));
    });
    check("a + S in place", [](auto st, A a1, A) {
      return force(ewise(own(a1), std::move(st), std::plus<>{}));
    });
    check("a - S in place", [](auto st, A a1, A) {
      return force(ewise(own(a1), std::move(st), std::minus<>{}));
    });
    check("b + (a + S)", [](auto st, A a1, A b1) {
      return force(ewise(b1, ewise(a1, std::move(st), std::plus<>{}),
                         std::plus<>{}));
    });
    check("b + (a + S) in place", [](auto st, A a1, A b1) {
      return force(ewise(own(b1), ewise(a1, std::move(st), std::plus<>{}),
                         std::plus<>{}));
    });
  };
  forms([&](const char* what, auto form) {
    const Array<double> over_view = form(StencilExpr(view, kCoeffs), a, b);
    const Array<double> over_grid = form(StencilExpr(forced, kCoeffs), a, b);
    const Array<double> wrapped =
        form(StencilExpr::periodic(xp, kCoeffs), ap, bp);
    EXPECT_TRUE(same_bits(over_view, over_grid)) << what << ", " << where;
    EXPECT_TRUE(same_bits(interior(over_view), wrapped))
        << what << " over the wrap maps, " << where;
  });
  EXPECT_TRUE(view.is_view()) << "a form forced the caller's view, " << where;
}

TEST(ViewBattery, StencilRowFormsAgreeOverViewsWrapMapsAndGrids) {
  const std::vector<Shape> shapes{cube_shape(3, 18), Shape{6, 10, 34},
                                  cube_shape(3, 34)};
  unsigned seed = 700;
  for (const Engine& be : engines()) {
    for (const unsigned threads : {1u, 2u, 3u, 4u}) {
      for (const Shape& shp : shapes) {
        check_merge_forms(shp, seed,
                          Combo{StencilMode::kPlanes, be, threads, 0});
        seed += 3;
      }
    }
  }
  // The per-point forms below the cutover and in grouped mode, once.
  check_merge_forms(cube_shape(3, 18), seed,
                    Combo{StencilMode::kPlanes, {BackendKind::kSimd}, 1, 64});
  check_merge_forms(cube_shape(3, 18), seed + 3,
                    Combo{StencilMode::kGrouped, {BackendKind::kScalar}, 4, 18});
  shutdown_runtime();
}

// A kSimd engine that counts its calls and runs them on this host's own
// instance.
class CountingEngine final : public Backend {
 public:
  const char* name() const noexcept override { return "counting"; }
  unsigned lanes() const noexcept override { return be_.lanes(); }
  bool vectorized() const noexcept override { return true; }
  void fill_row(double* o, extent_t lo, extent_t hi, double v) const override {
    other += 1;
    be_.fill_row(o, lo, hi, v);
  }
  void copy_row(double* o, const double* s, extent_t lo,
                extent_t hi) const override {
    other += 1;
    be_.copy_row(o, s, lo, hi);
  }
  void plane_sums(const double* im, const double* ip, const double* jm,
                  const double* jp, const double* imm, const double* imp,
                  const double* ipm, const double* ipp, double* u1, double* u2,
                  extent_t n) const override {
    other += 1;
    be_.plane_sums(im, ip, jm, jp, imm, imp, ipm, ipp, u1, u2, n);
  }
  void combine_row(const double* c, const double* uc, const double* u1,
                   const double* u2, double* o, extent_t lo,
                   extent_t hi) const override {
    other += 1;
    be_.combine_row(c, uc, u1, u2, o, lo, hi);
  }
  void accumulate_row(const double* c, const double* uc, const double* u1,
                      const double* u2, double* o, extent_t lo,
                      extent_t hi) const override {
    other += 1;
    be_.accumulate_row(c, uc, u1, u2, o, lo, hi);
  }
  using Backend::stencil_row;
  void stencil_row(const StencilRow& row) const override {
    rows += 1;
    be_.stencil_row(row);
  }
  void add_into_row(const double* a, double* o, extent_t lo,
                    extent_t hi) const override {
    other += 1;
    be_.add_into_row(a, o, lo, hi);
  }
  void sub_into_row(const double* a, double* o, extent_t lo,
                    extent_t hi) const override {
    other += 1;
    be_.sub_into_row(a, o, lo, hi);
  }
  void mul_into_row(const double* a, double* o, extent_t lo,
                    extent_t hi) const override {
    other += 1;
    be_.mul_into_row(a, o, lo, hi);
  }
  void gather_row(double* o, const double* s, extent_t st,
                  extent_t n) const override {
    other += 1;
    be_.gather_row(o, s, st, n);
  }
  void scatter_row(double* o, extent_t st, const double* s,
                   extent_t n) const override {
    other += 1;
    be_.scatter_row(o, st, s, n);
  }
  void sum_rows(const double* a, const double* b, const double* c,
                const double* d, double* w, extent_t n) const override {
    other += 1;
    be_.sum_rows(a, b, c, d, w, n);
  }
  void interp_row(double ca, double cb, const double* w, double* o,
                  extent_t lo, extent_t hi) const override {
    other += 1;
    be_.interp_row(ca, cb, w, o, lo, hi);
  }
  double sum_sq_row(double acc, const double* p, extent_t lo,
                    extent_t hi) const override {
    other += 1;
    return be_.sum_sq_row(acc, p, lo, hi);
  }
  double max_abs_row(double acc, const double* p, extent_t lo,
                     extent_t hi) const override {
    other += 1;
    return be_.max_abs_row(acc, p, lo, hi);
  }

  mutable std::uint64_t rows = 0;   // fused stencil rows
  mutable std::uint64_t other = 0;  // every other primitive

 private:
  const Backend& be_ = detail::simd_backend();
};

// resid (v - A u, fresh) and psinv (z + S r, in place) through a periodic
// border view make one engine call per interior row and no other.
TEST(ViewBattery, ResidAndPsinvMakeOneEngineCallPerInteriorRow) {
  for (const extent_t n : {extent_t{18}, extent_t{34}, extent_t{66}}) {
    const Shape shp = cube_shape(3, n);
    const Array<double> u = random_array(shp, 800 + static_cast<unsigned>(n));
    const Array<double> v = random_array(shp, 900 + static_cast<unsigned>(n));
    SacConfig cfg = config();
    cfg.stencil_mode = StencilMode::kPlanes;
    cfg.backend = BackendKind::kSimd;
    cfg.mt_enabled = false;
    ScopedConfig guard(cfg);
    CountingEngine counting;
    const detail::ScopedSimdOverride pin(&counting);
    const auto interior_rows = static_cast<std::uint64_t>((n - 2) * (n - 2));

    const Array<double> r = force(ewise(
        v, StencilExpr(with_modarray_reading(u, periodic_parts(shp)), kCoeffs),
        std::minus<>{}));
    EXPECT_EQ(counting.rows, interior_rows) << "resid, n=" << n;
    EXPECT_EQ(counting.other, 0u) << "resid, n=" << n;

    counting.rows = 0;
    const Array<double> z = force(ewise(
        own(u),
        StencilExpr(with_modarray_reading(r, periodic_parts(shp)), kSmoother),
        std::plus<>{}));
    EXPECT_EQ(counting.rows, interior_rows) << "psinv, n=" << n;
    EXPECT_EQ(counting.other, 0u) << "psinv, n=" << n;
  }
}

// -- force's in-place ewise --------------------------------------------------

// How the left operand reaches force(ewise(std::move(a), rhs, op)).
enum class Lhs { kUnique, kShared, kView, kNoReuse };

const char* lhs_name(Lhs l) {
  switch (l) {
    case Lhs::kUnique: return "unique";
    case Lhs::kShared: return "shared";
    case Lhs::kView: return "view";
    case Lhs::kNoReuse: return "reuse off";
  }
  return "?";
}

// One left operand state against one right operand: bit for bit the
// out-of-place force of the same expression, in a's own buffer exactly
// when a was unique with reuse on — then with no allocation but the
// forced copy of an array view on the right; a second holder and a view's
// base keep their values.
template <typename MakeRhs, typename Op>
void check_in_place(const Array<double>& base, Lhs lhs, const MakeRhs& rhs,
                    Op op, const std::string& where) {
  bool rhs_view = false;
  if constexpr (std::is_same_v<decltype(rhs()), Array<double>>) {
    rhs_view = rhs().is_view();
  }
  const Shape& shp = base.shape();
  const std::vector<double> before(base.data(),
                                   base.data() + base.elem_count());
  Array<double> a = base;
  if (lhs == Lhs::kView) {
    a = with_modarray_reading(base, periodic_parts(shp));
    ASSERT_TRUE(a.is_view()) << where;
  } else if (lhs != Lhs::kShared) {
    (void)a.mutable_data();  // a private copy: a holds its buffer alone
  }
  Array<double> want;
  {
    const auto e = ewise(a, rhs(), op);
    want = force(e);
  }
  SacConfig cfg = config();
  cfg.reuse = lhs != Lhs::kNoReuse;
  ScopedConfig guard(cfg);
  const double* own = a.base_data();
  const RuntimeStats st0 = stats();
  const Array<double> got = force(ewise(std::move(a), rhs(), op));
  const bool in_place = lhs == Lhs::kUnique;
  EXPECT_TRUE(same_bits(got, want)) << where;
  EXPECT_EQ(got.base_data() == own, in_place) << where;
  if (lhs != Lhs::kView) {
    EXPECT_EQ(stats().allocations - st0.allocations,
              in_place && !rhs_view ? 0u : 1u)
        << where;
    EXPECT_EQ(stats().reuses - st0.reuses, in_place ? 1u : 0u) << where;
  }
  EXPECT_EQ(std::memcmp(base.data(), before.data(),
                        before.size() * sizeof(double)),
            0)
      << "the held array changed, " << where;
}

// Every left operand state, right operand and op over one shape.
void check_in_place_all(const Shape& shp, unsigned seed, const Combo& c) {
  // The inputs first: random_array's generator must run sequentially.
  const Array<double> base = random_array(shp, seed);
  const Array<double> w = random_array(shp, seed + 1);
  check::Session session;
  {
    SacConfig cfg = config();
    cfg.stencil_mode = c.mode;
    cfg.backend = c.engine.kind;
    cfg.mt_enabled = c.threads > 1;
    cfg.mt_threads = c.threads;
    cfg.mt_threshold = 1;
    cfg.stencil_planes_cutover = c.cutover;
    ScopedConfig guard(cfg);
    const detail::ScopedSimdOverride pin(c.engine.pin);
    const Array<double> wv = with_modarray_reading(w, periodic_parts(shp));
    auto each_rhs = [&](auto check) {
      check("array", [&] { return w; });
      check("view", [&] { return wv; });
      check("stencil", [&] { return StencilExpr(w, kSmoother); });
      check("stencil over the view", [&] { return StencilExpr(wv, kSmoother); });
      check("periodic stencil",
            [&] { return StencilExpr::periodic(w, kSmoother); });
    };
    auto each_op = [&](auto check) {
      check("+", std::plus<>{});
      check("-", std::minus<>{});
      check("*", std::multiplies<>{});
    };
    for (const Lhs lhs : {Lhs::kUnique, Lhs::kShared, Lhs::kView,
                          Lhs::kNoReuse}) {
      each_rhs([&](const char* rhs_name, const auto& rhs) {
        each_op([&](const char* op_name, auto op) {
          check_in_place(base, lhs, rhs, op,
                         std::string(lhs_name(lhs)) + " " + op_name + " " +
                             rhs_name + ", " + label(shp, c));
        });
      });
    }
  }
  const check::DiagnosticEngine& diags = session.finish();
  EXPECT_TRUE(diags.empty()) << label(shp, c) << "\n" << diags.to_ascii();
}

TEST(InPlaceEwise, EveryRhsOpEngineModeAndThreadCount) {
  const std::vector<Shape> shapes{Shape{9}, Shape{7, 12}, Shape{5, 18, 7},
                                  cube_shape(3, 20)};
  unsigned seed = 900;
  for (const Combo& c : all_combos()) {
    for (const Shape& shp : shapes) {
      check_in_place_all(shp, seed, c);
      seed += 2;
    }
  }
  shutdown_runtime();
}

}  // namespace
}  // namespace sacpp::sac
