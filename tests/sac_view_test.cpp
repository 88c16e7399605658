// Copy-free views (array.hpp, with_loop.hpp): the differential battery.
//
// A periodic border over a shared base is a view.  Every reader of views —
// the stencil's per-point evaluators and kPlanes rows, the gather rows of a
// concrete array, the element accessors — and every eager operation that
// forces one must give, bitwise, what the same expression gives over the
// forced view, on every engine, stencil mode and thread count, while the
// shared base keeps its values.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

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

// psinv's in-place update z + S r (mg_sac.cpp's AddSmoothBody): the
// kPlanes rows accumulate into z's own rows.
struct AddSmoothBody {
  const StencilExpr& st;
  const double* self;
  extent_t e1, e2;

  double operator()(extent_t i, extent_t j, extent_t k) const {
    return self[(i * e1 + j) * e2 + k] + st(i, j, k);
  }
  double operator()(const IndexVec& iv) const {
    return (*this)(iv[0], iv[1], iv[2]);
  }
  bool row_fill_enabled() const { return st.row_fill_enabled(); }
  PlaneScratch make_row_state() const { return st.make_row_state(); }
  void fill_row(PlaneScratch& s, extent_t i, extent_t j, double* out,
                extent_t k_lo, extent_t k_hi) const {
    st.accumulate_row(s, i, j, out, k_lo, k_hi);
  }
};

Array<double> add_smooth(Array<double> z, const Array<double>& r) {
  const StencilExpr st(r, kSmoother);
  const Shape shp = z.shape();
  double* self = z.mutable_data();
  const auto g = detail::resolve(gen_all(), shp);
  if (shp.rank() == 3) {
    detail::execute_assign(
        self, shp, g, AddSmoothBody{st, self, shp.extent(1), shp.extent(2)});
  } else {
    detail::execute_assign(self, shp, g, [&](const IndexVec& iv) {
      return self[shp.linearize(iv)] + st(iv);
    });
  }
  return z;
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
  same("zip_into", [&](A x) {
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
          sv.accumulate_row(s1, 1, 1, a.data(), lo, n2 - lo / 2);
          sf.accumulate_row(s2, 1, 1, b.data(), lo, n2 - lo / 2);
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

}  // namespace
}  // namespace sacpp::sac
