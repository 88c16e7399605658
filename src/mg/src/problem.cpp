#include "sacpp/mg/problem.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>

#include "sacpp/common/error.hpp"
#include "sacpp/nasrand/nasrand.hpp"
#include "sacpp/sac/array_lib.hpp"

namespace sacpp::mg {

namespace {

constexpr extent_t kCharges = 10;  // per sign: NPB's mm

// The `want` (at most kCharges) best deviates of the stream so far, best
// first, with their scan positions.  `Better` is strict, so an equal later
// deviate never displaces an earlier one.  `open` is a bar every deviate
// passes (the generator never yields 0 or 2^46), in force until `want` are
// kept; from then on the bar is the worst kept value, so the scan loop
// tests each deviate against one number.
template <typename Better>
class Selector {
 public:
  Selector(std::size_t want, std::uint64_t open) : want_(want), bar_(open) {}

  bool admits(std::uint64_t x) const { return Better{}(x, bar_); }

  // Insert an admitted deviate, dropping the worst one when full.
  void insert(std::uint64_t x, extent_t pos) {
    std::size_t i = n_ < want_ ? n_++ : n_ - 1;
    for (; i > 0 && Better{}(x, vals_[i - 1]); --i) {
      vals_[i] = vals_[i - 1];
      pos_[i] = pos_[i - 1];
    }
    vals_[i] = x;
    pos_[i] = pos;
    if (n_ == want_) bar_ = vals_[n_ - 1];
  }

  // The kept positions, best first, as (i3, i2, i1) interior coordinates.
  std::vector<IndexVec> positions(extent_t nx) const {
    const Shape cube = cube_shape(3, nx);
    std::vector<IndexVec> out;
    for (std::size_t i = 0; i < n_; ++i) {
      out.push_back(cube.delinearize(pos_[i]));
    }
    return out;
  }

 private:
  std::size_t want_;
  std::uint64_t bar_;
  std::size_t n_ = 0;
  std::uint64_t vals_[kCharges] = {};
  extent_t pos_[kCharges] = {};
};

// The extended positions that hold interior coordinate c on one axis: c + 1,
// and the ghost layers comm3 copies it to (layer n - 2 goes to ghost 0,
// layer 1 to ghost n - 1; both when nx == 1).
struct Images {
  extent_t at[3] = {};
  int n = 0;
};

Images images(extent_t c, extent_t nx) {
  Images im;
  im.at[im.n++] = c + 1;
  if (c == nx - 1) im.at[im.n++] = 0;
  if (c == 0) im.at[im.n++] = nx + 1;
  return im;
}

// Call put(i, j, k, value) at every periodic image, in extended
// coordinates, of each charge of the nx^3 field: the +1 charges first, so a
// -1 wins a point that both reach (nx^3 < 20).
template <typename Put>
void place_charges(extent_t nx, Put put) {
  const Charges ch = zran3_charges(nx);
  auto place = [&](const IndexVec& c, double value) {
    const Images is = images(c[0], nx), js = images(c[1], nx),
                 ks = images(c[2], nx);
    for (int a = 0; a < is.n; ++a) {
      for (int b = 0; b < js.n; ++b) {
        for (int d = 0; d < ks.n; ++d) {
          put(is.at[a], js.at[b], ks.at[d], value);
        }
      }
    }
  };
  for (const auto& p : ch.plus) place(p, +1.0);
  for (const auto& m : ch.minus) place(m, -1.0);
}

}  // namespace

Charges zran3_charges(extent_t nx) {
  SACPP_REQUIRE(nx >= 1, "zran3 needs nx >= 1");
  const extent_t total = nx * nx * nx;
  const auto want =
      static_cast<std::size_t>(std::min<extent_t>(kCharges, total));
  Selector<std::greater<>> plus(want, 0);
  Selector<std::less<>> minus(want, nasrand::kMask46 + 1);
  const auto a = static_cast<std::uint64_t>(nasrand::kDefaultMultiplier);
  auto x = static_cast<std::uint64_t>(nasrand::kDefaultSeed);
  for (extent_t pos = 0; pos < total; ++pos) {
    x = nasrand::lcg46_step(x, a);
    if (plus.admits(x)) [[unlikely]] plus.insert(x, pos);
    if (minus.admits(x)) [[unlikely]] minus.insert(x, pos);
  }
  return Charges{plus.positions(nx), minus.positions(nx)};
}

void fill_rhs_planes(std::span<double> planes, extent_t nx, extent_t first,
                     extent_t count) {
  const extent_t n = nx + 2;
  SACPP_REQUIRE(first >= 0 && count >= 0 && first + count <= n,
                "RHS plane range outside the extended cube");
  SACPP_REQUIRE(planes.size() == static_cast<std::size_t>(count * n * n),
                "RHS plane buffer size mismatch");
  std::fill(planes.begin(), planes.end(), 0.0);
  place_charges(nx, [&](extent_t i, extent_t j, extent_t k, double value) {
    i -= first;
    if (i >= 0 && i < count) {
      planes[static_cast<std::size_t>((i * n + j) * n + k)] = value;
    }
  });
}

void fill_rhs(std::span<double> v_ext, extent_t nx) {
  fill_rhs_planes(v_ext, nx, 0, nx + 2);
}

sac::Array<double> rhs_array(extent_t nx, extent_t lo) {
  SACPP_REQUIRE(lo == 0 || lo == 1, "rhs_array: lo must be 0 or 1");
  const extent_t n = nx + 2 - 2 * lo;
  sac::Array<double> v = sac::genarray_const(cube_shape(3, n), 0.0);
  double* data = v.mutable_data();
  place_charges(nx, [&](extent_t i, extent_t j, extent_t k, double value) {
    i -= lo;
    j -= lo;
    k -= lo;
    if (i >= 0 && i < n && j >= 0 && j < n && k >= 0 && k < n) {
      data[static_cast<std::size_t>((i * n + j) * n + k)] = value;
    }
  });
  return v;
}

void periodic_border_3d(std::span<double> a, extent_t n) {
  SACPP_REQUIRE(a.size() == static_cast<std::size_t>(n * n * n),
                "extended cube buffer size mismatch");
  SACPP_REQUIRE(n >= 3, "extended cube needs extent >= 3");
  auto idx = [n](extent_t i, extent_t j, extent_t k) {
    return static_cast<std::size_t>((i * n + j) * n + k);
  };
  // Axis 2 (fastest), then axis 1, then axis 0 — the NPB comm3 order; later
  // axes replicate the edge/corner values written by earlier ones.
  for (extent_t i = 0; i < n; ++i) {
    for (extent_t j = 0; j < n; ++j) {
      a[idx(i, j, 0)] = a[idx(i, j, n - 2)];
      a[idx(i, j, n - 1)] = a[idx(i, j, 1)];
    }
  }
  for (extent_t i = 0; i < n; ++i) {
    for (extent_t k = 0; k < n; ++k) {
      a[idx(i, 0, k)] = a[idx(i, n - 2, k)];
      a[idx(i, n - 1, k)] = a[idx(i, 1, k)];
    }
  }
  for (extent_t j = 0; j < n; ++j) {
    for (extent_t k = 0; k < n; ++k) {
      a[idx(0, j, k)] = a[idx(n - 2, j, k)];
      a[idx(n - 1, j, k)] = a[idx(1, j, k)];
    }
  }
}

double interior_l2_norm(std::span<const double> a, extent_t n) {
  SACPP_REQUIRE(a.size() == static_cast<std::size_t>(n * n * n),
                "extended cube buffer size mismatch");
  const extent_t nx = n - 2;
  double ss = 0.0;
  for (extent_t i = 1; i < n - 1; ++i) {
    for (extent_t j = 1; j < n - 1; ++j) {
      const double* row = a.data() + static_cast<std::size_t>((i * n + j) * n);
      for (extent_t k = 1; k < n - 1; ++k) ss += row[k] * row[k];
    }
  }
  return std::sqrt(ss / static_cast<double>(nx * nx * nx));
}

double interior_max_abs(std::span<const double> a, extent_t n) {
  SACPP_REQUIRE(a.size() == static_cast<std::size_t>(n * n * n),
                "extended cube buffer size mismatch");
  double m = 0.0;
  for (extent_t i = 1; i < n - 1; ++i) {
    for (extent_t j = 1; j < n - 1; ++j) {
      const double* row = a.data() + static_cast<std::size_t>((i * n + j) * n);
      for (extent_t k = 1; k < n - 1; ++k) m = std::max(m, std::abs(row[k]));
    }
  }
  return m;
}

}  // namespace sacpp::mg
