#include "sacpp/sac/stencil.hpp"

#include <array>
#include <memory>
#include <mutex>

namespace sacpp::sac {

StencilTable::StencilTable(std::size_t rank) {
  // Enumerate {-1, 0, 1}^rank via a base-3 odometer.
  IndexVec off(rank, -1);
  const extent_t total = [&] {
    extent_t n = 1;
    for (std::size_t d = 0; d < rank; ++d) n *= 3;
    return n;
  }();
  for (extent_t it = 0; it < total; ++it) {
    int cls = 0;
    for (std::size_t d = 0; d < rank; ++d) {
      if (off[d] != 0) ++cls;
    }
    entries_.push_back(Entry{IndexVec(off.begin(), off.end()), cls});
    for (std::size_t d = rank; d-- > 0;) {
      if (++off[d] <= 1) break;
      off[d] = -1;
    }
  }
}

const StencilTable& StencilTable::for_rank(std::size_t rank) {
  SACPP_REQUIRE(rank >= 1 && rank <= 8, "stencil rank must be in [1, 8]");
  // Built on first use, once per rank, by whichever thread gets there
  // first (concurrent solves construct their first stencils together).
  static std::array<std::unique_ptr<StencilTable>, 9> tables;
  static std::array<std::once_flag, 9> built;
  std::call_once(built[rank],
                 [rank] { tables[rank].reset(new StencilTable(rank)); });
  return *tables[rank];
}

StencilExpr::WrapMaps::WrapMaps(const Shape& shp) : axes_(shp.rank()) {
  const IndexVec strides = shp.strides();
  for (std::size_t d = 0; d < shp.rank(); ++d) {
    const extent_t n = shp.extent(d);
    std::vector<extent_t>& m = axes_[d];
    m.reserve(static_cast<std::size_t>(n + 2));
    m.push_back((n - 1) * strides[d]);
    for (extent_t x = 0; x < n; ++x) m.push_back(x * strides[d]);
    m.push_back(0);
  }
  moved_ = {-1, shp.extent(shp.rank() - 1)};
}

Array<double> relax_kernel(const Array<double>& a, const StencilCoeffs& coeffs,
                           StencilMode mode) {
  // The expression itself is the loop body: it offers index-vector, unpacked
  // rank-3 and (in kPlanes mode) row-fill access, so every execution path —
  // generic, D3-specialised, and the shared plane-sum row path — picks the
  // best form available.
  const StencilExpr st(a, coeffs, mode);
  return with_genarray<double>(a.shape(), gen_interior(a.shape()), st, 0.0);
}

Array<double> relax_kernel_periodic(const Array<double>& a,
                                    const StencilCoeffs& coeffs,
                                    StencilMode mode) {
  const StencilExpr st = StencilExpr::periodic(a, coeffs, mode);
  return with_genarray<double>(a.shape(), gen_all(), st, 0.0);
}

}  // namespace sacpp::sac
