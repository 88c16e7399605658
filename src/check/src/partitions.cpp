#include "sacpp/check/partitions.hpp"

#include <string>

#include "sacpp/common/error.hpp"
#include "sacpp/common/index_space.hpp"

namespace sacpp::check {

namespace {
constexpr extent_t kPartitionCheckLimit = extent_t{1} << 24;
}

std::vector<Diagnostic> verify_partitions(const Shape& shape,
                                          const std::vector<sac::Gen>& gens,
                                          PartitionMode mode) {
  std::vector<Diagnostic> diags;
  const extent_t total = shape.elem_count();
  if (total > kPartitionCheckLimit) {
    diags.push_back(Diagnostic{
        Severity::kWarning, Pass::kPartitions, "partitions",
        "index space " + shape.to_string() +
            " too large for the exact partition check; skipped"});
    return diags;
  }

  // Exact coverage map: owner partition + 1 per cell (0 = uncovered).  The
  // generator walk is the same odometer the with-loop engine uses, so
  // step/width grids are handled exactly.
  std::vector<std::uint32_t> owner(static_cast<std::size_t>(total), 0);
  extent_t covered = 0;
  for (std::size_t p = 0; p < gens.size(); ++p) {
    sac::detail::ResolvedGen g;
    try {
      g = sac::detail::resolve(gens[p], shape);
    } catch (const ContractError& e) {
      diags.push_back(Diagnostic{Severity::kError, Pass::kPartitions,
                                 "partition " + std::to_string(p),
                                 std::string("invalid generator: ") +
                                     e.what()});
      continue;
    }
    bool overlap_reported = false;
    extent_t overlap_count = 0;
    for_each_index_grid(
        g.lower, g.upper, g.step, g.width, [&](const IndexVec& iv) {
          const auto cell = static_cast<std::size_t>(shape.linearize(iv));
          if (owner[cell] != 0) {
            ++overlap_count;
            if (!overlap_reported) {
              overlap_reported = true;
              diags.push_back(Diagnostic{
                  Severity::kError, Pass::kPartitions,
                  "partition " + std::to_string(p),
                  "overlaps partition " + std::to_string(owner[cell] - 1) +
                      ", first at index " + Shape(iv).to_string()});
            }
          } else {
            owner[cell] = static_cast<std::uint32_t>(p) + 1;
            ++covered;
          }
        });
    if (overlap_count > 1) {
      diags.back().message +=
          " (" + std::to_string(overlap_count) + " cells total)";
    }
  }

  if (mode == PartitionMode::kTiling && covered != total) {
    diags.push_back(Diagnostic{
        Severity::kError, Pass::kPartitions, "partitions",
        std::to_string(total - covered) + " of " + std::to_string(total) +
            " cells of " + shape.to_string() +
            " are not covered by any partition"});
  }
  return diags;
}

}  // namespace sacpp::check
