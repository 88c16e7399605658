#pragma once
// Static verification of with-loop generator partitions.
//
// verify_partitions checks that a set of with-loop generator partitions
// (step/width grids included) is pairwise disjoint over a result shape and,
// in tiling mode, covers it exactly — the invariant multi-partition
// with-loops (border setup) and the MT runtime's chunking both rely on.

#include <vector>

#include "sacpp/check/diagnostics.hpp"
#include "sacpp/common/shape.hpp"
#include "sacpp/sac/with_loop.hpp"

namespace sacpp::check {

enum class PartitionMode {
  kDisjoint,  // partitions must not overlap
  kTiling,    // disjoint and jointly covering the whole index space
};

// Verify that `gens` partitions the index space of `shape` (exact, walks the
// generators; index spaces above ~16M elements are skipped with a warning).
std::vector<Diagnostic> verify_partitions(const Shape& shape,
                                          const std::vector<sac::Gen>& gens,
                                          PartitionMode mode);

}  // namespace sacpp::check
