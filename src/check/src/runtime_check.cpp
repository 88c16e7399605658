#include "sacpp/check/runtime_check.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "sacpp/sac/check_events.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/sac/stats.hpp"

namespace sacpp::check {

namespace cd = sac::check_detail;

std::vector<Diagnostic> analyze_buffer_events() {
  std::vector<Diagnostic> diags;
  for (const cd::BufferEvent& e : cd::snapshot_buffer_events()) {
    std::ostringstream loc;
    std::ostringstream msg;
    switch (e.kind) {
      case cd::BufferEventKind::kSharedInPlaceWrite:
        loc << "buffer";
        msg << "in-place write to a buffer with reference count " << e.refs
            << " (use-after-steal: the write is visible through every alias)";
        diags.push_back(Diagnostic{Severity::kError, Pass::kAlias, loc.str(),
                                   msg.str()});
        break;
      case cd::BufferEventKind::kForeignOwnershipOp:
        loc << "region " << e.region;
        msg << "buffer ownership mutated from a non-coordinating thread "
               "inside a parallel region (refcount "
            << e.refs << "); ownership changes are coordinator-only";
        diags.push_back(
            Diagnostic{Severity::kError, Pass::kRace, loc.str(), msg.str()});
        break;
      case cd::BufferEventKind::kPoolDoubleRelease:
        loc << "pool";
        msg << "pooled buffer released twice (size class " << e.refs
            << " bytes): the block was already on a free list, so a second "
               "release would let two future allocations alias it";
        diags.push_back(Diagnostic{Severity::kError, Pass::kAlias, loc.str(),
                                   msg.str()});
        break;
      case cd::BufferEventKind::kViewForcedInRegion:
        loc << "region " << e.region;
        msg << "copy-free view forced "
            << (e.refs != 0 ? "on a worker thread"
                            : "by the coordinating thread")
            << " inside a parallel region: forcing rebinds the array's "
               "buffer while other participants may read it; force views "
               "before the with-loop";
        diags.push_back(
            Diagnostic{Severity::kError, Pass::kRace, loc.str(), msg.str()});
        break;
    }
  }
  return diags;
}

std::vector<Diagnostic> analyze_parallel_regions() {
  std::vector<Diagnostic> diags;
  std::map<std::uint64_t, cd::RegionRecord> regions;
  for (const cd::RegionRecord& r : cd::snapshot_region_records()) {
    regions.emplace(r.region, r);
  }
  std::map<std::uint64_t, std::vector<cd::ChunkRecord>> by_region;
  for (const cd::ChunkRecord& c : cd::snapshot_chunk_records()) {
    by_region[c.region].push_back(c);
  }

  for (auto& [id, chunks] : by_region) {
    std::ostringstream loc;
    loc << "region " << id;

    // Pairwise interval overlap between different workers.  Reads may share
    // freely; a write overlapping anything is a race.
    for (std::size_t a = 0; a < chunks.size(); ++a) {
      for (std::size_t b = a + 1; b < chunks.size(); ++b) {
        const cd::ChunkRecord& x = chunks[a];
        const cd::ChunkRecord& y = chunks[b];
        if (x.worker == y.worker) continue;
        if (!x.write && !y.write) continue;
        if (x.lo < y.hi && y.lo < x.hi) {
          std::ostringstream msg;
          msg << (x.write && y.write ? "write/write" : "read/write")
              << " overlap: worker " << x.worker << " owns [" << x.lo << ", "
              << x.hi << ") and worker " << y.worker << " owns [" << y.lo
              << ", " << y.hi << ")";
          diags.push_back(Diagnostic{Severity::kError, Pass::kRace, loc.str(),
                                     msg.str()});
        }
      }
    }

    auto it = regions.find(id);
    if (it == regions.end()) continue;
    const cd::RegionRecord& r = it->second;

    // Chunk starts must stay aligned to the generator step so strided
    // generators keep their phase inside each chunk.
    for (const cd::ChunkRecord& c : chunks) {
      if (c.lo > c.hi) {
        std::ostringstream msg;
        msg << "worker " << c.worker << " has inverted interval [" << c.lo
            << ", " << c.hi << ")";
        diags.push_back(
            Diagnostic{Severity::kError, Pass::kRace, loc.str(), msg.str()});
      }
      if (r.align > 1 && c.lo < c.hi && (c.lo - r.begin) % r.align != 0) {
        std::ostringstream msg;
        msg << "worker " << c.worker << " chunk start " << c.lo
            << " is not aligned to step " << r.align << " relative to "
            << r.begin << " (strided generators lose their phase)";
        diags.push_back(
            Diagnostic{Severity::kError, Pass::kRace, loc.str(), msg.str()});
      }
    }

    // Written chunks must jointly cover [begin, end): a gap is not a race
    // but means silently unwritten elements.
    std::vector<std::pair<extent_t, extent_t>> written;
    for (const cd::ChunkRecord& c : chunks) {
      if (c.write && c.lo < c.hi) written.emplace_back(c.lo, c.hi);
    }
    if (!written.empty()) {
      std::sort(written.begin(), written.end());
      extent_t cursor = r.begin;
      for (const auto& [lo, hi] : written) {
        if (lo > cursor) {
          std::ostringstream msg;
          msg << "outer-axis interval [" << cursor << ", " << lo
              << ") is assigned to no worker";
          diags.push_back(Diagnostic{Severity::kError, Pass::kRace, loc.str(),
                                     msg.str()});
        }
        cursor = std::max(cursor, hi);
      }
      if (cursor < r.end) {
        std::ostringstream msg;
        msg << "outer-axis interval [" << cursor << ", " << r.end
            << ") is assigned to no worker";
        diags.push_back(
            Diagnostic{Severity::kError, Pass::kRace, loc.str(), msg.str()});
      }
    }
  }
  return diags;
}

std::vector<Diagnostic> analyze_allocation_balance(
    std::int64_t expected_live) {
  std::vector<Diagnostic> diags;
  const std::int64_t live = cd::live_buffer_count();
  if (live == expected_live) return diags;
  std::ostringstream msg;
  if (live > expected_live) {
    msg << (live - expected_live)
        << " buffer(s) allocated but never released (allocations "
        << sac::stats().allocations << ", releases " << sac::stats().releases
        << ")";
  } else {
    msg << (expected_live - live)
        << " more release(s) than allocation(s) — a buffer was freed twice "
           "or a foreign buffer was adopted";
  }
  diags.push_back(
      Diagnostic{Severity::kError, Pass::kAlias, "buffers", msg.str()});
  return diags;
}

Session::Session()
    : live_at_start_(cd::live_buffer_count()),
      saved_check_(sac::config().check) {
  cd::clear_check_events();
  sac::config().check = true;
}

Session::~Session() { sac::config().check = saved_check_; }

DiagnosticEngine& Session::finish() {
  if (!finished_) {
    finished_ = true;
    engine_.report_all(analyze_buffer_events());
    engine_.report_all(analyze_parallel_regions());
    engine_.report_all(analyze_allocation_balance(live_at_start_));
    cd::clear_check_events();
  }
  return engine_;
}

}  // namespace sacpp::check
