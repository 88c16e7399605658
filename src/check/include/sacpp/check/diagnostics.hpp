#pragma once
// Structured diagnostics for the sacpp_check verification passes.
//
// Every checker — the generator-partition verifier, the uniqueness/alias
// checker, and the parallel-region race detector — reports findings as
// Diagnostic values: severity, originating pass, a location (partition,
// buffer, or region/worker), and a message.  A DiagnosticEngine collects
// them and renders the table/CSV reports printed by the `--check` flag of
// the MG driver and asserted on by the checker tests.

#include <cstddef>
#include <string>
#include <vector>

#include "sacpp/common/table.hpp"

namespace sacpp::check {

enum class Severity { kWarning, kError };

enum class Pass {
  kPartitions,  // static generator-partition verification
  kAlias,       // uniqueness / alias checking of buffer reuse
  kRace,        // parallel-region write-interval and ownership checking
  kSession,     // session-typed channel conformance (protocol monitor)
  kLockOrder,   // lock-acquisition-order cycle analysis
  kSchedule,    // schedule-exploring state-machine checker
};

const char* severity_name(Severity s);
const char* pass_name(Pass p);

struct Diagnostic {
  Severity severity = Severity::kError;
  Pass pass = Pass::kPartitions;
  std::string location;
  std::string message;

  // "error [partitions] partition 1: ..." — one line, for logs and tests.
  std::string to_string() const;
};

class DiagnosticEngine {
 public:
  void report(Diagnostic d);
  void report(Severity severity, Pass pass, std::string location,
              std::string message);
  void report_all(std::vector<Diagnostic> ds);

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  bool empty() const { return diags_.empty(); }
  std::size_t size() const { return diags_.size(); }
  std::size_t count(Severity s) const;
  std::size_t count(Pass p) const;
  void clear() { diags_.clear(); }

  // Reporting through sacpp_common's table machinery: an aligned ASCII
  // table for humans, CSV for tooling.
  Table to_table() const;
  std::string to_ascii(const std::string& title = "sacpp_check") const;
  void write_csv(const std::string& path) const;

 private:
  std::vector<Diagnostic> diags_;
};

}  // namespace sacpp::check
