#include "sacpp/check/diagnostics.hpp"

#include <utility>

namespace sacpp::check {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

const char* pass_name(Pass p) {
  switch (p) {
    case Pass::kPartitions:
      return "partitions";
    case Pass::kAlias:
      return "alias";
    case Pass::kRace:
      return "race";
    case Pass::kSession:
      return "session";
    case Pass::kLockOrder:
      return "lockorder";
    case Pass::kSchedule:
      return "schedule";
  }
  return "?";
}

std::string Diagnostic::to_string() const {
  std::string s = severity_name(severity);
  s += " [";
  s += pass_name(pass);
  s += "] ";
  s += location;
  s += ": ";
  s += message;
  return s;
}

void DiagnosticEngine::report(Diagnostic d) { diags_.push_back(std::move(d)); }

void DiagnosticEngine::report(Severity severity, Pass pass,
                              std::string location, std::string message) {
  diags_.push_back(
      Diagnostic{severity, pass, std::move(location), std::move(message)});
}

void DiagnosticEngine::report_all(std::vector<Diagnostic> ds) {
  for (auto& d : ds) diags_.push_back(std::move(d));
}

std::size_t DiagnosticEngine::count(Severity s) const {
  std::size_t n = 0;
  for (const auto& d : diags_) {
    if (d.severity == s) ++n;
  }
  return n;
}

std::size_t DiagnosticEngine::count(Pass p) const {
  std::size_t n = 0;
  for (const auto& d : diags_) {
    if (d.pass == p) ++n;
  }
  return n;
}

Table DiagnosticEngine::to_table() const {
  Table t({"severity", "pass", "location", "message"});
  for (const auto& d : diags_) {
    t.add_row({severity_name(d.severity), pass_name(d.pass), d.location,
               d.message});
  }
  return t;
}

std::string DiagnosticEngine::to_ascii(const std::string& title) const {
  if (diags_.empty()) {
    return title + ": no diagnostics\n";
  }
  return to_table().to_ascii(title);
}

void DiagnosticEngine::write_csv(const std::string& path) const {
  to_table().write_csv(path);
}

}  // namespace sacpp::check
