// Diagnostics engine: structured records, severity/pass accounting, table
// and CSV reporting, and the SACPP_CHECK environment switch.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sacpp/check/diagnostics.hpp"
#include "sacpp/sac/config.hpp"

namespace sacpp::check {
namespace {

Diagnostic sample(Severity sev = Severity::kError, Pass pass = Pass::kAlias) {
  return Diagnostic{sev, pass, "root/arg0", "something is off"};
}

TEST(Diagnostics, NamesAreStable) {
  EXPECT_STREQ(severity_name(Severity::kWarning), "warning");
  EXPECT_STREQ(severity_name(Severity::kError), "error");
  EXPECT_STREQ(pass_name(Pass::kPartitions), "partitions");
  EXPECT_STREQ(pass_name(Pass::kAlias), "alias");
  EXPECT_STREQ(pass_name(Pass::kRace), "race");
}

TEST(Diagnostics, ToStringCarriesAllFields) {
  const std::string s = sample().to_string();
  EXPECT_NE(s.find("error"), std::string::npos);
  EXPECT_NE(s.find("alias"), std::string::npos);
  EXPECT_NE(s.find("root/arg0"), std::string::npos);
  EXPECT_NE(s.find("something is off"), std::string::npos);
}

TEST(Diagnostics, EngineCountsBySeverityAndPass) {
  DiagnosticEngine e;
  EXPECT_TRUE(e.empty());
  e.report(sample(Severity::kError, Pass::kAlias));
  e.report(sample(Severity::kWarning, Pass::kPartitions));
  e.report(Severity::kError, Pass::kRace, "region 1", "overlap");
  EXPECT_FALSE(e.empty());
  EXPECT_EQ(e.size(), 3u);
  EXPECT_EQ(e.count(Severity::kError), 2u);
  EXPECT_EQ(e.count(Severity::kWarning), 1u);
  EXPECT_EQ(e.count(Pass::kAlias), 1u);
  EXPECT_EQ(e.count(Pass::kPartitions), 1u);
  EXPECT_EQ(e.count(Pass::kRace), 1u);
  e.clear();
  EXPECT_TRUE(e.empty());
}

TEST(Diagnostics, ReportAllAppends) {
  DiagnosticEngine e;
  e.report_all({sample(), sample(Severity::kWarning, Pass::kRace)});
  EXPECT_EQ(e.size(), 2u);
}

TEST(Diagnostics, AsciiReportListsEveryDiagnostic) {
  DiagnosticEngine e;
  EXPECT_NE(e.to_ascii("probe").find("no diagnostics"), std::string::npos);
  e.report(sample());
  const std::string out = e.to_ascii("probe");
  EXPECT_NE(out.find("root/arg0"), std::string::npos);
  EXPECT_NE(out.find("something is off"), std::string::npos);
}

TEST(Diagnostics, CsvRoundTrip) {
  DiagnosticEngine e;
  e.report(sample());
  const std::string path = "check_diagnostics_test.csv";
  e.write_csv(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream all;
  all << in.rdbuf();
  const std::string csv = all.str();
  EXPECT_NE(csv.find("severity"), std::string::npos);
  EXPECT_NE(csv.find("message"), std::string::npos);
  EXPECT_NE(csv.find("error"), std::string::npos);
  EXPECT_NE(csv.find("something is off"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Diagnostics, CheckModeComesFromEnvironment) {
  ASSERT_EQ(setenv("SACPP_CHECK", "1", 1), 0);
  EXPECT_TRUE(sac::config_from_env().check);
  ASSERT_EQ(setenv("SACPP_CHECK", "0", 1), 0);
  EXPECT_FALSE(sac::config_from_env().check);
  ASSERT_EQ(unsetenv("SACPP_CHECK"), 0);
  EXPECT_FALSE(sac::config_from_env().check);
}

}  // namespace
}  // namespace sacpp::check
