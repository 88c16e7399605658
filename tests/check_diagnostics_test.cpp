// Diagnostics engine: structured records, severity/pass accounting, table
// and CSV reporting, and the SACPP_CHECK environment switch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

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

// RAII: set an environment variable, restoring its old value on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) old_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      setenv(name_, old_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(Diagnostics, UnknownEngineNamesInEnvironmentWarnOnce) {
  const sac::SacConfig defaults;
  {
    // A leftover name of the retired engine, and a mode that never existed.
    const ScopedEnv backend("SACPP_BACKEND", "simd-portable");
    const ScopedEnv mode("SACPP_STENCIL_MODE", "fancy");
    testing::internal::CaptureStderr();
    const sac::SacConfig cfg = sac::config_from_env();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(cfg.backend, defaults.backend);
    EXPECT_EQ(cfg.stencil_mode, defaults.stencil_mode);
    // One line per bad value, naming it and the accepted names.
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 2) << err;
    EXPECT_NE(err.find("SACPP_BACKEND=simd-portable"), std::string::npos);
    EXPECT_NE(err.find(sac::backend_names()), std::string::npos) << err;
    EXPECT_NE(err.find("SACPP_STENCIL_MODE=fancy"), std::string::npos);
    EXPECT_NE(err.find("grouped | naive | planes"), std::string::npos);
  }
  {
    const ScopedEnv backend("SACPP_BACKEND", "simd");
    const ScopedEnv mode("SACPP_STENCIL_MODE", "planes");
    testing::internal::CaptureStderr();
    const sac::SacConfig cfg = sac::config_from_env();
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(cfg.backend, sac::BackendKind::kSimd);
    EXPECT_EQ(cfg.stencil_mode, sac::StencilMode::kPlanes);
  }
}

}  // namespace
}  // namespace sacpp::check
