// The telemetry exporters: Chrome trace-event JSON shape (golden substring
// round-trip), Prometheus text dump (collectors, histograms, per-level
// gauges), the top-spans summary aggregation, and the log histogram's
// bucketing arithmetic.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "json_balanced.hpp"
#include "sacpp/obs/export.hpp"
#include "sacpp/obs/histogram.hpp"
#include "sacpp/obs/obs.hpp"
#include "sacpp/sac/config.hpp"

namespace sacpp::obs {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

class ExportFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    reset();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    reset();
  }
};

// Deterministic spans (explicit timestamps bypass the clock) must round-trip
// into the exact Chrome trace-event lines Perfetto consumes.  This test
// records from the main thread first in the binary, so its track is tid 0.
TEST_F(ExportFixture, ChromeTraceGoldenRoundTrip) {
  set_thread_name("main");
  record_span(SpanKind::kKernel, "resid", 1000, 2500, 7);
  record_span(SpanKind::kWithLoop, "with_loop", 4000, 1500, 3, 42);

  std::ostringstream out;
  write_chrome_trace(out);
  const std::string json = out.str();

  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_TRUE(contains(json,
                       "{\"ph\":\"M\",\"pid\":1,\"tid\":0,"
                       "\"name\":\"process_name\",\"args\":{\"name\":\"sacpp\"}}"));
  EXPECT_TRUE(contains(json,
                       "\"name\":\"thread_name\",\"args\":{\"name\":\"main\"}}"));
  // ts/dur are microseconds with ns resolution (three decimals).
  EXPECT_TRUE(contains(json,
                       "\"ts\":1.000,\"dur\":2.500,\"cat\":\"kernel\","
                       "\"name\":\"resid\",\"args\":{\"arg\":7}}"));
  EXPECT_TRUE(contains(json,
                       "\"ts\":4.000,\"dur\":1.500,\"cat\":\"with_loop\","
                       "\"name\":\"with_loop\",\"args\":{\"arg\":3,"
                       "\"region\":42}}"));
}

TEST_F(ExportFixture, ChromeTraceEscapesNames) {
  record_span(SpanKind::kPhase, "quote\"back\\slash", 0, 1);
  std::ostringstream out;
  write_chrome_trace(out);
  EXPECT_TRUE(contains(out.str(), "quote\\\"back\\\\slash"));
  EXPECT_TRUE(json_balanced(out.str()));
}

TEST_F(ExportFixture, PrometheusDumpCarriesSpansHistogramsAndLevels) {
  (void)sac::config();  // registers the RuntimeStats collector
  record_span(SpanKind::kKernel, "resid", 0, 1000);
  record_span(SpanKind::kKernel, "psinv", 0, 3000);
  record_level_ns(2, 2000);
  RegionSample s;
  s.level = 2;
  s.participants = 2;
  s.region_ns = 1000;
  s.busy_total_ns = 1500;
  s.busy_max_ns = 1000;
  record_region_sample(s);

  std::ostringstream out;
  write_prometheus(out);
  const std::string text = out.str();

  // Collector counters from the sac layer.
  EXPECT_TRUE(contains(text, "# TYPE sacpp_allocations_total counter"));
  EXPECT_TRUE(contains(text, "# TYPE sacpp_pool_hits_total counter"));
  // Span bookkeeping.
  EXPECT_TRUE(contains(text, "sacpp_obs_spans_recorded_total"));
  EXPECT_TRUE(contains(text, "sacpp_obs_spans_dropped_total"));
  // The kernel duration histogram, with cumulative buckets and +Inf.
  EXPECT_TRUE(contains(text, "# TYPE sacpp_kernel_duration_ns histogram"));
  EXPECT_TRUE(contains(text, "sacpp_kernel_duration_ns_bucket{le=\"+Inf\"} 2"));
  EXPECT_TRUE(contains(text, "sacpp_kernel_duration_ns_sum 4000"));
  EXPECT_TRUE(contains(text, "sacpp_kernel_duration_ns_count 2"));
  // Per-level gauges.
  EXPECT_TRUE(contains(text, "sacpp_level_seconds{level=\"2\"}"));
  EXPECT_TRUE(contains(text, "sacpp_level_visits{level=\"2\"} 1"));
  EXPECT_TRUE(contains(text, "sacpp_level_parallel_regions{level=\"2\"} 1"));
  EXPECT_TRUE(contains(text, "sacpp_level_imbalance{level=\"2\"} 1.333"));
  EXPECT_TRUE(contains(text, "sacpp_level_busy_seconds{level=\"2\"}"));
  EXPECT_TRUE(contains(text, "sacpp_level_idle_seconds{level=\"2\"}"));
}

TEST_F(ExportFixture, TopSpansAggregatesByNameAndSortsByTotalTime) {
  record_span(SpanKind::kKernel, "resid", 0, 100);
  record_span(SpanKind::kKernel, "resid", 0, 100);
  record_span(SpanKind::kKernel, "psinv", 0, 500);
  record_span(SpanKind::kWithLoop, "with_loop", 0, 50);

  const auto top = top_spans(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_STREQ(top[0].name, "psinv");
  EXPECT_EQ(top[0].total_ns, 500);
  EXPECT_EQ(top[0].count, 1u);
  EXPECT_STREQ(top[1].name, "resid");
  EXPECT_EQ(top[1].total_ns, 200);
  EXPECT_EQ(top[1].count, 2u);
}

TEST_F(ExportFixture, FileWritersHandleEmptyAndBadPaths) {
  EXPECT_TRUE(write_chrome_trace_file(""));
  EXPECT_TRUE(write_prometheus_file(""));
  EXPECT_FALSE(write_chrome_trace_file("/nonexistent-dir/trace.json"));
  EXPECT_FALSE(write_prometheus_file("/nonexistent-dir/metrics.txt"));
}

TEST(LogHistogramTest, BucketArithmetic) {
  EXPECT_EQ(LogHistogram::bucket_of(0), 0);
  EXPECT_EQ(LogHistogram::bucket_of(1), 1);
  EXPECT_EQ(LogHistogram::bucket_of(2), 2);
  EXPECT_EQ(LogHistogram::bucket_of(3), 2);
  EXPECT_EQ(LogHistogram::bucket_of(4), 3);
  EXPECT_EQ(LogHistogram::bucket_of(1023), 10);
  EXPECT_EQ(LogHistogram::bucket_of(1024), 11);
  // bucket i covers values up to 2^i - 1
  EXPECT_EQ(LogHistogram::bucket_upper(0), 0u);
  EXPECT_EQ(LogHistogram::bucket_upper(1), 1u);
  EXPECT_EQ(LogHistogram::bucket_upper(10), 1023u);
}

TEST(LogHistogramTest, ObserveAccumulatesCountSumBuckets) {
  LogHistogram h;
  h.observe(0);
  h.observe(5);
  h.observe(5);
  h.observe(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1010u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(LogHistogram::bucket_of(5)), 2u);
  EXPECT_EQ(h.bucket(LogHistogram::bucket_of(1000)), 1u);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

}  // namespace
}  // namespace sacpp::obs
