// Unit tests for the observability layer (src/obs): metric primitives,
// registry semantics, histogram quantile accuracy, and report rendering.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/report.hpp"
#include "stats/log2_histogram.hpp"

namespace forktail::obs {
namespace {

TEST(ObsCounter, AccumulatesAcrossThreads) {
  Registry registry;
  Counter& c = registry.counter("test.counter");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsGauge, SetAddAndSetMax) {
  Registry registry;
  Gauge& g = registry.gauge("test.gauge");
  g.set(2.5);
  g.add(1.5);
  g.set_max(3.0);  // below current 4.0: no effect
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.set_max(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
}

TEST(ObsRegistry, SameNameSameMetric) {
  Registry registry;
  Counter& a = registry.counter("dup");
  Counter& b = registry.counter("dup");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = registry.histogram("h");
  Histogram& h2 = registry.histogram("h");
  EXPECT_EQ(&h1, &h2);
}

TEST(ObsRegistry, SnapshotSortedByName) {
  Registry registry;
  registry.counter("zebra").add(1);
  registry.counter("apple").add(2);
  registry.counter("mango").add(3);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "apple");
  EXPECT_EQ(snap.counters[1].first, "mango");
  EXPECT_EQ(snap.counters[2].first, "zebra");
}

TEST(ObsHistogram, CountSumMinMaxExact) {
  Registry registry;
  Histogram& h = registry.histogram("lat");
  for (double v : {0.5, 1.5, 2.5, 8.0}) h.record(v);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 12.5);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 8.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 3.125);
}

TEST(ObsHistogram, QuantileWithinBucketResolution) {
  Registry registry;
  Histogram& h = registry.histogram("q");
  // 1..1000: true p50 = ~500.5, p99 = ~990.  Bucket resolution is ~9%
  // relative (8 sub-buckets per octave), so assert within 10%.
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_NEAR(snap.quantile(0.5), 500.5, 0.10 * 500.5);
  EXPECT_NEAR(snap.quantile(0.99), 990.0, 0.10 * 990.0);
  // Quantiles are clamped into the observed range and monotone in q.
  EXPECT_GE(snap.quantile(0.0), snap.min);
  EXPECT_LE(snap.quantile(1.0), snap.max);
  EXPECT_LE(snap.quantile(0.5), snap.quantile(0.95));
  EXPECT_LE(snap.quantile(0.95), snap.quantile(0.999));
}

TEST(ObsHistogram, ExtremeValuesLandInOverflowBuckets) {
  Registry registry;
  Histogram& h = registry.histogram("x");
  h.record(0.0);     // at-or-below-range: underflow bucket
  h.record(-3.0);    // negative: underflow bucket
  h.record(1e300);   // far above range: overflow bucket
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.min, -3.0);
  EXPECT_DOUBLE_EQ(snap.max, 1e300);
  // Quantiles stay inside [min, max] even for out-of-range mass.
  EXPECT_GE(snap.quantile(0.5), snap.min);
  EXPECT_LE(snap.quantile(0.999), snap.max);
}

// One grid: every value lands in the bucket the simulators'
// stats::LatencyHistogram puts it in, with the same edges.
TEST(ObsHistogram, BucketsAreTheSharedLog2Grid) {
  for (double v : {3e-10, 1e-6, 0.004, 1.0, 7.3, 1e4, 3e9}) {
    Registry registry;
    Histogram& h = registry.histogram("grid");
    h.record(v);
    stats::LatencyHistogram plain;
    plain.record(v);
    const HistogramSnapshot snap = h.snapshot();
    ASSERT_EQ(snap.buckets.size(), 1u);
    const std::size_t i = stats::Log2Grid::bucket_index(v);
    EXPECT_EQ(plain.counts()[i], 1u);
    EXPECT_EQ(snap.buckets[0].lo, stats::Log2Grid::bucket_lower_edge(i));
    EXPECT_EQ(snap.buckets[0].hi, stats::Log2Grid::bucket_upper_edge(i));
    EXPECT_GE(v, snap.buckets[0].lo);
    EXPECT_LT(v, snap.buckets[0].hi);
  }
}

TEST(ObsHistogram, ResetClearsEverything) {
  Registry registry;
  registry.counter("c").add(7);
  registry.gauge("g").set(1.0);
  registry.histogram("h").record(2.0);
  registry.reset();
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counters[0].second, 0u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 0.0);
  EXPECT_EQ(snap.histograms[0].second.count, 0u);
}

TEST(ObsScopedSpan, RecordsNonNegativeDuration) {
  Registry registry;
  Histogram& h = registry.histogram("span");
  { const ScopedSpan span(h); }
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_GE(snap.min, 0.0);
}

TEST(ObsReport, JsonContainsRegisteredMetrics) {
  Registry registry;
  registry.counter("events").add(3);
  registry.gauge("depth").set(5.0);
  registry.histogram("seconds").record(0.25);
  const RunReport report = RunReport::capture(registry, "unit-test");
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\": \"forktail.run_report.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"tool\": \"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"events\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"depth\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"seconds\""), std::string::npos);
}

TEST(ObsReport, PrometheusExposition) {
  Registry registry;
  registry.counter("fjsim.runs").add(2);
  registry.histogram("run.seconds").record(0.5);
  const std::string prom =
      RunReport::capture(registry, "unit-test").to_prometheus();
  EXPECT_NE(prom.find("# TYPE forktail_fjsim_runs counter"),
            std::string::npos);
  EXPECT_NE(prom.find("forktail_fjsim_runs 2"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE forktail_run_seconds histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("forktail_run_seconds_count 1"), std::string::npos);
}

TEST(ObsReport, WriteDispatchesOnExtension) {
  Registry registry;
  registry.counter("c").add(1);
  const RunReport report = RunReport::capture(registry, "t");
  const std::string dir = ::testing::TempDir();
  report.write(dir + "obs_report_test.json");
  report.write(dir + "obs_report_test.prom");
  EXPECT_THROW(report.write("/nonexistent-dir/x.json"), std::runtime_error);
}

}  // namespace
}  // namespace forktail::obs
