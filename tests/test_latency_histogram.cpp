#include "stats/log2_histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace forktail::stats {
namespace {

TEST(LatencyHistogram, BucketIndexEdgeCases) {
  // Bucket 0 catches everything that is not a positive finite double.
  EXPECT_EQ(LatencyHistogram::bucket_index(0.0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_index(-1.0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_index(
                -std::numeric_limits<double>::infinity()),
            0u);
  EXPECT_EQ(LatencyHistogram::bucket_index(
                std::numeric_limits<double>::quiet_NaN()),
            0u);
  // Below the grid floor (2^-32) is underflow -> bucket 0; denormals too.
  EXPECT_EQ(LatencyHistogram::bucket_index(std::ldexp(1.0, -33)), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_index(
                std::numeric_limits<double>::denorm_min()),
            0u);
  // At or above the grid ceiling (2^32), and +inf, land in the last bucket.
  EXPECT_EQ(LatencyHistogram::bucket_index(std::ldexp(1.0, 33)),
            LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(LatencyHistogram::bucket_index(
                std::numeric_limits<double>::infinity()),
            LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(LatencyHistogram::bucket_index(
                std::numeric_limits<double>::max()),
            LatencyHistogram::kBuckets - 1);
}

TEST(LatencyHistogram, BucketIndexMatchesAnalyticGrid) {
  // Every in-range value must land in the binade/sub-bucket the grid
  // definition says; spot-check across the full exponent range, including
  // the exact binade edges.
  for (int e = -32; e < 32; ++e) {
    for (std::size_t sub = 0; sub < LatencyHistogram::kSubBuckets; ++sub) {
      const double lo =
          std::ldexp(1.0 + static_cast<double>(sub) /
                               LatencyHistogram::kSubBuckets,
                     e);
      const std::size_t expected =
          1 + static_cast<std::size_t>(e + 32) * LatencyHistogram::kSubBuckets +
          sub;
      EXPECT_EQ(LatencyHistogram::bucket_index(lo), expected)
          << "exponent " << e << " sub " << sub;
      // A value strictly inside the sub-bucket maps to the same index.
      EXPECT_EQ(LatencyHistogram::bucket_index(
                    lo * (1.0 + 0.4 / LatencyHistogram::kSubBuckets)),
                expected);
    }
  }
}

TEST(LatencyHistogram, UpperEdgeBoundsItsBucket) {
  util::Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double v = std::ldexp(rng.uniform() + 1.0,
                                static_cast<int>(rng.uniform_int(60)) - 30);
    const std::size_t b = LatencyHistogram::bucket_index(v);
    EXPECT_LE(v, LatencyHistogram::bucket_upper_edge(b));
    if (b > 1 && b < LatencyHistogram::kBuckets - 1) {
      EXPECT_GT(v, LatencyHistogram::bucket_upper_edge(b - 1));
    }
  }
}

TEST(LatencyHistogram, PercentileUpperEdgeRule) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile(99.0), 0.0);  // empty
  for (int i = 0; i < 99; ++i) h.record(1.0);
  h.record(1000.0);
  // 99% of the mass sits in 1.0's bucket; its upper edge bounds the p99.
  const double p99 = h.percentile(99.0);
  EXPECT_GE(p99, 1.0);
  EXPECT_LT(p99, 1.5);
  // The max lives in 1000.0's bucket.
  const double p100 = h.percentile(100.0);
  EXPECT_GE(p100, 1000.0);
  EXPECT_LT(p100, 1100.0);
}

TEST(LatencyHistogram, PercentileIsConservative) {
  // The reported quantile never under-estimates the true sample quantile
  // (upper-edge rule): check against exact order statistics.
  util::Rng rng(7);
  LatencyHistogram h;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.exponential(3.0);
    samples.push_back(v);
    h.record(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double pct : {50.0, 90.0, 99.0, 99.9}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(samples.size())));
    const double exact = samples[rank - 1];
    const double est = h.percentile(pct);
    EXPECT_GE(est, exact);
    // Grid resolution: the upper edge is within one sub-bucket (12.5%).
    EXPECT_LE(est, exact * (1.0 + 1.0 / LatencyHistogram::kSubBuckets) +
                       1e-12);
  }
}

TEST(LatencyHistogram, MergeIsExactAndOrderIndependent) {
  util::Rng rng(21);
  LatencyHistogram all, a, b;
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.exponential(1.0);
    all.record(v);
    (i % 3 == 0 ? a : b).record(v);
  }
  LatencyHistogram ab = a;
  ab.merge(b);
  LatencyHistogram ba = b;
  ba.merge(a);
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(ab.counts()[i], all.counts()[i]);
    EXPECT_EQ(ba.counts()[i], all.counts()[i]);
  }
  EXPECT_EQ(all.total(), 5000u);
}

}  // namespace
}  // namespace forktail::stats
