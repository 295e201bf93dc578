#include "sim/cluster_stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace forktail::sim {
namespace {

using stats::LatencyHistogram;

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// ClusterStats sharding
// ---------------------------------------------------------------------------

/// Record a fixed deterministic sample stream into a registry.
void fill(ClusterStats& cs, std::size_t num_nodes, std::uint64_t seed) {
  util::Rng rng(seed);
  for (int i = 0; i < 50000; ++i) {
    const auto node = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::uint64_t>(num_nodes)));
    cs.record(node, rng.exponential(1.0 + static_cast<double>(node % 7)));
  }
}

TEST(ClusterStats, SummaryBitIdenticalAcrossShardCounts) {
  // The determinism contract: every shard count produces the same summary,
  // bit for bit -- per-node moments, pooled merge, histogram, and count.
  constexpr std::size_t kNodes = 100;
  ClusterStats reference(kNodes, 1);
  fill(reference, kNodes, 42);
  const ClusterSummary ref = reference.summary();
  ASSERT_EQ(ref.per_node.size(), kNodes);

  for (const std::size_t shards : {0UL, 2UL, 3UL, 16UL, 64UL, 1000UL}) {
    ClusterStats cs(kNodes, shards);
    fill(cs, kNodes, 42);
    const ClusterSummary s = cs.summary();
    ASSERT_EQ(s.per_node.size(), kNodes) << shards << " shards";
    EXPECT_EQ(s.samples, ref.samples);
    // Bitwise equality on the doubles -- no tolerance.
    EXPECT_EQ(s.pooled.count(), ref.pooled.count());
    EXPECT_EQ(s.pooled.mean(), ref.pooled.mean()) << shards << " shards";
    EXPECT_EQ(s.pooled.variance(), ref.pooled.variance());
    EXPECT_EQ(s.pooled.min(), ref.pooled.min());
    EXPECT_EQ(s.pooled.max(), ref.pooled.max());
    for (std::size_t n = 0; n < kNodes; ++n) {
      EXPECT_EQ(s.per_node[n].count(), ref.per_node[n].count());
      EXPECT_EQ(s.per_node[n].mean(), ref.per_node[n].mean());
      EXPECT_EQ(s.per_node[n].variance(), ref.per_node[n].variance());
    }
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
      EXPECT_EQ(s.histogram.counts()[i], ref.histogram.counts()[i]);
    }
  }
}

TEST(ClusterStats, PerNodeAccumulatorsAreExact) {
  // A node's accumulator must equal a plain sequential Welford over that
  // node's samples -- sharding must not approximate.
  constexpr std::size_t kNodes = 10;
  ClusterStats cs(kNodes, 4);
  std::vector<stats::Welford> direct(kNodes);
  util::Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const auto node = static_cast<std::size_t>(rng.uniform_int(kNodes));
    const double v = rng.exponential(2.0);
    cs.record(node, v);
    direct[node].add(v);
  }
  for (std::size_t n = 0; n < kNodes; ++n) {
    EXPECT_EQ(cs.node(n).count(), direct[n].count());
    EXPECT_EQ(cs.node(n).mean(), direct[n].mean());
    EXPECT_EQ(cs.node(n).variance(), direct[n].variance());
  }
}

TEST(ClusterStats, ShardMappingCoversAllNodesContiguously) {
  for (const std::size_t nodes : {1UL, 63UL, 64UL, 65UL, 1000UL, 1024UL}) {
    for (const std::size_t shards : {0UL, 1UL, 7UL, 16UL}) {
      ClusterStats cs(nodes, shards);
      EXPECT_GE(cs.num_shards(), 1u);
      std::size_t prev = cs.shard_of(0);
      EXPECT_EQ(prev, 0u);
      for (std::size_t n = 1; n < nodes; ++n) {
        const std::size_t s = cs.shard_of(n);
        EXPECT_TRUE(s == prev || s == prev + 1);  // contiguous ranges
        prev = s;
      }
      EXPECT_EQ(prev, cs.num_shards() - 1);
    }
  }
}

TEST(ClusterStats, RecordMomentsSkipsHistogramOnly) {
  ClusterStats cs(4, 2);
  cs.record_moments(1, 2.5);
  cs.record_moments(1, 3.5);
  cs.record(2, 1.0);
  const ClusterSummary s = cs.summary();
  EXPECT_EQ(s.per_node[1].count(), 2u);
  EXPECT_EQ(s.per_node[2].count(), 1u);
  EXPECT_EQ(s.pooled.count(), 3u);
  EXPECT_EQ(s.samples, 3u);
  // Only the record() sample reached the histogram.
  EXPECT_EQ(s.histogram.total(), 1u);
}

TEST(ClusterStats, ResetClearsEverything) {
  ClusterStats cs(8);
  fill(cs, 8, 3);
  cs.reset();
  const ClusterSummary s = cs.summary();
  EXPECT_EQ(s.samples, 0u);
  EXPECT_EQ(s.pooled.count(), 0u);
  EXPECT_EQ(s.histogram.total(), 0u);
  for (const auto& w : s.per_node) EXPECT_EQ(w.count(), 0u);
}

}  // namespace
}  // namespace forktail::sim
