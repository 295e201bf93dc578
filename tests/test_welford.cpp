#include "stats/welford.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "support/raw_moments.hpp"
#include "support/two_pass.hpp"
#include "util/rng.hpp"

namespace forktail::stats {
namespace {

TEST(Welford, ExactSmallSample) {
  Welford w;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_EQ(w.count(), 8u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_DOUBLE_EQ(w.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(w.min(), 2.0);
  EXPECT_DOUBLE_EQ(w.max(), 9.0);
}

TEST(Welford, SampleVarianceUsesNMinusOne) {
  Welford w;
  for (double x : {1.0, 2.0, 3.0}) w.add(x);
  EXPECT_DOUBLE_EQ(w.sample_variance(), 1.0);
  EXPECT_NEAR(w.variance(), 2.0 / 3.0, 1e-15);
}

TEST(Welford, SampleVarianceRequiresTwo) {
  Welford w;
  w.add(1.0);
  EXPECT_THROW(w.sample_variance(), std::logic_error);
}

TEST(Welford, MergeMatchesSequential) {
  util::Rng rng(9);
  Welford all;
  Welford a;
  Welford b;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.exponential(3.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Welford, MergeWithEmptyIsIdentity) {
  Welford a;
  a.add(5.0);
  a.add(7.0);
  Welford empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 6.0);
  Welford b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 6.0);
}

TEST(Welford, ScvOfExponentialIsOne) {
  util::Rng rng(10);
  Welford w;
  for (int i = 0; i < 300000; ++i) w.add(rng.exponential(4.22));
  EXPECT_NEAR(w.scv(), 1.0, 0.02);
}

TEST(Welford, NumericallyStableForLargeOffsets) {
  Welford w;
  // Values near 1e9 with variance 1: naive sum-of-squares would lose it.
  for (double x : {1e9 + 1.0, 1e9 - 1.0, 1e9 + 1.0, 1e9 - 1.0}) w.add(x);
  EXPECT_NEAR(w.variance(), 1.0, 1e-6);
}

TEST(Welford, NaNPoisonsAllStatisticsConsistently) {
  // A NaN sample always poisoned mean/variance via the arithmetic; before
  // the fix it was silently DROPPED from min/max, leaving the extremes
  // claiming a clean range around NaN moments.  Poisoning must be total.
  Welford w;
  w.add(2.0);
  w.add(std::nan(""));
  w.add(7.0);
  EXPECT_TRUE(std::isnan(w.mean()));
  EXPECT_TRUE(std::isnan(w.min()));
  EXPECT_TRUE(std::isnan(w.max()));
  EXPECT_EQ(w.count(), 3u);
}

TEST(Welford, MergePropagatesNaNExtremes) {
  Welford poisoned;
  poisoned.add(std::nan(""));
  Welford clean;
  clean.add(1.0);
  clean.add(2.0);
  clean.merge(poisoned);
  EXPECT_TRUE(std::isnan(clean.min()));
  EXPECT_TRUE(std::isnan(clean.max()));
  EXPECT_TRUE(std::isnan(clean.mean()));
}

TEST(Welford, VarianceNeverNegativeStddevNeverNaN) {
  // Near-constant data at a large offset is the worst case for m2
  // cancellation; variance() clamps so stddev() cannot go NaN.
  Welford a;
  Welford b;
  const double base = 3.141592653589793e12;
  for (int i = 0; i < 1000; ++i) {
    a.add(base);
    b.add(base + (i % 2 == 0 ? 1e-4 : -1e-4));
  }
  a.merge(b);
  EXPECT_GE(a.variance(), 0.0);
  EXPECT_GE(a.sample_variance(), 0.0);
  EXPECT_FALSE(std::isnan(a.stddev()));

  Welford constant;
  for (int i = 0; i < 100; ++i) constant.add(base);
  EXPECT_DOUBLE_EQ(constant.variance(), 0.0);
  EXPECT_DOUBLE_EQ(constant.stddev(), 0.0);
}

TEST(Welford, EmptyAccumulatorIsWellDefined) {
  const Welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  EXPECT_DOUBLE_EQ(w.stddev(), 0.0);
  EXPECT_THROW(w.sample_variance(), std::logic_error);
}

TEST(MomentSketch, OfRoundTripsCountMeanVariance) {
  const MomentSketch s = MomentSketch::of(40, 3.5, 0.25);
  EXPECT_EQ(s.count, 40u);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.25);
  const MomentSketch empty = MomentSketch::of(0, 7.0, 2.0);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.variance(), 0.0);
}

TEST(MomentSketch, MergeOfGroupsEqualsPooledSample) {
  // {1, 2, 3} and {10, 12}: pooled mean 5.6, population variance 20.24.
  MomentSketch a, b, all;
  for (double x : {1.0, 2.0, 3.0}) {
    a.add(x);
    all.add(x);
  }
  for (double x : {10.0, 12.0}) {
    b.add(x);
    all.add(x);
  }
  MomentSketch merged = MomentSketch::of(a.count, a.mean, a.variance());
  merged.merge(MomentSketch::of(b.count, b.mean, b.variance()));
  EXPECT_EQ(merged.count, 5u);
  EXPECT_NEAR(merged.mean, 5.6, 1e-12);
  EXPECT_NEAR(merged.variance(), 20.24, 1e-12);
  EXPECT_NEAR(all.variance(), 20.24, 1e-12);
}

// The combine law this replaces pooled sum(c * (var + mean^2)) / n - mean^2,
// which cancels catastrophically when mean >> stddev: at a mean of 1e9,
// mean^2 has an ulp of 128, so a pooled variance of 2 is lost entirely.
// The Chan merge keeps it.
TEST(MomentSketch, MergeSurvivesLargeOffsets) {
  MomentSketch pooled;
  pooled.merge(MomentSketch::of(1000, 1e9, 1.0));
  pooled.merge(MomentSketch::of(1000, 1e9 + 2.0, 1.0));
  EXPECT_NEAR(pooled.mean, 1e9 + 1.0, 1e-6);
  EXPECT_NEAR(pooled.variance(), 2.0, 1e-9);
}

TEST(MomentSketch, EmptyIsMergeIdentity) {
  MomentSketch a = MomentSketch::of(3, 2.0, 1.0);
  a.merge(MomentSketch{});
  EXPECT_EQ(a.count, 3u);
  EXPECT_DOUBLE_EQ(a.mean, 2.0);
  MomentSketch b;
  b.merge(a);
  EXPECT_EQ(b.count, 3u);
  EXPECT_DOUBLE_EQ(b.m2, a.m2);
}

bool same_bits(const MomentSketch& a, const MomentSketch& b) {
  return a.count == b.count &&
         std::bit_cast<std::uint64_t>(a.mean) ==
             std::bit_cast<std::uint64_t>(b.mean) &&
         std::bit_cast<std::uint64_t>(a.m2) == std::bit_cast<std::uint64_t>(b.m2);
}

// record() is a one-sample record_batch(), so the closed loop's per-sample
// arithmetic rests on this: a one-sample block IS add(), bit for bit.
TEST(MomentSketch, OneSampleBlockIsBitIdenticalToAdd) {
  util::Rng rng(5);
  MomentSketch by_add, by_block;
  for (int i = 0; i < 5000; ++i) {
    const double x = i % 3 == 0 ? rng.exponential(5.0) : 1e6 + rng.uniform();
    by_add.add(x);
    by_block.add_block({&x, 1});
    ASSERT_TRUE(same_bits(by_add, by_block)) << "sample " << i;
  }
  by_block.add_block({});  // an empty block is a no-op
  EXPECT_TRUE(same_bits(by_add, by_block));
}

// Blocks of 1..256 samples (a datagram's range) merged into a running
// sketch agree with per-sample add() and with a long-double two-pass
// oracle to 1e-12 relative, at a small and at a large offset.
TEST(MomentSketch, AddBlockMatchesAddAndTwoPassOracle) {
  util::Rng rng(17);
  for (const double offset : {0.0, 1e6}) {
    MomentSketch by_add, by_block;
    std::vector<double> all;
    for (int round = 0; round < 200; ++round) {
      const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform() * 256);
      std::vector<double> block(n);
      for (double& x : block) x = offset + rng.exponential(5.0);
      for (const double x : block) by_add.add(x);
      by_block.add_block(block);
      all.insert(all.end(), block.begin(), block.end());
      ASSERT_EQ(by_block.count, by_add.count);
    }
    const auto oracle = test_support::two_pass(all);
    EXPECT_LT(test_support::relative_gap(by_block.mean, oracle.mean), 1e-12);
    EXPECT_LT(test_support::relative_gap(by_block.variance(), oracle.variance),
              1e-12);
    EXPECT_LT(test_support::relative_gap(by_block.mean, by_add.mean), 1e-12);
    EXPECT_LT(test_support::relative_gap(by_block.variance(), by_add.variance()),
              1e-12);
  }
}

TEST(MomentSketch, AddBlockOfConstantsHasZeroVariance) {
  const std::vector<double> block(64, 7.25);
  MomentSketch s;
  s.add_block(block);
  EXPECT_EQ(s.count, 64u);
  EXPECT_EQ(s.mean, 7.25);
  EXPECT_EQ(s.m2, 0.0);
}

TEST(RawMoments, MatchesAnalyticExponential) {
  util::Rng rng(11);
  test_support::RawMoments m;
  const double mean = 2.0;
  for (int i = 0; i < 500000; ++i) m.add(rng.exponential(mean));
  EXPECT_NEAR(m.moment(1), mean, 0.02);
  EXPECT_NEAR(m.moment(2), 2 * mean * mean, 0.15);
  EXPECT_NEAR(m.moment(3), 6 * mean * mean * mean, 1.5);
}

TEST(RawMoments, RejectsOutOfRangeOrder) {
  test_support::RawMoments m;
  m.add(1.0);
  EXPECT_THROW(m.moment(0), std::out_of_range);
  EXPECT_THROW(m.moment(5), std::out_of_range);
}

}  // namespace
}  // namespace forktail::stats
