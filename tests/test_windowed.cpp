#include "stats/windowed.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace forktail::stats {
namespace {

TEST(WindowedMoments, EvictsOldSamples) {
  WindowedMoments w(10.0);
  w.add(0.0, 100.0);
  w.add(5.0, 200.0);
  EXPECT_EQ(w.count(), 2u);
  w.add(11.0, 300.0);  // evicts the t=0 sample (cutoff = 1.0)
  EXPECT_EQ(w.count(), 2u);
  EXPECT_DOUBLE_EQ(w.mean(), 250.0);
}

TEST(WindowedMoments, AdvanceEvictsWithoutAdding) {
  WindowedMoments w(5.0);
  w.add(0.0, 1.0);
  w.add(1.0, 2.0);
  w.advance(10.0);
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
}

TEST(WindowedMoments, MatchesBatchStatistics) {
  WindowedMoments w(1e9);  // effectively unbounded
  util::Rng rng(3);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(2.0);
    w.add(static_cast<double>(i), x);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(w.mean(), mean, 1e-9);
  EXPECT_NEAR(w.variance(), sum_sq / n - mean * mean, 1e-6);
}

TEST(WindowedMoments, RejectsTimeTravel) {
  WindowedMoments w(10.0);
  w.add(5.0, 1.0);
  EXPECT_THROW(w.add(4.0, 1.0), std::invalid_argument);
}

TEST(WindowedMoments, RejectsNonPositiveWindow) {
  EXPECT_THROW(WindowedMoments(0.0), std::invalid_argument);
}

TEST(WindowedMoments, VarianceNonNegativeUnderChurn) {
  WindowedMoments w(2.0);
  util::Rng rng(4);
  for (int i = 0; i < 100000; ++i) {
    w.add(static_cast<double>(i) * 0.01, 10.0 + rng.uniform());
    ASSERT_GE(w.variance(), 0.0);
  }
}

TEST(WindowedMoments, LargeOffsetVarianceSurvivesCancellation) {
  // mean ~ 1e9, stddev ~ 1: the naive E[X^2] - E[X]^2 form loses all 16
  // significant digits and clamps to zero; the shifted-data form is exact.
  WindowedMoments w(1e12);
  const double offset = 1e9;
  const int n = 4096;
  for (int i = 0; i < n; ++i) {
    w.add(static_cast<double>(i), offset + ((i % 2 == 0) ? -1.0 : 1.0));
  }
  EXPECT_NEAR(w.mean(), offset, 1e-3);
  EXPECT_NEAR(w.variance(), 1.0, 1e-9);
}

TEST(WindowedMoments, LargeOffsetVarianceAfterEvictionChurn) {
  WindowedMoments w(100.0);
  const double offset = 1e9;
  util::Rng rng(11);
  for (int i = 0; i < 50000; ++i) {
    w.add(static_cast<double>(i), offset + rng.normal(0.0, 1.0));
  }
  // Window holds the trailing 100 samples of N(offset, 1).
  EXPECT_NEAR(w.mean(), offset, 1.0);
  EXPECT_GT(w.variance(), 0.3);
  EXPECT_LT(w.variance(), 3.0);
}

TEST(WindowedMoments, AdvanceHeavyChurnStaysAccurate) {
  // An advance()-heavy idle phase must hit the resync threshold too: every
  // eviction counts as an incremental op even when no sample is added.
  WindowedMoments w(10.0);
  const double offset = 1e9;
  util::Rng rng(12);
  double t = 0.0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 2000; ++i) {
      t += 0.001;
      w.add(t, offset + rng.normal(0.0, 1.0));
    }
    // Idle: drain the whole window one advance at a time.
    for (int i = 0; i < 2200; ++i) {
      t += 0.01;
      w.advance(t);
      ASSERT_GE(w.variance(), 0.0);
    }
    EXPECT_EQ(w.count(), 0u);
  }
  for (int i = 0; i < 500; ++i) {
    t += 0.001;
    w.add(t, offset + rng.normal(0.0, 1.0));
  }
  EXPECT_NEAR(w.mean(), offset, 1.0);
  EXPECT_GT(w.variance(), 0.3);
  EXPECT_LT(w.variance(), 3.0);
}

}  // namespace
}  // namespace forktail::stats
