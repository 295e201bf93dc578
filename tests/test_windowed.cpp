#include "stats/windowed.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "support/two_pass.hpp"
#include "util/rng.hpp"

namespace forktail::stats {
namespace {

// The window is a fixed array of sketches: no heap, no per-sample storage.
static_assert(std::is_trivially_copyable_v<WindowedMoments>);

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
  // significant digits and clamps to zero; the bucket sketches do not.
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
  // Repeated fill / idle-drain cycles: draining a window one advance() at
  // a time must leave nothing behind that skews the next fill.
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

TEST(WindowedMoments, RejectsNonFiniteTimestamps) {
  const double inf = std::numeric_limits<double>::infinity();
  WindowedMoments w(10.0);
  EXPECT_THROW(w.add(std::nan(""), 1.0), std::invalid_argument);
  EXPECT_THROW(w.add(inf, 1.0), std::invalid_argument);
  EXPECT_THROW(w.add(-inf, 1.0), std::invalid_argument);
  w.advance(inf);  // ignored: the clock stays unset
  w.advance(std::nan(""));
  EXPECT_EQ(w.now(), -inf);
  w.add(1.0, 2.0);
  w.advance(inf);
  EXPECT_EQ(w.now(), 1.0);
  EXPECT_EQ(w.count(), 1u);
}

TEST(WindowedMoments, ExtremeFiniteTimestampsSaturateTheBucketIndex) {
  // t / width overflows every integer type here; the index must saturate
  // rather than hit the undefined float->int conversion.
  WindowedMoments w(1e-6);
  w.add(-std::numeric_limits<double>::max(), 1.0);
  EXPECT_EQ(w.count(), 1u);
  w.add(1e308, 2.0);  // rolls the whole ring
  EXPECT_EQ(w.count(), 1u);
  w.add(std::numeric_limits<double>::max(), 4.0);
  EXPECT_EQ(w.count(), 2u);
  EXPECT_DOUBLE_EQ(w.mean(), 3.0);
}

// Brute-force reference for the bucket policy: every sample is kept, and
// the window holds those whose bucket index is >= idx(now) - 63.
struct BruteWindow {
  explicit BruteWindow(double w) : width(w) {}

  double width;
  double now = -std::numeric_limits<double>::infinity();
  std::vector<std::pair<double, double>> samples;

  double index(double t) const { return std::floor(t / width); }

  void add(double t, double v) {
    now = t;
    samples.emplace_back(t, v);
  }
  void advance(double t) {
    if (t > now) now = t;
  }
  std::vector<double> live() const {
    std::vector<double> out;
    const double oldest = index(now) -
                          static_cast<double>(WindowedMoments::kBuckets - 1);
    for (const auto& [t, v] : samples) {
      if (index(t) >= oldest) out.push_back(v);
    }
    return out;
  }
};

void expect_matches_brute_force(double window, std::uint64_t seed) {
  WindowedMoments w(window);
  BruteWindow ref(window / static_cast<double>(WindowedMoments::kBuckets));
  util::Rng rng(seed);
  double t = 0.0;
  for (int step = 0; step < 4000; ++step) {
    const double u = rng.uniform();
    if (u < 0.15) {
      // equal timestamp: another sample at the current clock
    } else if (u < 0.18) {
      t += window * (1.0 + 2.0 * rng.uniform());  // gap longer than the window
    } else {
      t += window * 0.02 * rng.uniform();
    }
    if (rng.uniform() < 0.1) {
      // Idle run: several advance() calls and no sample.
      const int idle = 1 + static_cast<int>(rng.uniform() * 20.0);
      for (int i = 0; i < idle; ++i) {
        t += window * 0.01 * rng.uniform();
        w.advance(t);
        ref.advance(t);
      }
    } else {
      const double v = 5.0 + rng.exponential(2.0);
      w.add(t, v);
      ref.add(t, v);
    }
    const std::vector<double> live = ref.live();
    ASSERT_EQ(w.count(), live.size()) << "step " << step;
    if (live.empty()) continue;
    double mean = 0.0;
    for (const double v : live) mean += v;
    mean /= static_cast<double>(live.size());
    double var = 0.0;
    for (const double v : live) var += (v - mean) * (v - mean);
    var /= static_cast<double>(live.size());
    ASSERT_NEAR(w.mean(), mean, 1e-9 * std::abs(mean)) << "step " << step;
    ASSERT_NEAR(w.variance(), var, 1e-9 * var) << "step " << step;
  }
}

TEST(WindowedMoments, EvictionMatchesBruteForceBucketWindow) {
  expect_matches_brute_force(2.0, 21);
  expect_matches_brute_force(0.7, 22);
  expect_matches_brute_force(20.0, 23);
}

// Datagram-sized blocks (1..256 samples at one timestamp) across bucket
// rolls, equal timestamps and whole-window jumps: the same count and clock
// as adding the samples one by one, and moments within 1e-12 relative of
// both that and a long-double two-pass over the brute-force live set.
TEST(WindowedMoments, AddBlockMatchesPerSampleAcrossRollsAndJumps) {
  const double window = 2.0;
  WindowedMoments by_block(window), by_sample(window);
  BruteWindow ref(window / static_cast<double>(WindowedMoments::kBuckets));
  util::Rng rng(31);
  double t = 100.0;
  for (int step = 0; step < 600; ++step) {
    const double u = rng.uniform();
    if (u < 0.1) {
      // same timestamp as the last block
    } else if (u < 0.15) {
      t += window * (1.0 + 2.0 * rng.uniform());  // the whole ring rolls
    } else {
      t += window / 64.0 * 3.0 * rng.uniform();  // a few buckets at most
    }
    std::vector<double> block(1 + static_cast<std::size_t>(rng.uniform() * 256));
    for (double& x : block) x = 5.0 + rng.exponential(5.0);
    by_block.add_block(t, block);
    for (const double x : block) {
      by_sample.add(t, x);
      ref.add(t, x);
    }
    const std::vector<double> live = ref.live();
    ASSERT_EQ(by_block.count(), live.size()) << "step " << step;
    ASSERT_EQ(by_block.count(), by_sample.count()) << "step " << step;
    ASSERT_EQ(by_block.now(), by_sample.now());
    const auto oracle = test_support::two_pass(live);
    ASSERT_LT(test_support::relative_gap(by_block.mean(), oracle.mean), 1e-12)
        << "step " << step;
    ASSERT_LT(test_support::relative_gap(by_block.variance(), oracle.variance),
              1e-12)
        << "step " << step;
    ASSERT_LT(test_support::relative_gap(by_block.variance(),
                                         by_sample.variance()),
              1e-12)
        << "step " << step;
  }
}

TEST(WindowedMoments, OneSampleBlockIsBitIdenticalToAdd) {
  WindowedMoments by_block(0.5), by_add(0.5);
  util::Rng rng(37);
  double t = 0.0;
  for (int i = 0; i < 3000; ++i) {
    t += rng.uniform() < 0.02 ? 1.0 : 0.004 * rng.uniform();
    const double x = rng.exponential(5.0);
    by_add.add(t, x);
    by_block.add_block(t, {&x, 1});
    const MomentSketch a = by_add.moments(), b = by_block.moments();
    ASSERT_EQ(a.count, b.count);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.mean),
              std::bit_cast<std::uint64_t>(b.mean));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.m2),
              std::bit_cast<std::uint64_t>(b.m2));
  }
}

TEST(WindowedMoments, AddBlockChecksTheClockOnceLikeAdd) {
  WindowedMoments w(10.0);
  const std::vector<double> block = {1.0, 2.0, 3.0};
  w.add_block(5.0, block);
  EXPECT_EQ(w.count(), 3u);
  EXPECT_THROW(w.add_block(4.0, block), std::invalid_argument);
  EXPECT_THROW(w.add_block(std::nan(""), block), std::invalid_argument);
  EXPECT_THROW(
      w.add_block(std::numeric_limits<double>::infinity(), block),
      std::invalid_argument);
  // An empty block changes nothing, the clock included.
  w.add_block(9.0, {});
  EXPECT_EQ(w.now(), 5.0);
  EXPECT_EQ(w.count(), 3u);
  EXPECT_DOUBLE_EQ(w.mean(), 2.0);
}

TEST(WindowedMoments, NeverCountsASampleOlderThanTheWindow) {
  // Evict early: at most window / 64 of the oldest samples leave before
  // they are `window` old, and none stays past it.
  const double window = 2.0;
  WindowedMoments w(window);
  for (int i = 0; i < 1000; ++i) w.add(i * 0.01, 1.0);
  const double now = 999 * 0.01;
  // Samples in (now - window, now] number 200; the bucket window keeps at
  // most those and drops at most one bucket width (3.125 samples) of them.
  EXPECT_LE(w.count(), 200u);
  EXPECT_GE(w.count(), 196u);
  w.advance(now + window);
  EXPECT_EQ(w.count(), 0u);
}

}  // namespace
}  // namespace forktail::stats
