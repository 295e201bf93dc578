#include "core/online.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "obs/metrics.hpp"
#include "stats/welford.hpp"
#include "support/two_pass.hpp"
#include "util/rng.hpp"

namespace forktail::core {
namespace {

TEST(OnlineTailPredictor, RequiresMinSamples) {
  OnlineTailPredictor p(2, 20.0, 10);
  for (int i = 0; i < 9; ++i) {
    p.record(0, i * 0.1, 1.0 + 0.01 * i);
    p.record(1, i * 0.1, 1.0 + 0.01 * i);
  }
  EXPECT_FALSE(p.node_stats(0).has_value());
  EXPECT_FALSE(p.predict_homogeneous(99.0).has_value());
  p.record(0, 1.0, 1.5);
  p.record(1, 1.0, 1.5);
  EXPECT_TRUE(p.node_stats(0).has_value());
  EXPECT_TRUE(p.predict_homogeneous(99.0).has_value());
}

TEST(OnlineTailPredictor, HomogeneousMatchesOfflineFit) {
  util::Rng rng(60);
  OnlineTailPredictor p(4, 1e9, 10);
  stats::Welford all;
  for (int i = 0; i < 4000; ++i) {
    const double x = rng.exponential(5.0);
    p.record(static_cast<std::size_t>(i % 4), i * 0.01, x);
    all.add(x);
  }
  const auto predicted = p.predict_homogeneous(99.0);
  ASSERT_TRUE(predicted.has_value());
  const double offline =
      homogeneous_quantile({all.mean(), all.variance()}, 4.0, 99.0);
  EXPECT_NEAR(*predicted, offline, 1e-6 * offline);
}

TEST(OnlineTailPredictor, WindowForgetsOldRegime) {
  OnlineTailPredictor p(1, 10.0, 5);
  // Old regime: slow responses.
  for (int i = 0; i < 100; ++i) p.record(0, i * 0.05, 100.0 + i % 3);
  const auto before = p.node_stats(0);
  ASSERT_TRUE(before.has_value());
  EXPECT_GT(before->mean, 50.0);
  // New regime 30 s later: fast responses; the window must have rolled.
  for (int i = 0; i < 100; ++i) p.record(0, 35.0 + i * 0.05, 1.0 + (i % 3) * 0.1);
  const auto after = p.node_stats(0);
  ASSERT_TRUE(after.has_value());
  EXPECT_LT(after->mean, 2.0);
}

TEST(OnlineTailPredictor, InhomogeneousSeesSlowNode) {
  util::Rng rng(61);
  OnlineTailPredictor p(3, 1e9, 20);
  for (int i = 0; i < 600; ++i) {
    p.record(0, i * 0.01, rng.exponential(1.0));
    p.record(1, i * 0.01, rng.exponential(1.0));
    p.record(2, i * 0.01, rng.exponential(20.0));  // slow node
  }
  const auto inhom = p.predict_inhomogeneous(99.0);
  ASSERT_TRUE(inhom.has_value());
  // The slow node alone needs ~ 20 ln(100) ~ 92 at p99.
  EXPECT_GT(*inhom, 80.0);
}

TEST(OnlineTailPredictor, SubsetUsesOnlyChosenNodes) {
  util::Rng rng(62);
  OnlineTailPredictor p(3, 1e9, 20);
  for (int i = 0; i < 600; ++i) {
    p.record(0, i * 0.01, rng.exponential(1.0));
    p.record(1, i * 0.01, rng.exponential(1.0));
    p.record(2, i * 0.01, rng.exponential(50.0));
  }
  const std::size_t fast[] = {0, 1};
  const auto fast_pred = p.predict_subset(fast, 99.0);
  ASSERT_TRUE(fast_pred.has_value());
  EXPECT_LT(*fast_pred, 10.0);
  const std::size_t with_slow[] = {0, 2};
  const auto slow_pred = p.predict_subset(with_slow, 99.0);
  ASSERT_TRUE(slow_pred.has_value());
  EXPECT_GT(*slow_pred, 10.0 * *fast_pred);
}

TEST(OnlineTailPredictor, SubsetValidation) {
  OnlineTailPredictor p(2, 10.0, 5);
  std::vector<std::size_t> empty;
  EXPECT_THROW(p.predict_subset(empty, 99.0), std::invalid_argument);
  const std::size_t bad[] = {5};
  EXPECT_THROW(p.predict_subset(bad, 99.0), std::out_of_range);
}

TEST(OnlineTailPredictor, MixturePrediction) {
  util::Rng rng(63);
  OnlineTailPredictor p(2, 1e9, 20);
  for (int i = 0; i < 1000; ++i) {
    p.record(static_cast<std::size_t>(i % 2), i * 0.01, rng.exponential(3.0));
  }
  const auto m = TaskCountMixture::uniform_int(10, 100);
  const auto pred = p.predict_mixture(m, 99.0);
  ASSERT_TRUE(pred.has_value());
  const auto lo = p.predict_homogeneous(99.0, 10.0);
  const auto hi = p.predict_homogeneous(99.0, 100.0);
  ASSERT_TRUE(lo && hi);
  EXPECT_GT(*pred, *lo);
  EXPECT_LT(*pred, *hi);
}

TEST(OnlineTailPredictor, ZeroNodesRejected) {
  EXPECT_THROW(OnlineTailPredictor(0, 10.0), std::invalid_argument);
}

TEST(OnlineTailPredictor, NegativeSkewToleranceRejected) {
  EXPECT_THROW(OnlineTailPredictor(1, 10.0, 5, -0.1), std::invalid_argument);
}

// Regression: a backwards-jumping agent clock (NTP step, restarted agent)
// must never corrupt window eviction or throw out of record().  Jumps
// within the skew tolerance are clamped onto the high-water mark; larger
// jumps are rejected and leave the window untouched.
TEST(OnlineTailPredictor, BackwardsClockClampedWithinTolerance) {
  OnlineTailPredictor p(1, 100.0, 1, /*skew_tolerance=*/0.5);
  EXPECT_EQ(p.record(0, 10.0, 1.0), RecordOutcome::kAccepted);
  // 0.3 s backwards: clamped, sample kept.
  EXPECT_EQ(p.record(0, 9.7, 3.0), RecordOutcome::kClamped);
  const auto s = p.node_stats(0);
  ASSERT_TRUE(s.has_value());
  EXPECT_DOUBLE_EQ(s->mean, 2.0);
  // The high-water mark did not move backwards.
  ASSERT_TRUE(p.last_timestamp(0).has_value());
  EXPECT_DOUBLE_EQ(*p.last_timestamp(0), 10.0);
}

TEST(OnlineTailPredictor, BackwardsClockRejectedBeyondTolerance) {
  OnlineTailPredictor p(1, 100.0, 1, /*skew_tolerance=*/0.5);
  EXPECT_EQ(p.record(0, 9.0, 3.0), RecordOutcome::kAccepted);
  EXPECT_EQ(p.record(0, 10.0, 1.0), RecordOutcome::kAccepted);
  // 9 s backwards: rejected, window unchanged.
  EXPECT_EQ(p.record(0, 1.0, 100.0), RecordOutcome::kRejected);
  const auto s = p.node_stats(0);
  ASSERT_TRUE(s.has_value());
  EXPECT_DOUBLE_EQ(s->mean, 2.0);
  EXPECT_DOUBLE_EQ(*p.last_timestamp(0), 10.0);
  // Forward progress resumes normally afterwards.
  EXPECT_EQ(p.record(0, 11.0, 2.0), RecordOutcome::kAccepted);
  EXPECT_DOUBLE_EQ(*p.last_timestamp(0), 11.0);
}

TEST(OnlineTailPredictor, ZeroToleranceRejectsAnyBackwardsJump) {
  OnlineTailPredictor p(1, 100.0, 1);  // default tolerance 0
  EXPECT_EQ(p.record(0, 5.0, 1.0), RecordOutcome::kAccepted);
  EXPECT_EQ(p.record(0, 5.0, 1.0), RecordOutcome::kAccepted);  // equal is fine
  EXPECT_EQ(p.record(0, 4.999, 1.0), RecordOutcome::kRejected);
}

TEST(OnlineTailPredictor, NanTimestampRejected) {
  OnlineTailPredictor p(1, 100.0, 1, 1.0);
  EXPECT_EQ(p.record(0, std::nan(""), 1.0), RecordOutcome::kRejected);
  EXPECT_EQ(p.record(0, 1.0, 1.0), RecordOutcome::kAccepted);
  EXPECT_EQ(p.record(0, std::nan(""), 1.0), RecordOutcome::kRejected);
  EXPECT_DOUBLE_EQ(*p.last_timestamp(0), 1.0);
}

// An infinite clock must be rejected (record) or ignored (advance): taken
// as the high-water mark, it would make every later finite sample a
// beyond-tolerance backwards jump.
TEST(OnlineTailPredictor, InfiniteTimestampRejectedAndIgnored) {
  const double inf = std::numeric_limits<double>::infinity();
  OnlineTailPredictor p(1, 100.0, 1, 1.0);
  auto& rejected = obs::Registry::global().counter("online.clock_rejected");
  const std::uint64_t before = rejected.value();
  EXPECT_EQ(p.record(0, inf, 1.0), RecordOutcome::kRejected);
  EXPECT_EQ(p.record(0, -inf, 1.0), RecordOutcome::kRejected);
  EXPECT_EQ(rejected.value(), before + 2);
  EXPECT_FALSE(p.last_timestamp(0).has_value());
  EXPECT_EQ(p.record(0, 1.0, 1.0), RecordOutcome::kAccepted);
  p.advance(0, inf);  // ignored: does not poison the node's clock
  p.advance(0, -inf);
  EXPECT_DOUBLE_EQ(*p.last_timestamp(0), 1.0);
  EXPECT_EQ(p.record(0, 2.0, 3.0), RecordOutcome::kAccepted);
  const auto s = p.node_stats(0);
  ASSERT_TRUE(s.has_value());
  EXPECT_DOUBLE_EQ(s->mean, 2.0);
}

TEST(OnlineTailPredictor, AdvanceMovesHighWaterMark) {
  OnlineTailPredictor p(1, 10.0, 1, /*skew_tolerance=*/0.5);
  p.record(0, 1.0, 1.0);
  p.advance(0, 50.0);
  // The idle sweep advanced the node's clock; a sample time-stamped before
  // the sweep (minus tolerance) must now be rejected, not resurrect an
  // already-evicted window region.
  EXPECT_EQ(p.record(0, 20.0, 1.0), RecordOutcome::kRejected);
  EXPECT_EQ(p.record(0, 49.8, 2.0), RecordOutcome::kClamped);
  EXPECT_DOUBLE_EQ(*p.last_timestamp(0), 50.0);
}

// The eviction-path regression the clamp exists for: interleave backwards
// jumps with normal traffic and the window must hold exactly the samples a
// monotone clock would have kept.
TEST(OnlineTailPredictor, SkewedStreamMatchesMonotoneStream) {
  OnlineTailPredictor skewed(1, 5.0, 1, /*skew_tolerance=*/1.0);
  OnlineTailPredictor clean(1, 5.0, 1);
  util::Rng rng(99);
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    t += 0.05;
    const double v = rng.exponential(2.0);
    // Every 7th sample arrives with a small backwards-skewed timestamp.
    const double skewed_t = (i % 7 == 6) ? t - 0.8 : t;
    EXPECT_NE(skewed.record(0, skewed_t, v), RecordOutcome::kRejected);
    clean.record(0, t, v);
  }
  const auto a = skewed.node_stats(0);
  const auto b = clean.node_stats(0);
  ASSERT_TRUE(a && b);
  // Clamped samples land at the mark instead of t, which can only shift
  // membership at the window edge by < tolerance; moments must agree
  // closely (identical here because no clamp landed on an eviction edge).
  EXPECT_NEAR(a->mean, b->mean, 1e-9);
  EXPECT_NEAR(a->variance, b->variance, 1e-9);
}

// record_batch() is record() of each response in turn, stopping at the
// first rejection (what the serve drain did per datagram before it took
// whole batches): random batches of 1..256 samples, random clocks with
// forward steps, exact repeats, clamps, rejects, non-finite stamps and
// window-sized jumps must give the same outcomes, counts, clocks and
// counters, and moments within 1e-12 relative.
TEST(OnlineTailPredictor, RecordBatchMatchesSampleBySampleRecord) {
  constexpr std::size_t kNodes = 3;
  for (const double window : {2.0, 1e9}) {
    OnlineTailPredictor batched(kNodes, window, 1, /*skew_tolerance=*/0.5);
    OnlineTailPredictor serial(kNodes, window, 1, /*skew_tolerance=*/0.5);
    auto& clamped = obs::Registry::global().counter("online.clock_clamped");
    auto& rejected = obs::Registry::global().counter("online.clock_rejected");
    std::vector<std::vector<double>> accepted(kNodes);
    util::Rng rng(window > 100.0 ? 41 : 43);
    double clock[kNodes] = {10.0, 10.0, 10.0};
    for (int step = 0; step < 1500; ++step) {
      const std::size_t node = static_cast<std::size_t>(rng.uniform() * kNodes);
      const double u = rng.uniform();
      double t = clock[node];
      if (u < 0.1) {
        t -= 0.5 * rng.uniform();  // within the tolerance: clamped
      } else if (u < 0.15) {
        t -= 0.6 + 5.0 * rng.uniform();  // beyond it: rejected
      } else if (u < 0.17) {
        t = rng.uniform() < 0.5 ? std::nan("")
                                : std::numeric_limits<double>::infinity();
      } else if (u < 0.2) {
        t += 3.0 * rng.uniform();  // past a 2 s window
      } else if (u < 0.3) {
        // an exact repeat of the node's clock
      } else {
        t += 0.05 * rng.uniform();
      }
      std::vector<double> batch(1 + static_cast<std::size_t>(rng.uniform() * 256));
      for (double& x : batch) x = rng.exponential(5.0);

      const std::uint64_t clamped0 = clamped.value();
      const std::uint64_t rejected0 = rejected.value();
      const RecordOutcome got = batched.record_batch(node, t, batch);
      const std::uint64_t batch_clamped = clamped.value() - clamped0;
      const std::uint64_t batch_rejected = rejected.value() - rejected0;

      RecordOutcome want = RecordOutcome::kAccepted;
      std::size_t kept = 0;
      for (const double x : batch) {
        want = serial.record(node, t, x);
        if (want == RecordOutcome::kRejected) break;
        ++kept;
      }
      ASSERT_EQ(got, want) << "step " << step;
      ASSERT_TRUE(kept == 0 || kept == batch.size());
      ASSERT_EQ(clamped.value() - clamped0, 2 * batch_clamped);
      ASSERT_EQ(rejected.value() - rejected0, 2 * batch_rejected);
      ASSERT_EQ(batch_clamped,
                got == RecordOutcome::kClamped ? batch.size() : 0u);
      ASSERT_EQ(batch_rejected, got == RecordOutcome::kRejected ? 1u : 0u);
      if (kept > 0) {
        accepted[node].insert(accepted[node].end(), batch.begin(), batch.end());
      }
      if (const auto mark = batched.last_timestamp(node)) clock[node] = *mark;
      ASSERT_EQ(batched.last_timestamp(node), serial.last_timestamp(node));

      const auto a = batched.node_stats(node);
      const auto b = serial.node_stats(node);
      ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
      ASSERT_EQ(batched.pooled_stats().count, serial.pooled_stats().count);
      if (!a) continue;
      ASSERT_LT(test_support::relative_gap(a->mean, b->mean), 1e-12);
      ASSERT_LT(test_support::relative_gap(a->variance, b->variance), 1e-12);
      if (window > 100.0) {
        // Nothing is ever evicted: the window is every accepted sample.
        const auto oracle = test_support::two_pass(accepted[node]);
        ASSERT_LT(test_support::relative_gap(a->mean, oracle.mean), 1e-12);
        ASSERT_LT(test_support::relative_gap(a->variance, oracle.variance),
                  1e-12);
      }
    }
  }
}

TEST(OnlineTailPredictor, EmptyBatchChangesNothing) {
  OnlineTailPredictor p(1, 10.0, 1, 0.5);
  EXPECT_EQ(p.record_batch(0, 5.0, {}), RecordOutcome::kAccepted);
  EXPECT_FALSE(p.last_timestamp(0).has_value());
  EXPECT_THROW(p.record_batch(1, 5.0, {}), std::out_of_range);
}

TEST(OnlineTailPredictor, PooledStatsSkipsUnderfilledWindows) {
  OnlineTailPredictor p(3, 1e9, 10);
  for (int i = 0; i < 20; ++i) p.record(0, i * 0.1, 2.0 + (i % 2));
  for (int i = 0; i < 20; ++i) p.record(1, i * 0.1, 4.0 + (i % 2));
  p.record(2, 0.0, 1000.0);  // underfilled: must not pollute the pool
  const auto pooled = p.pooled_stats();
  EXPECT_EQ(pooled.filled_nodes, 2u);
  EXPECT_EQ(pooled.total_nodes, 3u);
  EXPECT_DOUBLE_EQ(pooled.count, 40.0);
  EXPECT_NEAR(pooled.mean, 3.5, 1e-12);
  EXPECT_GT(pooled.variance, 0.0);
}

TEST(OnlineTailPredictor, PooledStatsEmptyWhenNothingFilled) {
  OnlineTailPredictor p(2, 10.0, 5);
  p.record(0, 0.0, 1.0);
  const auto pooled = p.pooled_stats();
  EXPECT_EQ(pooled.filled_nodes, 0u);
  EXPECT_EQ(pooled.total_nodes, 2u);
  EXPECT_DOUBLE_EQ(pooled.count, 0.0);
}

TEST(OnlineTailPredictor, PooledStatsMatchesHomogeneousPath) {
  util::Rng rng(64);
  OnlineTailPredictor p(4, 1e9, 10);
  for (int i = 0; i < 2000; ++i) {
    p.record(static_cast<std::size_t>(i % 4), i * 0.01, rng.exponential(5.0));
  }
  const auto pooled = p.pooled_stats();
  ASSERT_EQ(pooled.filled_nodes, 4u);
  const auto direct = p.predict_homogeneous(99.0);
  ASSERT_TRUE(direct.has_value());
  const double via_pooled =
      homogeneous_quantile({pooled.mean, pooled.variance}, 4.0, 99.0);
  EXPECT_NEAR(via_pooled, *direct, 1e-9 * *direct);
}

}  // namespace
}  // namespace forktail::core
