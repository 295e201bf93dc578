#include "stats/percentile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace forktail::stats {
namespace {

TEST(Percentile, MedianOfOddSample) {
  std::vector<double> v = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
}

TEST(Percentile, InterpolatesBetweenOrderStats) {
  std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 75.0), 7.5);
}

TEST(Percentile, Extremes) {
  std::vector<double> v = {4.0, 2.0, 9.0, 7.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 9.0);
}

TEST(Percentile, SingleElement) {
  std::vector<double> v = {42.0};
  EXPECT_DOUBLE_EQ(percentile(v, 99.0), 42.0);
}

TEST(Percentile, RejectsEmptyAndBadP) {
  std::vector<double> v;
  EXPECT_THROW(percentile(v, 50.0), std::invalid_argument);
  v.push_back(1.0);
  EXPECT_THROW(percentile(v, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile(v, 101.0), std::invalid_argument);
  EXPECT_THROW(percentile(v, std::nan("")), std::invalid_argument);
}

TEST(Percentiles, BatchMatchesSingle) {
  util::Rng rng(1);
  std::vector<double> v(10001);
  for (auto& x : v) x = rng.uniform();
  const double ps[] = {50.0, 90.0, 99.0};
  const auto batch = percentiles(v, ps);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(batch[i], percentile(v, ps[i]));
  }
}

TEST(PercentileInplace, MatchesSorting) {
  util::Rng rng(2);
  std::vector<double> v(5000);
  for (auto& x : v) x = rng.exponential(1.0);
  std::vector<double> copy = v;
  const double expected = percentile(v, 99.0);
  EXPECT_DOUBLE_EQ(percentile_inplace(copy, 99.0), expected);
}

TEST(PercentilesInplace, BitwiseMatchesCopySortVariant) {
  util::Rng rng(4);
  std::vector<double> v(20000);
  for (auto& x : v) x = rng.exponential(1.0);
  // Unsorted ps with duplicates and both endpoints: out[i] must line up
  // with the caller's ps order regardless of the internal selection order.
  const double ps[] = {95.0, 0.0, 50.0, 99.9, 50.0, 100.0};
  const auto sorted_path = percentiles(v, ps);
  std::vector<double> scratch = v;
  const auto selected = percentiles_inplace(scratch, ps);
  ASSERT_EQ(sorted_path.size(), selected.size());
  for (std::size_t i = 0; i < sorted_path.size(); ++i) {
    // Selection must be bit-identical to the sort-based path, not merely
    // close: BENCH_replay.json asserts the two pipelines agree exactly.
    EXPECT_EQ(sorted_path[i], selected[i]) << "ps index " << i;
  }
}

TEST(PercentilesInplace, RejectsEmptyAndBadPsBeforeReordering) {
  std::vector<double> v = {3.0, 1.0, 2.0};
  const std::vector<double> original = v;
  EXPECT_THROW(percentiles_inplace(v, std::span<const double>{}),
               std::invalid_argument);
  const double bad[] = {50.0, 120.0};
  EXPECT_THROW(percentiles_inplace(v, bad), std::invalid_argument);
  const double nan_p[] = {50.0, std::nan("")};
  EXPECT_THROW(percentiles_inplace(v, nan_p), std::invalid_argument);
  // Validation happens before any partitioning, so a rejected call must
  // leave the sample untouched.
  EXPECT_EQ(v, original);
}

TEST(Percentiles, RejectsEmptyAndBadPs) {
  std::vector<double> v = {1.0, 2.0};
  EXPECT_THROW(percentiles(v, std::span<const double>{}),
               std::invalid_argument);
  const double bad[] = {50.0, -0.5};
  EXPECT_THROW(percentiles(v, bad), std::invalid_argument);
  const double nan_p[] = {std::nan(""), 50.0};
  EXPECT_THROW(percentiles(v, nan_p), std::invalid_argument);
}

TEST(Percentile, UniformQuantilesConverge) {
  util::Rng rng(3);
  std::vector<double> v(200000);
  for (auto& x : v) x = rng.uniform();
  EXPECT_NEAR(percentile(v, 99.0), 0.99, 0.002);
  EXPECT_NEAR(percentile(v, 50.0), 0.50, 0.005);
}

TEST(Percentile, NaNSampleThrowsInsteadOfSilentGarbage) {
  // A NaN breaks the strict weak ordering std::sort / nth_element require,
  // so before the guard these calls returned arbitrary junk.  All four
  // entry points must reject the sample loudly.
  const double nan = std::nan("");
  std::vector<double> v = {1.0, nan, 3.0};
  const double ps[] = {50.0, 99.0};
  EXPECT_THROW(percentile(v, 50.0), std::invalid_argument);
  EXPECT_THROW(percentiles(v, ps), std::invalid_argument);
  std::vector<double> scratch = v;
  EXPECT_THROW(percentile_inplace(scratch, 50.0), std::invalid_argument);
  scratch = v;
  EXPECT_THROW(percentiles_inplace(scratch, ps), std::invalid_argument);
  // The rejected in-place call must not have reordered the sample.
  EXPECT_EQ(scratch[0], 1.0);
  EXPECT_EQ(scratch[2], 3.0);
}

TEST(Percentile, InfinitiesAreOrderedNormally) {
  // Infinities sort fine -- only NaN is rejected.
  std::vector<double> v = {1.0, std::numeric_limits<double>::infinity(), 0.5};
  EXPECT_DOUBLE_EQ(percentile(v, 100.0),
                   std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 0.5);
}

TEST(PercentilesInplace, EndpointAndSingleSampleEdges) {
  std::vector<double> single = {42.0};
  const double ps[] = {0.0, 50.0, 100.0};
  const auto out = percentiles_inplace(single, ps);
  for (double x : out) EXPECT_DOUBLE_EQ(x, 42.0);

  std::vector<double> v = {4.0, 2.0, 9.0, 7.0};
  const auto ends = percentiles_inplace(v, std::span<const double>(ps, 3));
  EXPECT_DOUBLE_EQ(ends[0], 2.0);   // p0 = min
  EXPECT_DOUBLE_EQ(ends[2], 9.0);   // p100 = max

  std::vector<double> empty;
  EXPECT_THROW(percentiles_inplace(empty, std::span<const double>(ps, 3)),
               std::invalid_argument);
  EXPECT_THROW(percentile_inplace(empty, 50.0), std::invalid_argument);
}

// Randomized cross-check of the nth_element selection path against the
// full-sort oracle.  The selection path's soundness rests on two claimed
// invariants -- ascending-p processing restricts each selection to the
// still-unpartitioned suffix, and the degenerate nth_element at lo+1 yields
// the exact interpolation neighbor -- which this fuzz pins over the inputs
// most likely to break a partial ordering: tiny samples (n = 1..4 hit every
// branch), duplicate-heavy draws (ties in strict-weak-order comparisons),
// and unsorted / duplicated ps hammering the cached_lo fast path.
TEST(PercentilesInplace, RandomizedFullSortOracle) {
  util::Rng rng(1234);
  for (int trial = 0; trial < 400; ++trial) {
    // Sizes biased toward tiny; every trial < 100 uses n in [1, 8].
    const std::size_t n =
        trial < 100 ? 1 + rng.uniform_int(std::uint64_t{8})
                    : 1 + rng.uniform_int(std::uint64_t{200});
    std::vector<double> v(n);
    const bool duplicate_heavy = (trial % 2) == 0;
    for (double& x : v) {
      // Duplicate-heavy: values from {0..4}, so runs of equal elements
      // straddle the selection pivots.  Otherwise continuous draws.
      x = duplicate_heavy
              ? static_cast<double>(rng.uniform_int(std::uint64_t{5}))
              : rng.exponential(1.0);
    }
    const std::size_t np = 1 + rng.uniform_int(std::uint64_t{6});
    std::vector<double> ps(np);
    for (double& p : ps) {
      switch (rng.uniform_int(std::uint64_t{4})) {
        case 0: p = 0.0; break;
        case 1: p = 100.0; break;
        default: p = rng.uniform(0.0, 100.0); break;
      }
    }
    if (np > 1 && rng.bernoulli(0.3)) ps[np - 1] = ps[0];  // duplicate p

    const auto oracle = percentiles(v, ps);
    std::vector<double> scratch = v;
    const auto selected = percentiles_inplace(scratch, ps);
    ASSERT_EQ(oracle.size(), selected.size());
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      ASSERT_EQ(oracle[i], selected[i])
          << "trial " << trial << " n=" << n << " ps[" << i << "]=" << ps[i];
    }
    // The selection only reorders; it must not lose or invent samples.
    std::sort(scratch.begin(), scratch.end());
    std::sort(v.begin(), v.end());
    ASSERT_EQ(scratch, v) << "trial " << trial << ": sample multiset changed";
  }
}

}  // namespace
}  // namespace forktail::stats
