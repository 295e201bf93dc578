#include "stats/spearman.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "support/sort_spearman.hpp"
#include "util/rng.hpp"

namespace forktail::stats {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(Spearman, TiesTakeMidRanks) {
  // Mid-ranks (0, 1.5, 1.5, 3) and ranks (0, 2, 1, 3); deviations from the
  // mean rank 1.5 are (-1.5, 0, 0, 1.5) and (-1.5, 0.5, -0.5, 1.5), so
  // rho = 4.5 / sqrt(4.5 * 5) = sqrt(0.9).
  const std::vector<double> a = {1.0, 2.0, 2.0, 3.0};
  const std::vector<double> b = {1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(spearman(a, b), std::sqrt(0.9));
  EXPECT_DOUBLE_EQ(spearman(b, a), std::sqrt(0.9));
}

TEST(Spearman, OrdersNegativesZerosAndInfinities) {
  // Two samples rank alike exactly when rho is 1 (every deviation product
  // is then a square), so each sample is checked against its expected
  // mid-ranks.  -0.0 and +0.0 tie.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> v = {3.5, -0.0, -inf,   0.0,
                                 -2.0, inf, 1e-300, -1e-300};
  const std::vector<double> ranks = {6.0, 3.5, 0.0, 3.5, 1.0, 7.0, 5.0, 2.0};
  EXPECT_EQ(spearman(v, ranks), 1.0);
  const std::vector<double> shuffled = {6.0, 3.0, 0.0, 4.0,
                                        1.0, 7.0, 5.0, 2.0};
  EXPECT_LT(spearman(v, shuffled), 1.0);
}

TEST(Spearman, MonotoneAndAntitone) {
  std::vector<double> x;
  std::vector<double> up;
  std::vector<double> down;
  for (int i = 0; i < 1000; ++i) {
    const double v = -50.0 + 0.1 * i;
    x.push_back(v);
    up.push_back(std::exp(0.01 * v));
    down.push_back(-v * v * v);
  }
  EXPECT_EQ(spearman(x, up), 1.0);
  EXPECT_EQ(spearman(x, down), -1.0);
}

TEST(Spearman, AllTiedSamplesStayFinite) {
  const std::vector<double> flat(100, 2.5);
  std::vector<double> ramp;
  for (int i = 0; i < 100; ++i) ramp.push_back(i);
  // Two constant samples have identical (all mid) ranks.
  EXPECT_EQ(spearman(flat, flat), 1.0);
  EXPECT_EQ(spearman(flat, ramp), 0.0);
  EXPECT_EQ(spearman(ramp, flat), 0.0);
}

TEST(Spearman, RejectsNaNAndShortOrUnequalSamples) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(spearman(std::vector<double>{1.0, nan, 3.0},
                        std::vector<double>{1.0, 2.0, 3.0}),
               std::invalid_argument);
  EXPECT_THROW(spearman(std::vector<double>{1.0, 2.0},
                        std::vector<double>{nan, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(spearman(std::vector<double>{1.0}, std::vector<double>{2.0}),
               std::invalid_argument);
  EXPECT_THROW(spearman(std::vector<double>{}, std::vector<double>{}),
               std::invalid_argument);
  EXPECT_THROW(spearman(std::vector<double>{1.0, 2.0},
                        std::vector<double>{1.0, 2.0, 3.0}),
               std::invalid_argument);
}

TEST(Spearman, BitIdenticalToSortOracleWithoutTies) {
  util::Rng rng(20261018);
  for (std::size_t n : {2u, 3u, 17u, 1000u, 65537u}) {
    std::vector<double> a(n);
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Signed, spread over many binades, and dependent on each other.
      a[i] = rng.normal(0.0, 1.0) * std::exp(rng.normal(0.0, 4.0));
      b[i] = 0.5 * a[i] + rng.normal(0.0, 1.0) - 0.3;
    }
    ASSERT_FALSE(test_support::has_exact_tie(a));
    ASSERT_FALSE(test_support::has_exact_tie(b));
    EXPECT_EQ(bits(spearman(a, b)), bits(test_support::sort_spearman(a, b)))
        << "n=" << n;
  }
}

}  // namespace
}  // namespace forktail::stats
