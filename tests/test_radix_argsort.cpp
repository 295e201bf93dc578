#include "stats/radix_argsort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace forktail::stats {
namespace {

/// The unique stable ascending permutation, by comparison sort.
std::vector<std::uint32_t> stable_order(const std::vector<double>& values) {
  std::vector<std::uint32_t> order(values.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return values[a] < values[b];
                   });
  return order;
}

std::vector<std::uint32_t> radix_order(RadixArgsort& sorter,
                                       const std::vector<double>& values) {
  sorter.sort(values);
  return {sorter.order().begin(), sorter.order().end()};
}

TEST(RadixArgsort, MatchesStableComparisonSort) {
  util::Rng rng(20261018);
  RadixArgsort sorter;  // reused: buffers carry over between sorts
  for (std::size_t n : {1u, 2u, 17u, 1000u, 40000u}) {
    std::vector<double> mixed(n);
    std::vector<double> ties(n);
    std::vector<double> clustered(n);
    for (std::size_t i = 0; i < n; ++i) {
      mixed[i] = rng.uniform() < 0.5 ? -rng.exponential(1.0)
                                     : rng.exponential(1e3);
      ties[i] = static_cast<double>(rng.next_u64() % 7);
      // One spike of near-equal positive values: the vector pipeline's
      // fallback case, where most digits are constant.
      clustered[i] = 1.0 + static_cast<double>(rng.next_u64() % 64) * 1e-15;
    }
    for (const auto* values : {&mixed, &ties, &clustered}) {
      EXPECT_EQ(radix_order(sorter, *values), stable_order(*values)) << n;
      const auto keys = sorter.keys();
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(keys[i], order_key((*values)[sorter.order()[i]]));
      }
    }
  }
}

TEST(RadixArgsort, SignedZerosTieAndNaNThrows) {
  RadixArgsort sorter;
  EXPECT_EQ(radix_order(sorter, {0.0, -0.0, -1.0, 0.0}),
            (std::vector<std::uint32_t>{2, 0, 1, 3}));
  EXPECT_EQ(order_key(-0.0), order_key(0.0));
  EXPECT_LT(order_key(-std::numeric_limits<double>::infinity()),
            order_key(-std::numeric_limits<double>::max()));
  EXPECT_THROW(
      sorter.sort(std::vector<double>{
          1.0, std::numeric_limits<double>::quiet_NaN()}),
      std::invalid_argument);
}

}  // namespace
}  // namespace forktail::stats
