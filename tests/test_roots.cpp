#include "stats/roots.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace forktail::stats {
namespace {

TEST(Bisect, FindsLinearRoot) {
  // Zero tolerances run to adjacent doubles around the crossing at 3.
  const Bracket b = bisect([](double x) { return x < 3.0; }, 0.0, 10.0);
  EXPECT_EQ(b.hi, 3.0);
  EXPECT_EQ(b.lo, std::nextafter(3.0, 0.0));
}

TEST(Bisect, EvaluatesOnlyMidpointsOfTheCurrentBracket) {
  double lo = 0.0;
  double hi = 10.0;
  int calls = 0;
  const Bracket b = bisect(
      [&](double x) {
        EXPECT_EQ(x, 0.5 * (lo + hi));
        ++calls;
        const bool below = x < 3.0;
        (below ? lo : hi) = x;
        return below;
      },
      lo, hi, 1e-6);
  EXPECT_EQ(b.lo, lo);
  EXPECT_EQ(b.hi, hi);
  EXPECT_EQ(calls, 24);  // 10 / 2^24 <= 1e-6 < 10 / 2^23
}

TEST(Bisect, StopsAtTheTolerance) {
  double root = 0.3;
  int calls = 0;
  const auto below = [&](double x) {
    ++calls;
    return x < root;
  };
  // Absolute: 1 / 2^10 <= 1e-3 < 1 / 2^9.
  Bracket b = bisect(below, 0.0, 1.0, 1e-3);
  EXPECT_EQ(calls, 10);
  EXPECT_TRUE(b.lo < root && root <= b.hi);
  // Relative to 1 + hi ~ 1001: 1024 / 2^20 <= 1e-6 (1 + hi) < 1024 / 2^19.
  root = 1000.3;
  calls = 0;
  b = bisect(below, 0.0, 1024.0, 0.0, 1e-6);
  EXPECT_EQ(calls, 20);
  EXPECT_TRUE(b.lo < root && root <= b.hi);
  EXPECT_EQ(b.mid(), 0.5 * (b.lo + b.hi));
}

TEST(Bisect, StopsWhenTheMidpointRoundsOntoEitherEnd) {
  // Adjacent doubles: the midpoint rounds (to even) onto one end, and
  // without the rounding stop a zero tolerance would never finish.
  int calls = 0;
  const auto below = [&](double) {
    ++calls;
    return true;
  };
  const double up = std::nextafter(1.0, 2.0);
  ASSERT_EQ(0.5 * (1.0 + up), 1.0);  // onto lo
  Bracket b = bisect(below, 1.0, up);
  EXPECT_EQ(b.lo, 1.0);
  EXPECT_EQ(b.hi, up);
  const double down = std::nextafter(1.0, 0.0);
  ASSERT_EQ(0.5 * (down + 1.0), 1.0);  // onto hi
  b = bisect(below, down, 1.0);
  EXPECT_EQ(b.lo, down);
  EXPECT_EQ(b.hi, 1.0);
  EXPECT_EQ(calls, 0);
}

TEST(Bisect, EndpointRoot) {
  // The crossing sits on lo: hi halves toward 0 until the cap.
  int calls = 0;
  const Bracket b = bisect(
      [&](double x) {
        ++calls;
        return x <= 0.0;
      },
      0.0, 1.0);
  EXPECT_EQ(b.lo, 0.0);
  EXPECT_EQ(b.hi, std::ldexp(1.0, -kMaxHalvings));
  EXPECT_EQ(calls, kMaxHalvings);
}

TEST(Brent, FindsTranscendentalRoot) {
  // x = cos(x) has root ~0.7390851332151607.
  const double r = brent([](double x) { return x - std::cos(x); }, 0.0, 1.0);
  EXPECT_NEAR(r, 0.7390851332151607, 1e-10);
}

TEST(Brent, HandlesSteepFunctions) {
  const double r =
      brent([](double x) { return std::exp(20.0 * x) - 5.0; }, -1.0, 1.0);
  EXPECT_NEAR(r, std::log(5.0) / 20.0, 1e-10);
}

TEST(Brent, HandlesFlatTails) {
  // CDF-like function: flat near 0 and 1.
  auto f = [](double x) { return std::tanh(5.0 * (x - 2.0)) + 0.5; };
  const double r = brent(f, 0.0, 4.0);
  EXPECT_NEAR(f(r), 0.0, 1e-9);
}

TEST(Brent, ThrowsWhenNotBracketed) {
  EXPECT_THROW(brent([](double x) { return x * x + 1.0; }, -1.0, 1.0),
               std::invalid_argument);
}

TEST(Brent, ConvergesWithinIterationBudget) {
  RootOptions opts;
  opts.max_iterations = 60;
  const double r = brent([](double x) { return std::pow(x, 9) - 0.5; }, 0.0,
                         1.0, opts);
  EXPECT_NEAR(r, std::pow(0.5, 1.0 / 9.0), 1e-8);
}

TEST(BrentExpandUpper, FindsDistantRoot) {
  // Root at x = 1e6, initial bracket far below it.
  const double r = brent_expand_upper(
      [](double x) { return x - 1e6; }, 0.0, 1.0);
  EXPECT_NEAR(r, 1e6, 1e-3);
}

TEST(BrentExpandUpper, ThrowsWhenNoRootExists) {
  EXPECT_THROW(
      brent_expand_upper([](double) { return -1.0; }, 0.0, 1.0),
      std::runtime_error);
}

TEST(Brent, QuantileInversionShape) {
  // Invert F(x) = 1 - e^{-x} at q = 0.99 -> x = ln(100).
  const double q = 0.99;
  const double r = brent_expand_upper(
      [&](double x) { return (1.0 - std::exp(-x)) - q; }, 0.0, 1.0);
  EXPECT_NEAR(r, std::log(100.0), 1e-9);
}

}  // namespace
}  // namespace forktail::stats
