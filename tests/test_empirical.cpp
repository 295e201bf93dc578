#include "dist/empirical.hpp"

#include <gtest/gtest.h>

#include "support/raw_moments.hpp"
#include "util/rng.hpp"

namespace forktail::dist {
namespace {

Empirical two_segment() {
  // Uniform mixture: 50% mass uniform on [0,1], 50% uniform on [1,3].
  return Empirical({0.0, 0.5, 1.0}, {0.0, 1.0, 3.0});
}

TEST(Empirical, MomentsOfUniformMixture) {
  const Empirical d = two_segment();
  // E[X] = 0.5*0.5 + 0.5*2 = 1.25; E[X^2] = 0.5*(1/3) + 0.5*(13/3) = 7/3.
  EXPECT_NEAR(d.mean(), 1.25, 1e-12);
  EXPECT_NEAR(d.moment(2), 7.0 / 3.0, 1e-12);
}

TEST(Empirical, QuantileInterpolation) {
  const Empirical d = two_segment();
  EXPECT_DOUBLE_EQ(d.quantile(0.25), 0.5);
  EXPECT_DOUBLE_EQ(d.quantile(0.75), 2.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 3.0);
}

TEST(Empirical, CdfInvertsQuantile) {
  const Empirical d = two_segment();
  for (double u : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    EXPECT_NEAR(d.cdf(d.quantile(u)), u, 1e-12) << "u=" << u;
  }
}

TEST(Empirical, SamplingMatchesMoments) {
  const Empirical d = two_segment();
  util::Rng rng(30);
  test_support::RawMoments m;
  for (int i = 0; i < 300000; ++i) m.add(d.sample(rng));
  EXPECT_NEAR(m.moment(1), d.moment(1), 0.01);
  EXPECT_NEAR(m.moment(2), d.moment(2), 0.03);
}

TEST(Empirical, ScaledMultipliesMoments) {
  const Empirical d = two_segment();
  const Empirical s = d.scaled(2.0);
  EXPECT_NEAR(s.mean(), 2.0 * d.mean(), 1e-12);
  EXPECT_NEAR(s.moment(2), 4.0 * d.moment(2), 1e-12);
  EXPECT_NEAR(s.moment(3), 8.0 * d.moment(3), 1e-12);
}

TEST(Empirical, FlatSegmentsHandled) {
  // An atom at 1.0 carrying 50% mass (flat value segment).
  const Empirical d({0.0, 0.25, 0.75, 1.0}, {0.0, 1.0, 1.0, 2.0});
  EXPECT_NEAR(d.cdf(1.0 - 1e-12), 0.25, 1e-6);
  EXPECT_NEAR(d.cdf(1.0 + 1e-12), 0.75, 1e-6);
  // Mean = 0.25*0.5 + 0.5*1 + 0.25*1.5 = 1.0.
  EXPECT_NEAR(d.mean(), 1.0, 1e-12);
}

TEST(Empirical, ValidatesKnots) {
  EXPECT_THROW(Empirical({0.0, 1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(Empirical({0.1, 1.0}, {0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Empirical({0.0, 0.5}, {0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Empirical({0.0, 0.5, 0.5, 1.0}, {0.0, 1.0, 2.0, 3.0}),
               std::invalid_argument);
  EXPECT_THROW(Empirical({0.0, 1.0}, {1.0, 0.5}), std::invalid_argument);
}

TEST(Empirical, ScaledRejectsNonPositive) {
  EXPECT_THROW(two_segment().scaled(0.0), std::invalid_argument);
}

}  // namespace
}  // namespace forktail::dist
