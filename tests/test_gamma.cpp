#include "dist/gamma.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dist/basic.hpp"
#include "stats/ecdf.hpp"
#include "support/raw_moments.hpp"
#include "util/rng.hpp"

namespace forktail::dist {
namespace {

TEST(RegularizedGammaP, KnownValues) {
  // P(1, x) = 1 - e^{-x}.
  for (double x : {0.5, 1.0, 3.0}) {
    EXPECT_NEAR(regularized_gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
  // P(a, a) ~ 0.5 for large a (median near the mean).
  EXPECT_NEAR(regularized_gamma_p(100.0, 100.0), 0.5133, 1e-3);
  // Chi-square(2k) relation: P(0.5, 0.5) = erf(1/sqrt(2))... spot value.
  EXPECT_NEAR(regularized_gamma_p(0.5, 0.5), 0.6826894921, 1e-9);
}

TEST(RegularizedGammaP, BoundariesAndMonotone) {
  EXPECT_DOUBLE_EQ(regularized_gamma_p(2.0, 0.0), 0.0);
  EXPECT_NEAR(regularized_gamma_p(2.0, 100.0), 1.0, 1e-12);
  double prev = 0.0;
  for (double x = 0.1; x < 20.0; x += 0.1) {
    const double p = regularized_gamma_p(3.0, x);
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_THROW(regularized_gamma_p(0.0, 1.0), std::invalid_argument);
}

TEST(Gamma, MomentsClosedForm) {
  Gamma g(3.0, 2.0);
  EXPECT_DOUBLE_EQ(g.mean(), 6.0);
  EXPECT_DOUBLE_EQ(g.variance(), 12.0);
  EXPECT_DOUBLE_EQ(g.moment(3), 2.0 * 2.0 * 2.0 * 3.0 * 4.0 * 5.0);
}

TEST(Gamma, FromMeanCvRoundTrip) {
  for (double cv : {0.3, 0.7, 1.0, 1.8}) {
    const Gamma g = Gamma::from_mean_cv(4.22, cv);
    EXPECT_NEAR(g.mean(), 4.22, 1e-12) << "cv=" << cv;
    EXPECT_NEAR(g.cv(), cv, 1e-12) << "cv=" << cv;
  }
}

TEST(Gamma, ShapeOneIsExponential) {
  Gamma g(1.0, 4.22);
  Exponential e(4.22);
  for (double x : {1.0, 4.22, 20.0}) {
    EXPECT_NEAR(g.cdf(x), e.cdf(x), 1e-12);
  }
  EXPECT_NEAR(g.moment(3), e.moment(3), 1e-9);
}

class GammaSampling : public ::testing::TestWithParam<double> {};

TEST_P(GammaSampling, MatchesAnalyticMomentsAndCdf) {
  const double cv = GetParam();
  const Gamma g = Gamma::from_mean_cv(1.0, cv);
  util::Rng rng(17);
  test_support::RawMoments m;
  std::vector<double> samples;
  samples.reserve(200000);
  for (int i = 0; i < 200000; ++i) {
    const double x = g.sample(rng);
    ASSERT_GT(x, 0.0);
    m.add(x);
    samples.push_back(x);
  }
  EXPECT_NEAR(m.moment(1), g.moment(1), 0.02 * g.moment(1));
  EXPECT_NEAR(m.moment(2), g.moment(2), 0.05 * g.moment(2));
  stats::Ecdf e(samples);
  EXPECT_LT(e.ks_distance([&](double x) { return g.cdf(x); }), 0.01);
}

INSTANTIATE_TEST_SUITE_P(CvGrid, GammaSampling,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0));

TEST(Gamma, LstMatchesClosedFormAndMoments) {
  const Gamma g(2.5, 1.3);
  EXPECT_TRUE(g.has_lst());
  EXPECT_NEAR(g.lst({0.0, 0.0}).real(), 1.0, 1e-12);
  // -d/ds LST at 0 = mean (finite difference).
  const double h = 1e-7;
  EXPECT_NEAR((1.0 - g.lst({h, 0.0}).real()) / h, g.mean(), 1e-4);
  // Closed form at a real point.
  EXPECT_NEAR(g.lst({0.7, 0.0}).real(), std::pow(1.0 + 1.3 * 0.7, -2.5), 1e-12);
}

TEST(Gamma, Validation) {
  EXPECT_THROW(Gamma(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Gamma(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(Gamma::from_mean_cv(-1.0, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace forktail::dist
