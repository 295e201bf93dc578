#include "dist/heavy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "stats/ecdf.hpp"
#include "support/raw_moments.hpp"
#include "util/rng.hpp"

namespace forktail::dist {
namespace {

TEST(NormalHelpers, CdfPdfConsistency) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-14);
  EXPECT_NEAR(normal_cdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(normal_cdf(-1.959963984540054), 0.025, 1e-9);
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-12);
}

TEST(NormalHelpers, QuantileInvertsCdf) {
  for (double p : {0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999}) {
    const double z = normal_quantile(p);
    EXPECT_NEAR(normal_cdf(z), p, 1e-10) << "p=" << p;
  }
  EXPECT_THROW(normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW(normal_quantile(1.0), std::invalid_argument);
}

TEST(Weibull, PaperCalibration) {
  // mean 4.22 ms, CV 1.5 => shape 0.6848, scale 3.2630 (Section 4.1).
  const auto d = Weibull::from_mean_cv(4.22, 1.5);
  EXPECT_NEAR(d.shape(), 0.6848, 5e-4);
  EXPECT_NEAR(d.scale(), 3.2630, 5e-3);
  EXPECT_NEAR(d.mean(), 4.22, 1e-9);
  EXPECT_NEAR(d.cv(), 1.5, 1e-9);
}

TEST(Weibull, SampledMomentsMatchAnalytic) {
  const auto d = Weibull::from_mean_cv(4.22, 1.5);
  util::Rng rng(20);
  test_support::RawMoments m;
  std::vector<double> samples;
  for (int i = 0; i < 300000; ++i) {
    const double x = d.sample(rng);
    m.add(x);
    samples.push_back(x);
  }
  EXPECT_NEAR(m.moment(1), d.moment(1), 0.02 * d.moment(1));
  EXPECT_NEAR(m.moment(2), d.moment(2), 0.05 * d.moment(2));
  stats::Ecdf e(samples);
  EXPECT_LT(e.ks_distance([&](double x) { return d.cdf(x); }), 0.01);
}

TEST(Weibull, ShapeOneIsExponential) {
  Weibull d(1.0, 3.0);
  EXPECT_NEAR(d.mean(), 3.0, 1e-12);
  EXPECT_NEAR(d.scv(), 1.0, 1e-9);
  EXPECT_NEAR(d.cdf(3.0), 1.0 - std::exp(-1.0), 1e-12);
}

TEST(TruncatedPareto, PaperCalibration) {
  // mean 4.22 ms, CV 1.2, H = 276.6 ms => alpha = 2.0119, L = 2.14 ms.
  const auto d = TruncatedPareto::from_mean_cv_upper(4.22, 1.2, 276.6);
  EXPECT_NEAR(d.alpha(), 2.0119, 2e-3);
  EXPECT_NEAR(d.lower(), 2.14, 5e-3);
  EXPECT_NEAR(d.mean(), 4.22, 1e-8);
  EXPECT_NEAR(d.cv(), 1.2, 1e-8);
}

TEST(TruncatedPareto, SupportRespected) {
  const auto d = TruncatedPareto::from_mean_cv_upper(4.22, 1.2, 276.6);
  util::Rng rng(21);
  for (int i = 0; i < 100000; ++i) {
    const double x = d.sample(rng);
    ASSERT_GE(x, d.lower());
    ASSERT_LE(x, d.upper());
  }
}

TEST(TruncatedPareto, CdfBoundariesAndMonotone) {
  TruncatedPareto d(2.0, 1.0, 100.0);
  EXPECT_DOUBLE_EQ(d.cdf(1.0), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(100.0), 1.0);
  double prev = 0.0;
  for (double x = 1.0; x <= 100.0; x += 1.0) {
    const double c = d.cdf(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(TruncatedPareto, ThirdMomentFiniteThanksToTruncation) {
  const auto d = TruncatedPareto::from_mean_cv_upper(4.22, 1.2, 276.6);
  // alpha ~ 2 means an untruncated Pareto would have infinite E[S^3]; the
  // truncation keeps it finite -- required by the Takacs formula (Eq. 11).
  EXPECT_GT(d.moment(3), 0.0);
  EXPECT_LT(d.moment(3), std::pow(276.6, 3));
  util::Rng rng(22);
  test_support::RawMoments m;
  // E[S^3] with alpha ~ 2 is dominated by rare near-maximum draws, so the
  // Monte-Carlo estimate converges slowly; use a wide band.
  for (int i = 0; i < 2000000; ++i) m.add(d.sample(rng));
  EXPECT_NEAR(m.moment(3), d.moment(3), 0.15 * d.moment(3));
}

TEST(TruncatedPareto, MomentAtKEqualAlphaUsesLogBranch) {
  TruncatedPareto d(2.0, 1.0, 50.0);  // k = 2 == alpha
  util::Rng rng(23);
  test_support::RawMoments m;
  for (int i = 0; i < 400000; ++i) m.add(d.sample(rng));
  EXPECT_NEAR(m.moment(2), d.moment(2), 0.05 * d.moment(2));
}

TEST(LogNormal, FromMeanCvRoundTrip) {
  const auto d = LogNormal::from_mean_cv(10.0, 0.8);
  EXPECT_NEAR(d.mean(), 10.0, 1e-9);
  EXPECT_NEAR(d.cv(), 0.8, 1e-9);
}

TEST(LogNormal, SampledCdfMatches) {
  const auto d = LogNormal::from_mean_cv(5.0, 1.0);
  util::Rng rng(24);
  std::vector<double> samples(150000);
  for (auto& x : samples) x = d.sample(rng);
  stats::Ecdf e(samples);
  EXPECT_LT(e.ks_distance([&](double x) { return d.cdf(x); }), 0.01);
}

TEST(TruncatedNormal, MomentsMatchSampling) {
  // The trace model: Normal(m, (2m)^2) truncated below (Hawk-style).
  const double m = 50.0;
  TruncatedNormal d(m, 2.0 * m, 0.05);
  util::Rng rng(25);
  test_support::RawMoments mm;
  for (int i = 0; i < 400000; ++i) {
    const double x = d.sample(rng);
    ASSERT_GE(x, 0.05);
    mm.add(x);
  }
  EXPECT_NEAR(mm.moment(1), d.moment(1), 0.01 * d.moment(1));
  EXPECT_NEAR(mm.moment(2), d.moment(2), 0.03 * d.moment(2));
  EXPECT_NEAR(mm.moment(3), d.moment(3), 0.06 * d.moment(3));
}

TEST(TruncatedNormal, SevereTruncationInflatesMean) {
  // With sigma = 2m the mass below zero is ~31%; truncation raises the
  // mean to ~2x the nominal value -- the effect the trace generator must
  // account for when calibrating load.
  TruncatedNormal d(1.0, 2.0, 0.0);
  EXPECT_GT(d.mean(), 1.9);
  EXPECT_LT(d.mean(), 2.2);
}

TEST(TruncatedNormal, CdfBoundaries) {
  TruncatedNormal d(10.0, 5.0, 1.0);
  EXPECT_DOUBLE_EQ(d.cdf(1.0), 0.0);
  EXPECT_NEAR(d.cdf(1e9), 1.0, 1e-12);
  EXPECT_GT(d.cdf(10.0), 0.3);
  EXPECT_LT(d.cdf(10.0), 0.7);
}

TEST(TruncatedNormal, RejectsNegligibleMass) {
  // Truncating 20 sigma above the mean leaves no usable mass.
  EXPECT_THROW(TruncatedNormal(0.0, 1.0, 20.0), std::invalid_argument);
}

TEST(HeavyDists, NoLstAvailable) {
  const auto d = Weibull::from_mean_cv(4.22, 1.5);
  EXPECT_FALSE(d.has_lst());
  EXPECT_THROW(d.lst({1.0, 0.0}), std::logic_error);
}

TEST(Pareto, MomentsMatchClosedForm) {
  // E[S^k] = alpha scale^k / (alpha - k) for k < alpha, +infinity at and
  // beyond the tail index.
  const Pareto d(2.5, 2.0);
  EXPECT_NEAR(d.moment(1), 2.5 * 2.0 / 1.5, 1e-12);
  EXPECT_NEAR(d.moment(2), 2.5 * 4.0 / 0.5, 1e-12);
  EXPECT_TRUE(std::isinf(d.moment(3)));
  const Pareto light(3.5, 2.0);
  EXPECT_NEAR(light.moment(3), 3.5 * 8.0 / 0.5, 1e-12);
}

TEST(Pareto, CdfBoundariesAndPowerLaw) {
  const Pareto d(2.5, 2.0);
  EXPECT_DOUBLE_EQ(d.cdf(1.0), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(2.0), 0.0);
  EXPECT_NEAR(d.cdf(4.0), 1.0 - std::pow(0.5, 2.5), 1e-14);
  // Survival is an exact power law: S(2x)/S(x) = 2^-alpha for all x >= L.
  for (double x : {3.0, 10.0, 100.0}) {
    EXPECT_NEAR((1.0 - d.cdf(2.0 * x)) / (1.0 - d.cdf(x)),
                std::pow(2.0, -2.5), 1e-12);
  }
}

TEST(Pareto, FromMeanTailRoundTrip) {
  const auto d = Pareto::from_mean_tail(4.22, 2.2);
  EXPECT_NEAR(d.scale(), 4.22 * 1.2 / 2.2, 1e-12);
  EXPECT_NEAR(d.mean(), 4.22, 1e-12);
  EXPECT_DOUBLE_EQ(d.alpha(), 2.2);
}

TEST(Pareto, FromMeanTailRejectsDivergentMean) {
  EXPECT_THROW(Pareto::from_mean_tail(4.22, 1.0), std::invalid_argument);
  EXPECT_THROW(Pareto::from_mean_tail(4.22, 0.5), std::invalid_argument);
  EXPECT_THROW(Pareto::from_mean_tail(0.0, 2.2), std::invalid_argument);
  EXPECT_THROW(Pareto(-1.0, 2.0), std::invalid_argument);
}

TEST(Pareto, SampledBodyMatchesCdf) {
  // KS on the full sample checks the inverse transform; the first moment
  // converges (alpha > 2) but slowly, so the band is loose.
  const auto d = Pareto::from_mean_tail(4.22, 2.6);
  util::Rng rng(21);
  test_support::RawMoments m;
  std::vector<double> samples;
  for (int i = 0; i < 300000; ++i) {
    const double x = d.sample(rng);
    m.add(x);
    samples.push_back(x);
  }
  EXPECT_NEAR(m.moment(1), d.moment(1), 0.05 * d.moment(1));
  stats::Ecdf e(samples);
  EXPECT_LT(e.ks_distance([&](double x) { return d.cdf(x); }), 0.01);
  // Support starts at the scale: no sample below it.
  EXPECT_GE(*std::min_element(samples.begin(), samples.end()), d.scale());
}

TEST(HeavyMixture, MomentsAndCdfAreConvexCombinations) {
  const auto d = ParetoLogNormalMixture::from_mean_tail(4.22, 2.2, 0.9, 0.8);
  // Both components are calibrated to the target mean, so the mixture mean
  // is exactly the target for any body weight.
  EXPECT_NEAR(d.mean(), 4.22, 1e-9);
  EXPECT_NEAR(d.moment(2),
              0.9 * d.body().moment(2) + 0.1 * d.tail().moment(2), 1e-9);
  EXPECT_TRUE(std::isinf(d.moment(3)));  // tail alpha 2.2 < 3 propagates
  for (double x : {1.0, 4.0, 20.0, 200.0}) {
    EXPECT_NEAR(d.cdf(x), 0.9 * d.body().cdf(x) + 0.1 * d.tail().cdf(x),
                1e-14);
  }
}

TEST(HeavyMixture, RejectsDegenerateBodyWeight) {
  const auto body = LogNormal::from_mean_cv(4.22, 0.8);
  const auto tail = Pareto::from_mean_tail(4.22, 2.2);
  EXPECT_THROW(ParetoLogNormalMixture(1.0, body, tail), std::invalid_argument);
  EXPECT_THROW(ParetoLogNormalMixture(-0.1, body, tail),
               std::invalid_argument);
  EXPECT_NO_THROW(ParetoLogNormalMixture(0.0, body, tail));
}

TEST(HeavyMixture, SampledCdfMatchesAnalytic) {
  const auto d = ParetoLogNormalMixture::from_mean_tail(4.22, 2.6);
  util::Rng rng(22);
  std::vector<double> samples;
  samples.reserve(300000);
  for (int i = 0; i < 300000; ++i) samples.push_back(d.sample(rng));
  stats::Ecdf e(samples);
  EXPECT_LT(e.ks_distance([&](double x) { return d.cdf(x); }), 0.01);
}

}  // namespace
}  // namespace forktail::dist
