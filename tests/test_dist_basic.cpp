#include "dist/basic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "dist/factory.hpp"
#include "stats/ecdf.hpp"
#include "support/raw_moments.hpp"
#include "util/rng.hpp"

namespace forktail::dist {
namespace {

// Shared property checks: sampled moments match analytic moments; the
// empirical CDF of samples matches the analytic CDF.
void check_distribution(const Distribution& d, double moment_tol_rel,
                        std::uint64_t seed, int n = 200000) {
  util::Rng rng(seed);
  test_support::RawMoments m;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double x = d.sample(rng);
    ASSERT_GE(x, 0.0);
    m.add(x);
    samples.push_back(x);
  }
  EXPECT_NEAR(m.moment(1), d.moment(1), moment_tol_rel * d.moment(1))
      << d.name() << " mean";
  EXPECT_NEAR(m.moment(2), d.moment(2), 3 * moment_tol_rel * d.moment(2))
      << d.name() << " m2";
  stats::Ecdf ecdf(samples);
  const double ks = ecdf.ks_distance([&](double x) { return d.cdf(x); });
  EXPECT_LT(ks, 0.01) << d.name() << " KS";
}

TEST(Exponential, MomentsAndCdf) {
  Exponential d(4.22);
  EXPECT_DOUBLE_EQ(d.mean(), 4.22);
  EXPECT_NEAR(d.variance(), 4.22 * 4.22, 1e-12);
  EXPECT_NEAR(d.scv(), 1.0, 1e-12);
  EXPECT_NEAR(d.moment(3), 6 * std::pow(4.22, 3), 1e-9);
  check_distribution(d, 0.01, 100);
}

TEST(Exponential, LstAtZeroIsOne) {
  Exponential d(2.0);
  EXPECT_TRUE(d.has_lst());
  EXPECT_NEAR(d.lst({0.0, 0.0}).real(), 1.0, 1e-12);
  // LST derivative at 0 gives -mean: finite difference check.
  const double h = 1e-6;
  const double deriv = (d.lst({h, 0.0}).real() - 1.0) / h;
  EXPECT_NEAR(deriv, -2.0, 1e-4);
}

TEST(Exponential, RejectsBadMean) {
  EXPECT_THROW(Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(Exponential(-1.0), std::invalid_argument);
}

TEST(Erlang, ScvIsInverseStages) {
  for (int k : {1, 2, 4, 8}) {
    Erlang d(k, 4.22);
    EXPECT_NEAR(d.mean(), 4.22, 1e-12);
    EXPECT_NEAR(d.scv(), 1.0 / k, 1e-12) << "k=" << k;
  }
}

TEST(Erlang, SamplingMatchesAnalytic) {
  Erlang d(2, 4.22);
  check_distribution(d, 0.01, 101);
}

TEST(Erlang, CdfMatchesPoissonSum) {
  Erlang d(3, 3.0);  // stage rate 1
  // P(X <= x) = 1 - e^-x (1 + x + x^2/2) for unit stage rate.
  const double x = 2.5;
  const double expected = 1.0 - std::exp(-x) * (1.0 + x + x * x / 2.0);
  EXPECT_NEAR(d.cdf(x), expected, 1e-12);
}

TEST(Erlang, OneStageEqualsExponential) {
  Erlang e1(1, 5.0);
  Exponential ex(5.0);
  for (double x : {0.5, 2.0, 10.0}) {
    EXPECT_NEAR(e1.cdf(x), ex.cdf(x), 1e-12);
  }
  EXPECT_NEAR(e1.moment(3), ex.moment(3), 1e-9);
}

TEST(HyperExp2, FromMeanScvHitsTargets) {
  const auto d = HyperExp2::from_mean_scv(4.22, 2.0);
  EXPECT_NEAR(d.mean(), 4.22, 1e-12);
  EXPECT_NEAR(d.scv(), 2.0, 1e-12);
}

TEST(HyperExp2, SamplingMatchesAnalytic) {
  const auto d = HyperExp2::from_mean_scv(4.22, 2.0);
  check_distribution(d, 0.02, 102);
}

TEST(HyperExp2, RequiresScvAtLeastOne) {
  EXPECT_THROW(HyperExp2::from_mean_scv(1.0, 0.5), std::invalid_argument);
}

TEST(HyperExp2, LstMatchesMixture) {
  const auto d = HyperExp2::from_mean_scv(2.0, 3.0);
  const std::complex<double> s{0.7, 0.0};
  const std::complex<double> expected =
      d.p1() * (d.rate1() / (d.rate1() + s)) +
      (1.0 - d.p1()) * (d.rate2() / (d.rate2() + s));
  EXPECT_NEAR(d.lst(s).real(), expected.real(), 1e-14);
}

TEST(Deterministic, AllMassAtValue) {
  Deterministic d(3.5);
  util::Rng rng(5);
  EXPECT_DOUBLE_EQ(d.sample(rng), 3.5);
  EXPECT_DOUBLE_EQ(d.mean(), 3.5);
  EXPECT_NEAR(d.variance(), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(d.cdf(3.4), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(3.5), 1.0);
  EXPECT_NEAR(d.lst({1.0, 0.0}).real(), std::exp(-3.5), 1e-12);
}

TEST(UniformReal, MomentsAndCdf) {
  UniformReal d(2.0, 6.0);
  EXPECT_DOUBLE_EQ(d.mean(), 4.0);
  EXPECT_NEAR(d.variance(), 16.0 / 12.0, 1e-12);
  EXPECT_DOUBLE_EQ(d.cdf(2.0), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(4.0), 0.5);
  EXPECT_DOUBLE_EQ(d.cdf(7.0), 1.0);
  check_distribution(d, 0.01, 103);
}

TEST(Factory, BuildsAllNamedDistributionsAtPaperMean) {
  for (const auto& name : named_distributions()) {
    const DistPtr d = make_named(name);
    ASSERT_TRUE(d) << name;
    EXPECT_NEAR(d->mean(), kPaperMeanServiceMs, 1e-6) << name;
  }
}

TEST(Factory, UnknownNameThrows) {
  EXPECT_THROW(make_named("Zipf"), std::invalid_argument);
}

TEST(Factory, CvRosterMatchesPaper) {
  EXPECT_NEAR(make_named("Erlang-2")->scv(), 0.5, 1e-9);
  EXPECT_NEAR(make_named("Exponential")->scv(), 1.0, 1e-9);
  EXPECT_NEAR(make_named("HyperExp2")->scv(), 2.0, 1e-9);
  EXPECT_NEAR(make_named("Weibull")->cv(), 1.5, 1e-6);
  EXPECT_NEAR(make_named("TruncPareto")->cv(), 1.2, 1e-6);
  EXPECT_NEAR(make_named("Empirical")->cv(), 1.12, 0.01);
}

}  // namespace
}  // namespace forktail::dist
