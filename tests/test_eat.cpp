#include "baselines/eat.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "dist/basic.hpp"
#include "dist/factory.hpp"
#include "stats/spearman.hpp"
#include "support/mm1.hpp"
#include "support/sort_spearman.hpp"

namespace forktail::baselines {
namespace {

dist::DistPtr exp_service() { return std::make_shared<dist::Exponential>(1.0); }

TEST(EatPredictor, SingleNodeMatchesMm1Exactly) {
  // With one node there is no dependence correction: EAT's quantile is the
  // numerically inverted M/M/1 response percentile.
  const double lambda = 0.8;
  EatPredictor eat(lambda, exp_service(), 1);
  queueing::Mm1 q(lambda, 1.0);
  for (double p : {50.0, 90.0, 99.0}) {
    EXPECT_NEAR(eat.quantile(p), q.response_percentile(p),
                0.01 * q.response_percentile(p))
        << "p=" << p;
  }
}

TEST(EatPredictor, MarginalCdfMatchesMm1) {
  const double lambda = 0.7;
  EatPredictor eat(lambda, exp_service(), 8);
  queueing::Mm1 q(lambda, 1.0);
  for (double x : {1.0, 3.0, 10.0}) {
    EXPECT_NEAR(eat.marginal_cdf(x), 1.0 - q.response_ccdf(x), 1e-5);
  }
}

TEST(EatPredictor, CorrelationPositiveAndGrowsWithLoad) {
  EatPredictor low(0.3, exp_service(), 16);
  EatPredictor high(0.9, exp_service(), 16);
  EXPECT_GT(low.copula_correlation(), 0.0);
  EXPECT_GT(high.copula_correlation(), low.copula_correlation());
  EXPECT_LT(high.copula_correlation(), 1.0);
}

TEST(EatPredictor, CorrelationShrinksTheMaxVsIndependence) {
  // With positive correlation the max is stochastically smaller than under
  // independence, so the EAT quantile must not exceed the independent
  // order-statistics quantile (marginal^N).
  const double lambda = 0.9;
  const std::size_t n = 100;
  EatPredictor eat(lambda, exp_service(), n);
  queueing::Mm1 q(lambda, 1.0);
  // Independent-max p99: solve F(x)^n = 0.99 => F(x) = 0.99^{1/n}.
  const double level = std::pow(0.99, 1.0 / static_cast<double>(n));
  const double independent = q.response_percentile(100.0 * level);
  EXPECT_LE(eat.quantile(99.0), independent * 1.001);
}

TEST(EatPredictor, RequestCdfMonotone) {
  EatPredictor eat(0.8, exp_service(), 50);
  double prev = -1.0;
  for (double x = 0.5; x < 100.0; x *= 1.5) {
    const double c = eat.request_cdf(x);
    EXPECT_GE(c, prev);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
}

TEST(EatPredictor, QuantileInvertsRequestCdf) {
  EatPredictor eat(0.85, exp_service(), 100);
  const double x = eat.quantile(99.0);
  EXPECT_NEAR(eat.request_cdf(x), 0.99, 1e-4);
}

TEST(EatPredictor, QuantileGrowsWithNodes) {
  EatPredictor small(0.8, exp_service(), 10);
  EatPredictor large(0.8, exp_service(), 1000);
  EXPECT_GT(large.quantile(99.0), small.quantile(99.0));
}

TEST(EatPredictor, AccuracyKnobIsDeterministic) {
  EatPredictor a(0.8, exp_service(), 100, {.accuracy = 100});
  EatPredictor b(0.8, exp_service(), 100, {.accuracy = 100});
  EXPECT_DOUBLE_EQ(a.quantile(99.0), b.quantile(99.0));
}

TEST(EatPredictor, HigherAccuracyStaysClose) {
  EatPredictor coarse(0.8, exp_service(), 100, {.accuracy = 60});
  EatPredictor fine(0.8, exp_service(), 100, {.accuracy = 400});
  const double qc = coarse.quantile(99.0);
  const double qf = fine.quantile(99.0);
  EXPECT_NEAR(qc, qf, 0.02 * qf);
}

TEST(EatPredictor, Validation) {
  EXPECT_THROW(EatPredictor(0.8, nullptr, 10), std::invalid_argument);
  EXPECT_THROW(EatPredictor(0.8, exp_service(), 0), std::invalid_argument);
  EXPECT_THROW(EatPredictor(0.8, exp_service(), 10, {.accuracy = 5}),
               std::invalid_argument);
  EatPredictor eat(0.8, exp_service(), 10);
  EXPECT_THROW(eat.quantile(0.0), std::invalid_argument);
  // Fewer than two calibration responses leave Spearman's rho undefined.
  for (std::uint64_t samples : {0u, 1u}) {
    try {
      EatPredictor(0.8, exp_service(), 10, {.calibration_samples = samples});
      ADD_FAILURE() << "calibration_samples=" << samples << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("calibration_samples"),
                std::string::npos)
          << e.what();
    }
  }
  EatPredictor two(0.8, exp_service(), 10, {.calibration_samples = 2});
  EXPECT_TRUE(std::isfinite(two.quantile(99.0)));
}

TEST(EatPredictor, CorrelationMatchesSortOracle) {
  // On a calibration sample without exact ties every correct sort ranks
  // alike, so the radix mid-rank rho equals the comparison-sort oracle bit
  // for bit.  A tie (a `d - t` rounding collision) is ranked by std::sort's
  // unspecified order in the oracle, and by mid-rank here.  At 10% load
  // most arrivals find an idle queue, so `d - t` rounds the service draw to
  // the ulp of the arrival epoch and some responses collide.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto copula = [](double rho) {
    return std::clamp(2.0 * std::sin(3.14159265358979323846 * rho / 6.0), 0.0,
                      0.999);
  };
  std::vector<std::string> tied;
  for (const std::string name : {"Exponential", "HyperExp2"}) {
    const auto service = dist::make_named(name);
    for (double load : {0.1, 0.5, 0.9}) {
      const double lambda = load / service->mean();
      const std::string label =
          name + "@" + std::to_string(std::lround(load * 100)) + "%";
      const SiblingResponses sample =
          eat_calibration_sample(lambda, *service, EatConfig{});
      const double rho = stats::spearman(sample.first, sample.second);
      const double oracle =
          test_support::sort_spearman(sample.first, sample.second);
      const EatPredictor eat(lambda, service, 100);
      EXPECT_EQ(bits(eat.copula_correlation()), bits(copula(rho))) << label;
      if (test_support::has_exact_tie(sample.first) ||
          test_support::has_exact_tie(sample.second)) {
        tied.push_back(label);
        EXPECT_NEAR(rho, oracle, 1e-9) << label;
      } else {
        EXPECT_EQ(bits(rho), bits(oracle)) << label;
      }
    }
  }
  EXPECT_EQ(tied,
            (std::vector<std::string>{"Exponential@10%", "HyperExp2@10%"}));
}

TEST(EatPredictor, DeterministicServiceCorrelation) {
  // Deterministic service makes the two siblings' responses identical, so
  // rho = 1, clamped to 0.999, at every load.  At a vanishing load no
  // arrival waits and every response is the service time: both samples are
  // fully tied, have no rank variance, and must still give 0.999.
  const auto service = std::make_shared<dist::Deterministic>(1.0);
  const SiblingResponses idle =
      eat_calibration_sample(1e-7, *service, EatConfig{});
  ASSERT_TRUE(std::all_of(idle.first.begin(), idle.first.end(),
                          [](double r) { return r == 1.0; }));
  ASSERT_EQ(idle.first, idle.second);
  for (double load : {1e-7, 0.001, 0.3, 0.9}) {
    EatPredictor eat(load, service, 16);
    EXPECT_EQ(eat.copula_correlation(), 0.999) << "load=" << load;
    EXPECT_TRUE(std::isfinite(eat.quantile(99.0))) << "load=" << load;
  }
}

TEST(EatPredictor, ErlangServiceSupported) {
  const auto service = std::make_shared<dist::Erlang>(2, 1.0);
  EatPredictor eat(0.8, service, 64);
  const double x = eat.quantile(99.0);
  EXPECT_GT(x, 0.0);
  EXPECT_TRUE(std::isfinite(x));
}

}  // namespace
}  // namespace forktail::baselines
