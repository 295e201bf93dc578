#include <gtest/gtest.h>

#include <cmath>

#include "dist/basic.hpp"
#include "dist/factory.hpp"
#include "fjsim/homogeneous.hpp"
#include "queueing/mg1.hpp"
#include "stats/welford.hpp"
#include "support/mm1.hpp"

namespace forktail::queueing {
namespace {

TEST(Mm1, ClosedForms) {
  Mm1 q(0.9, 1.0);  // rho = 0.9
  EXPECT_NEAR(q.utilization(), 0.9, 1e-12);
  EXPECT_NEAR(q.mean_response(), 10.0, 1e-12);
  EXPECT_NEAR(q.mean_wait(), 9.0, 1e-12);
  EXPECT_NEAR(q.response_variance(), 100.0, 1e-12);
  EXPECT_NEAR(q.response_ccdf(10.0 * std::log(100.0)), 0.01, 1e-12);
  EXPECT_NEAR(q.response_percentile(99.0), 10.0 * std::log(100.0), 1e-9);
}

TEST(Mm1, RejectsUnstable) {
  EXPECT_THROW(Mm1(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Mm1(-1.0, 1.0), std::invalid_argument);
}

TEST(Mg1, ReducesToMm1ForExponentialService) {
  const dist::Exponential service(1.0);
  const auto r = mg1_response(0.8, service);
  Mm1 q(0.8, 1.0);
  EXPECT_NEAR(r.mean, q.mean_response(), 1e-12);
  // M/M/1 response is Exp(mu - lambda): variance = mean^2.
  EXPECT_NEAR(r.variance, q.response_variance(), 1e-9);
}

TEST(Mg1, DeterministicServiceHalvesWaiting) {
  // M/D/1 mean wait is half of M/M/1's at the same rho.
  const dist::Deterministic det(1.0);
  const dist::Exponential expo(1.0);
  const auto rd = mg1_response(0.8, det);
  const auto re = mg1_response(0.8, expo);
  EXPECT_NEAR(rd.mean_wait, 0.5 * re.mean_wait, 1e-12);
}

TEST(Mg1, RejectsUnstableAndBadInput) {
  const dist::Exponential service(1.0);
  EXPECT_THROW(mg1_response(1.0, service), std::invalid_argument);
  EXPECT_THROW(mg1_response(0.0, service), std::invalid_argument);
}

TEST(Mg1, LambdaForLoadInverse) {
  EXPECT_NEAR(lambda_for_load(0.9, 4.22), 0.9 / 4.22, 1e-12);
  EXPECT_THROW(lambda_for_load(1.0, 4.22), std::invalid_argument);
}

// White-box Eq. (10)-(11) validated against a single-queue simulation for
// every named service distribution of the paper.
class Mg1SimValidation : public ::testing::TestWithParam<const char*> {};

TEST_P(Mg1SimValidation, MomentsMatchSimulation) {
  const dist::DistPtr service = dist::make_named(GetParam());
  const double rho = 0.8;
  const double lambda = rho / service->mean();
  const auto analytic = mg1_response(lambda, *service);

  // A one-node "fork-join" IS an M/G/1 queue; reuse the fast simulator.
  fjsim::HomogeneousConfig cfg;
  cfg.num_nodes = 1;
  cfg.service = service;
  cfg.load = rho;
  // Heavy-tailed service makes E[W] and especially V[W] converge slowly
  // (both are driven by rare huge jobs); use a long run and a wide band on
  // the variance.
  cfg.num_requests = 1500000;
  cfg.warmup_fraction = 0.3;
  cfg.seed = 777;
  const auto result = fjsim::run_homogeneous(cfg);

  EXPECT_NEAR(result.task_stats.mean(), analytic.mean, 0.05 * analytic.mean)
      << GetParam();
  EXPECT_NEAR(result.task_stats.variance(), analytic.variance,
              0.25 * analytic.variance)
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllServiceDistributions, Mg1SimValidation,
                         ::testing::Values("Exponential", "Erlang-2",
                                           "HyperExp2", "Weibull",
                                           "TruncPareto", "Empirical"));

}  // namespace
}  // namespace forktail::queueing
