#include "fjsim/homogeneous.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "dist/basic.hpp"
#include "dist/factory.hpp"
#include "queueing/mg1.hpp"
#include "stats/percentile.hpp"
#include "support/mm1.hpp"

namespace forktail::fjsim {
namespace {

HomogeneousConfig base(std::size_t nodes, double load) {
  HomogeneousConfig c;
  c.num_nodes = nodes;
  c.service = std::make_shared<dist::Exponential>(1.0);
  c.load = load;
  c.num_requests = 50000;
  c.warmup_fraction = 0.25;
  c.seed = 31;
  return c;
}

TEST(Homogeneous, BitIdenticalAcrossParallelismLevels) {
  auto c = base(16, 0.7);
  c.num_requests = 5000;
  c.max_parallelism = 1;  // inline, no pool
  const auto serial = run_homogeneous(c);
  for (std::size_t parallelism : {0u, 3u, 16u}) {
    c.max_parallelism = parallelism;
    const auto r = run_homogeneous(c);
    ASSERT_EQ(r.responses.size(), serial.responses.size());
    for (std::size_t i = 0; i < r.responses.size(); ++i) {
      ASSERT_EQ(r.responses[i], serial.responses[i]);
    }
    EXPECT_EQ(r.task_stats.count(), serial.task_stats.count());
    EXPECT_EQ(r.task_stats.mean(), serial.task_stats.mean());
    EXPECT_EQ(r.task_stats.variance(), serial.task_stats.variance());
    EXPECT_EQ(r.redundant_issues, serial.redundant_issues);
  }
}

TEST(Homogeneous, SingleNodeIsMm1) {
  auto c = base(1, 0.8);
  // The response-variance estimator is long-range dependent at 80% load;
  // 500k requests keep its seed noise safely inside the 12% band.
  c.num_requests = 500000;
  const auto r = run_homogeneous(c);
  queueing::Mm1 q(0.8, 1.0);
  EXPECT_NEAR(r.task_stats.mean(), q.mean_response(), 0.04 * q.mean_response());
  EXPECT_NEAR(r.task_stats.variance(), q.response_variance(),
              0.12 * q.response_variance());
  EXPECT_NEAR(stats::percentile(r.responses, 99.0), q.response_percentile(99.0),
              0.08 * q.response_percentile(99.0));
}

TEST(Homogeneous, TaskMomentsMatchTakacsForHeavyTail) {
  HomogeneousConfig c;
  c.num_nodes = 4;
  c.service = dist::make_named("TruncPareto");
  c.load = 0.8;
  c.num_requests = 150000;
  c.warmup_fraction = 0.3;
  c.seed = 32;
  const auto r = run_homogeneous(c);
  const auto analytic = queueing::mg1_response(r.lambda, *c.service);
  EXPECT_NEAR(r.task_stats.mean(), analytic.mean, 0.05 * analytic.mean);
  EXPECT_NEAR(r.task_stats.variance(), analytic.variance,
              0.2 * analytic.variance);
}

TEST(Homogeneous, ResponseGrowsWithN) {
  const auto r8 = run_homogeneous(base(8, 0.8));
  const auto r64 = run_homogeneous(base(64, 0.8));
  EXPECT_LT(stats::percentile(r8.responses, 99.0),
            stats::percentile(r64.responses, 99.0));
}

TEST(Homogeneous, ResponseGrowsWithLoad) {
  const auto lo = run_homogeneous(base(16, 0.5));
  const auto hi = run_homogeneous(base(16, 0.9));
  EXPECT_LT(stats::percentile(lo.responses, 99.0),
            stats::percentile(hi.responses, 99.0));
}

TEST(Homogeneous, LambdaAccountsForReplicas) {
  auto c = base(4, 0.6);
  c.replicas = 3;
  c.policy = Policy::kRoundRobin;
  const auto r = run_homogeneous(c);
  // lambda = rho * replicas / E[S].
  EXPECT_NEAR(r.lambda, 0.6 * 3.0, 1e-12);
}

TEST(Homogeneous, RedundantPolicyCountsIssues) {
  HomogeneousConfig c;
  c.num_nodes = 4;
  c.replicas = 3;
  c.policy = Policy::kRedundant;
  c.redundant_delay = 10.0;  // ms; ~p95 of the empirical distribution
  c.service = dist::make_named("Empirical");
  c.load = 0.5;
  c.num_requests = 20000;
  c.seed = 33;
  const auto r = run_homogeneous(c);
  EXPECT_GT(r.redundant_issues, 0u);
  // Issue fraction should be modest (tail-only), well under 30%.
  const double frac = static_cast<double>(r.redundant_issues) /
                      static_cast<double>(r.total_tasks);
  EXPECT_LT(frac, 0.3);
  EXPECT_GT(frac, 0.005);
}

TEST(Homogeneous, DeterministicUnderSeed) {
  const auto a = run_homogeneous(base(4, 0.7));
  const auto b = run_homogeneous(base(4, 0.7));
  ASSERT_EQ(a.responses.size(), b.responses.size());
  EXPECT_DOUBLE_EQ(a.responses[123], b.responses[123]);
  EXPECT_DOUBLE_EQ(a.task_stats.mean(), b.task_stats.mean());
}

TEST(Homogeneous, Validation) {
  auto c = base(4, 0.7);
  c.load = 1.2;
  EXPECT_THROW(run_homogeneous(c), std::invalid_argument);
  c = base(0, 0.7);
  EXPECT_THROW(run_homogeneous(c), std::invalid_argument);
  c = base(4, 0.7);
  c.service = nullptr;
  EXPECT_THROW(run_homogeneous(c), std::invalid_argument);
  c = base(4, 0.7);
  c.replicas = 2;  // kSingle requires 1 replica
  EXPECT_THROW(run_homogeneous(c), std::invalid_argument);
}

}  // namespace
}  // namespace forktail::fjsim
