#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "dist/basic.hpp"
#include "stats/percentile.hpp"
#include "support/mm1.hpp"

namespace forktail::sim {
namespace {

FjConfig base_config() {
  FjConfig c;
  c.num_nodes = 4;
  c.service = std::make_shared<dist::Exponential>(1.0);
  c.num_requests = 20000;
  c.warmup_fraction = 0.2;
  c.seed = 42;
  return c;
}

TEST(FjSimulation, ProducesRequestedSampleCount) {
  FjConfig c = base_config();
  c.lambda = lambda_for_nominal_load(c, 0.5);
  const auto r = run_fj_simulation(c);
  EXPECT_EQ(r.request_responses.size(), c.num_requests);
  EXPECT_GT(r.pooled_task_stats.count(), 0u);
  EXPECT_EQ(r.node_task_stats.size(), c.num_nodes);
}

TEST(FjSimulation, SingleNodeMatchesMm1) {
  FjConfig c = base_config();
  c.num_nodes = 1;
  c.num_requests = 150000;
  c.warmup_fraction = 0.3;
  c.lambda = 0.8;
  const auto r = run_fj_simulation(c);
  queueing::Mm1 q(0.8, 1.0);
  EXPECT_NEAR(r.pooled_task_stats.mean(), q.mean_response(),
              0.05 * q.mean_response());
  const double p99 = stats::percentile(r.request_responses, 99.0);
  EXPECT_NEAR(p99, q.response_percentile(99.0), 0.1 * q.response_percentile(99.0));
}

TEST(FjSimulation, ResponseIsMaxOfTaskTimes) {
  // Request response >= every node's task response in distribution: the
  // request p50 must exceed a single node's p50.
  FjConfig c = base_config();
  c.num_nodes = 16;
  c.lambda = lambda_for_nominal_load(c, 0.6);
  const auto r = run_fj_simulation(c);
  const double req_p50 = stats::percentile(r.request_responses, 50.0);
  EXPECT_GT(req_p50, r.pooled_task_stats.mean());
}

TEST(FjSimulation, FixedKTouchesExactlyKNodes) {
  FjConfig c = base_config();
  c.k_mode = TaskCountMode::kFixed;
  c.k_fixed = 2;
  c.num_requests = 5000;
  c.lambda = lambda_for_nominal_load(c, 0.4);
  const auto r = run_fj_simulation(c);
  const auto warmup_tasks = r.total_tasks;
  // total tasks = 2 per request including warm-up requests.
  EXPECT_EQ(warmup_tasks % 2, 0u);
  std::uint64_t node_tasks = 0;
  for (const auto& w : r.node_task_stats) node_tasks += w.count();
  EXPECT_EQ(node_tasks, r.pooled_task_stats.count());
}

TEST(FjSimulation, UniformKWithinBounds) {
  FjConfig c = base_config();
  c.k_mode = TaskCountMode::kUniform;
  c.k_lo = 1;
  c.k_hi = 3;
  c.num_requests = 4000;
  c.lambda = lambda_for_nominal_load(c, 0.4);
  const auto r = run_fj_simulation(c);
  // Mean tasks/request must be ~2.
  const double tasks_per_request =
      static_cast<double>(r.total_tasks) /
      (static_cast<double>(c.num_requests) / (1.0 - c.warmup_fraction));
  EXPECT_NEAR(tasks_per_request, 2.0, 0.1);
}

TEST(FjSimulation, LoadCalibrationMatchesUtilization) {
  FjConfig c = base_config();
  c.num_nodes = 2;
  c.lambda = lambda_for_nominal_load(c, 0.7);
  EXPECT_NEAR(nominal_load(c), 0.7, 1e-12);
  c.k_mode = TaskCountMode::kFixed;
  c.k_fixed = 1;
  c.lambda = lambda_for_nominal_load(c, 0.7);
  EXPECT_NEAR(nominal_load(c), 0.7, 1e-12);
}

TEST(FjSimulation, ReplicatedRoundRobinRuns) {
  FjConfig c = base_config();
  c.replicas = 3;
  c.policy = DispatchPolicy::kRoundRobin;
  c.num_requests = 8000;
  c.lambda = lambda_for_nominal_load(c, 0.6);
  const auto r = run_fj_simulation(c);
  EXPECT_EQ(r.request_responses.size(), c.num_requests);
  EXPECT_EQ(r.redundant_issues, 0u);
}

TEST(FjSimulation, RedundantPolicyIssuesReplicas) {
  FjConfig c = base_config();
  c.replicas = 3;
  c.policy = DispatchPolicy::kRedundant;
  c.redundant_delay = 1.0;  // ~p63 of Exp(1): plenty of replicas
  c.num_requests = 8000;
  c.lambda = lambda_for_nominal_load(c, 0.5);
  const auto r = run_fj_simulation(c);
  EXPECT_GT(r.redundant_issues, 0u);
}

TEST(FjSimulation, RedundantCutsTailVsPlainRoundRobin) {
  FjConfig rr = base_config();
  rr.replicas = 3;
  rr.policy = DispatchPolicy::kRoundRobin;
  rr.num_nodes = 8;
  rr.num_requests = 30000;
  rr.service = std::make_shared<dist::HyperExp2>(
      dist::HyperExp2::from_mean_scv(1.0, 4.0));
  rr.lambda = lambda_for_nominal_load(rr, 0.35);
  FjConfig red = rr;
  red.policy = DispatchPolicy::kRedundant;
  // Threshold near the service p96: only genuine stragglers (the slow
  // hyperexponential branch) are hedged, ~4% extra load.
  red.redundant_delay = 5.0;
  const auto r_rr = run_fj_simulation(rr);
  const auto r_red = run_fj_simulation(red);
  EXPECT_LT(stats::percentile(r_red.request_responses, 99.0),
            stats::percentile(r_rr.request_responses, 99.0));
}

TEST(FjSimulation, DeterministicGivenSeed) {
  FjConfig c = base_config();
  c.num_requests = 2000;
  c.lambda = lambda_for_nominal_load(c, 0.5);
  const auto a = run_fj_simulation(c);
  const auto b = run_fj_simulation(c);
  ASSERT_EQ(a.request_responses.size(), b.request_responses.size());
  for (std::size_t i = 0; i < a.request_responses.size(); ++i) {
    ASSERT_DOUBLE_EQ(a.request_responses[i], b.request_responses[i]);
  }
}

TEST(FjSimulation, SeedChangesResults) {
  FjConfig c = base_config();
  c.num_requests = 2000;
  c.lambda = lambda_for_nominal_load(c, 0.5);
  const auto a = run_fj_simulation(c);
  c.seed = 43;
  const auto b = run_fj_simulation(c);
  EXPECT_NE(a.request_responses[0], b.request_responses[0]);
}

TEST(FjSimulation, ConfigValidation) {
  FjConfig c = base_config();
  c.lambda = lambda_for_nominal_load(c, 0.5);
  c.num_nodes = 0;
  EXPECT_THROW(run_fj_simulation(c), std::invalid_argument);
  c = base_config();
  c.lambda = 0.0;
  EXPECT_THROW(run_fj_simulation(c), std::invalid_argument);
  c = base_config();
  c.lambda = 1.0;
  c.k_mode = TaskCountMode::kFixed;
  c.k_fixed = 10;  // > num_nodes
  EXPECT_THROW(run_fj_simulation(c), std::invalid_argument);
  EXPECT_THROW(lambda_for_nominal_load(base_config(), 1.5),
               std::invalid_argument);
}

}  // namespace
}  // namespace forktail::sim
