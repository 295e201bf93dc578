#include "fjsim/consolidated.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dist/heavy.hpp"
#include "stats/percentile.hpp"
#include "trace/facebook.hpp"

namespace forktail::fjsim {
namespace {

trace::FacebookWorkload small_workload(std::size_t nodes) {
  trace::FacebookWorkload::Params p;
  p.min_mean_ms = 1.0;
  p.max_mean_ms = 50.0;
  p.target_fraction = 0.1;
  p.target_tasks = static_cast<std::uint32_t>(nodes);
  p.target_mean_ms = 5.0;
  p.max_tasks = static_cast<std::uint32_t>(nodes);
  return trace::FacebookWorkload(p);
}

ConsolidatedConfig base(std::size_t nodes) {
  const auto workload = small_workload(nodes);
  ConsolidatedConfig c;
  c.num_nodes = nodes;
  c.replicas = 3;
  c.load = 0.7;
  c.generator = workload.generator();
  c.mean_work_per_job = workload.estimate_mean_work(c.service_floor);
  c.num_jobs = 30000;
  c.warmup_fraction = 0.2;
  c.seed = 51;
  return c;
}

TEST(Consolidated, TargetJobsAreTracked) {
  const auto r = run_consolidated(base(16));
  // ~10% of 30000 measured jobs are targets.
  EXPECT_NEAR(static_cast<double>(r.target_responses.size()), 3000.0, 300.0);
  EXPECT_EQ(r.target_responses.size(), r.target_ks.size());
  EXPECT_GT(r.target_task_stats.count(), 0u);
  EXPECT_GT(r.background_task_stats.count(), 0u);
}

TEST(Consolidated, TargetKsMatchConfiguration) {
  const auto r = run_consolidated(base(16));
  for (int k : r.target_ks) EXPECT_EQ(k, 16);
}

TEST(Consolidated, ResponsesPositiveAndTailOrdered) {
  const auto r = run_consolidated(base(16));
  for (double x : r.target_responses) ASSERT_GT(x, 0.0);
  const double p50 = stats::percentile(r.target_responses, 50.0);
  const double p99 = stats::percentile(r.target_responses, 99.0);
  EXPECT_LT(p50, p99);
}

TEST(Consolidated, HigherLoadSlower) {
  auto lo = base(8);
  lo.load = 0.5;
  auto hi = base(8);
  hi.load = 0.9;
  const auto rl = run_consolidated(lo);
  const auto rh = run_consolidated(hi);
  EXPECT_LT(stats::percentile(rl.target_responses, 99.0),
            stats::percentile(rh.target_responses, 99.0));
}

TEST(Consolidated, TargetTasksSlowerThanServiceTime) {
  // Task response includes queueing: mean response > mean target service
  // (which truncation inflates to ~2x the nominal 5 ms).
  const auto r = run_consolidated(base(16));
  EXPECT_GT(r.target_task_stats.mean(), 5.0);
}

TEST(Consolidated, DeterministicUnderSeed) {
  const auto a = run_consolidated(base(8));
  const auto b = run_consolidated(base(8));
  ASSERT_EQ(a.target_responses.size(), b.target_responses.size());
  EXPECT_DOUBLE_EQ(a.target_responses[5], b.target_responses[5]);
}

TEST(Consolidated, Validation) {
  auto c = base(8);
  c.generator = nullptr;
  EXPECT_THROW(run_consolidated(c), std::invalid_argument);
  c = base(8);
  c.load = 0.0;
  EXPECT_THROW(run_consolidated(c), std::invalid_argument);
  c = base(8);
  c.mean_work_per_job = 0.0;
  EXPECT_THROW(run_consolidated(c), std::invalid_argument);
  c = base(8);
  c.num_nodes = 0;
  EXPECT_THROW(run_consolidated(c), std::invalid_argument);
}

TEST(Consolidated, OversizedJobRejected) {
  auto c = base(8);
  c.generator = [](util::Rng&) {
    return JobSpec{false, 100, 1.0};  // 100 tasks > 8 nodes
  };
  EXPECT_THROW(run_consolidated(c), std::invalid_argument);
}

// The simulator's task-time draw against the law it claims: pooled draws
// of HawkTaskTimes from one raw stream, 400 k per job mean, match the mean
// and variance of dist::TruncatedNormal(m, 2m, floor) within 4 standard
// errors, and never fall below the floor.
TEST(Consolidated, TaskTimesFollowTruncatedNormal) {
  constexpr double kFloor = 0.05;
  constexpr int kDraws = 400000;
  util::Rng rng(2024);
  for (const double m : {1.0, 50.0, 1000.0}) {
    SCOPED_TRACE(m);
    const HawkTaskTimes draw(m, kFloor);
    double sum = 0.0;
    double sq = 0.0;
    std::vector<double> xs(kDraws);
    for (double& x : xs) {
      x = draw(rng.next_u64());
      ASSERT_GE(x, kFloor);
      sum += x;
    }
    const double mean = sum / kDraws;
    double m4 = 0.0;
    for (const double x : xs) {
      const double d = (x - mean) * (x - mean);
      sq += d;
      m4 += d * d;
    }
    const double var = sq / kDraws;
    m4 /= kDraws;
    const dist::TruncatedNormal law(m, 2.0 * m, kFloor);
    const double law_mean = law.moment(1);
    const double law_var = law.moment(2) - law_mean * law_mean;
    EXPECT_NEAR(mean, law_mean, 4.0 * std::sqrt(var / kDraws));
    EXPECT_NEAR(var, law_var, 4.0 * std::sqrt((m4 - var * var) / kDraws));
  }
}

}  // namespace
}  // namespace forktail::fjsim
