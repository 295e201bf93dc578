// Determinism suite for the calendar-queue engine rewrite.
//
// Three layers of protection, strongest first:
//   1. Pinned golden KATs: hex-exact doubles captured from the pre-change
//      binary-heap engine on five configurations (fork-join all-nodes /
//      fixed-k / redundant uniform-k, closed loop at moderate load and in
//      overload).  The rewrite reproduces them bit for bit.  The two
//      closed-loop pins were re-captured when the monitors' sliding window
//      moved to 64 time buckets (eviction at bucket granularity), and
//      their mean_predicted_latency again when that mean stopped counting
//      requests admitted without a prediction; the fork-join pins are
//      unchanged.
//   2. Live cross-validation: run_fj_simulation (calendar engine, typed
//      events) against run_fj_simulation_baseline (the frozen pre-change
//      driver on sim::HeapEngine), every output compared with == on the
//      doubles.
//   3. Memory-bounded mode: record_responses=false changes no other
//      output, in the fork-join driver or the closed loop.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dist/basic.hpp"
#include "dist/heavy.hpp"
#include "sched/closed_loop.hpp"
#include "sim/network.hpp"
#include "stats/percentile.hpp"
#include "support/fj_baseline.hpp"

namespace forktail {
namespace {

void expect_fj_bitwise_equal(const sim::FjResult& a, const sim::FjResult& b) {
  ASSERT_EQ(a.request_responses.size(), b.request_responses.size());
  for (std::size_t i = 0; i < a.request_responses.size(); ++i) {
    ASSERT_EQ(a.request_responses[i], b.request_responses[i]) << "resp " << i;
  }
  EXPECT_EQ(a.pooled_task_stats.count(), b.pooled_task_stats.count());
  EXPECT_EQ(a.pooled_task_stats.mean(), b.pooled_task_stats.mean());
  EXPECT_EQ(a.pooled_task_stats.variance(), b.pooled_task_stats.variance());
  ASSERT_EQ(a.node_task_stats.size(), b.node_task_stats.size());
  for (std::size_t n = 0; n < a.node_task_stats.size(); ++n) {
    EXPECT_EQ(a.node_task_stats[n].count(), b.node_task_stats[n].count());
    EXPECT_EQ(a.node_task_stats[n].mean(), b.node_task_stats[n].mean());
    EXPECT_EQ(a.node_task_stats[n].variance(),
              b.node_task_stats[n].variance());
  }
  EXPECT_EQ(a.sim_end_time, b.sim_end_time);
  EXPECT_EQ(a.total_tasks, b.total_tasks);
  EXPECT_EQ(a.redundant_issues, b.redundant_issues);
  EXPECT_EQ(a.measured_requests, b.measured_requests);
}

// ---------------------------------------------------------------------------
// Layer 1+2: fork-join simulator vs the frozen pre-change driver
// ---------------------------------------------------------------------------

TEST(SimDeterminism, AllNodesMatchesBaselineAndGolden) {
  sim::FjConfig c;
  c.num_nodes = 8;
  c.service = std::make_shared<dist::Exponential>(1.0);
  c.num_requests = 20000;
  c.warmup_fraction = 0.2;
  c.seed = 42;
  c.lambda = sim::lambda_for_nominal_load(c, 0.7);
  const sim::FjResult r = sim::run_fj_simulation(c);
  const sim::FjResult base = sim::run_fj_simulation_baseline(c);
  expect_fj_bitwise_equal(r, base);

  // Pinned pre-change goldens (hex-exact).
  EXPECT_EQ(r.request_responses.front(), 0x1.eed468cd3f4p+2);   // 7.7317144...
  EXPECT_EQ(r.request_responses.back(), 0x1.efd7772036p+2);     // 7.7475259...
  EXPECT_EQ(stats::percentile(r.request_responses, 99.0),
            0x1.6b817c7937319p+4);                              // 22.719112...
  EXPECT_EQ(r.pooled_task_stats.mean(), 0x1.a714377371959p+1);  // 3.3053044...
  EXPECT_EQ(r.pooled_task_stats.variance(),
            0x1.5cb261915bf91p+3);                              // 10.896775...
  EXPECT_EQ(r.node_task_stats[3].mean(), 0x1.9a2c7c792eb12p+1); // 3.2044826...
  EXPECT_EQ(r.sim_end_time, 0x1.1684a1ea9fd51p+15);             // 35650.316...
  EXPECT_EQ(r.total_tasks, 200000u);
}

TEST(SimDeterminism, FixedKMatchesBaselineAndGolden) {
  sim::FjConfig c;
  c.num_nodes = 24;
  c.service = std::make_shared<dist::HyperExp2>(
      dist::HyperExp2::from_mean_scv(1.0, 4.0));
  c.k_mode = sim::TaskCountMode::kFixed;
  c.k_fixed = 6;
  c.num_requests = 15000;
  c.warmup_fraction = 0.2;
  c.seed = 7;
  c.lambda = sim::lambda_for_nominal_load(c, 0.8);
  const sim::FjResult r = sim::run_fj_simulation(c);
  const sim::FjResult base = sim::run_fj_simulation_baseline(c);
  expect_fj_bitwise_equal(r, base);

  EXPECT_EQ(r.request_responses.front(), 0x1.0accc888f7fp+2);   // 4.1687489...
  EXPECT_EQ(r.request_responses.back(), 0x1.ba4bcef3388p+4);    // 27.643507...
  EXPECT_EQ(stats::percentile(r.request_responses, 99.0),
            0x1.63b20143eb8f5p+6);                              // 88.923832...
  EXPECT_EQ(r.pooled_task_stats.mean(), 0x1.5c82648b10027p+3);  // 10.890917...
  EXPECT_EQ(r.node_task_stats[11].mean(),
            0x1.73db0925b099bp+4);                              // 23.240975...
  EXPECT_EQ(r.total_tasks, 112500u);
}

TEST(SimDeterminism, RedundantUniformKMatchesBaselineAndGolden) {
  sim::FjConfig c;
  c.num_nodes = 6;
  c.replicas = 2;
  c.policy = sim::DispatchPolicy::kRedundant;
  c.redundant_delay = 2.0;
  c.service = std::make_shared<dist::Exponential>(1.0);
  c.k_mode = sim::TaskCountMode::kUniform;
  c.k_lo = 2;
  c.k_hi = 5;
  c.num_requests = 10000;
  c.warmup_fraction = 0.2;
  c.seed = 11;
  c.lambda = sim::lambda_for_nominal_load(c, 0.6);
  const sim::FjResult r = sim::run_fj_simulation(c);
  const sim::FjResult base = sim::run_fj_simulation_baseline(c);
  expect_fj_bitwise_equal(r, base);

  EXPECT_EQ(r.request_responses.front(), 0x1.7990813ee18p-1);   // 0.7374306...
  EXPECT_EQ(r.request_responses.back(), 0x1.ffb3dab78cp+0);     // 1.9988381...
  EXPECT_EQ(stats::percentile(r.request_responses, 99.0),
            0x1.35c91192102cp+3);                               // 9.6807945...
  EXPECT_EQ(r.pooled_task_stats.mean(), 0x1.e1ef61dbcfec4p+0);  // 1.8825589...
  EXPECT_EQ(r.total_tasks, 43569u);
  EXPECT_EQ(r.redundant_issues, 5833u);
}

TEST(SimDeterminism, RoundRobinReplicasMatchBaseline) {
  // No pinned golden for this shape -- live cross-validation only.
  sim::FjConfig c;
  c.num_nodes = 12;
  c.replicas = 3;
  c.policy = sim::DispatchPolicy::kRoundRobin;
  c.service = std::make_shared<dist::Weibull>(
      dist::Weibull::from_mean_cv(1.0, 1.5));
  c.k_mode = sim::TaskCountMode::kFixed;
  c.k_fixed = 8;
  c.num_requests = 5000;
  c.seed = 3;
  c.lambda = sim::lambda_for_nominal_load(c, 0.75);
  expect_fj_bitwise_equal(sim::run_fj_simulation(c),
                          sim::run_fj_simulation_baseline(c));
}

TEST(SimDeterminism, MemoryBoundedModeChangesNoOtherOutput) {
  // record_responses=false must only empty the response vector; every other
  // output (pooled/per-node stats, sim end, histogram) is bit-identical.
  sim::FjConfig c;
  c.num_nodes = 16;
  c.service = std::make_shared<dist::Exponential>(1.0);
  c.k_mode = sim::TaskCountMode::kFixed;
  c.k_fixed = 4;
  c.num_requests = 8000;
  c.seed = 17;
  c.lambda = sim::lambda_for_nominal_load(c, 0.7);
  const sim::FjResult with = sim::run_fj_simulation(c);
  c.record_responses = false;
  const sim::FjResult without = sim::run_fj_simulation(c);
  EXPECT_FALSE(with.request_responses.empty());
  EXPECT_TRUE(without.request_responses.empty());
  EXPECT_EQ(with.pooled_task_stats.mean(), without.pooled_task_stats.mean());
  EXPECT_EQ(with.pooled_task_stats.count(), without.pooled_task_stats.count());
  EXPECT_EQ(with.sim_end_time, without.sim_end_time);
  EXPECT_EQ(with.total_tasks, without.total_tasks);
  EXPECT_EQ(with.measured_requests, without.measured_requests);
  for (std::size_t i = 0; i < stats::LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(with.response_histogram.counts()[i],
              without.response_histogram.counts()[i]);
  }
  // The histogram agrees with the recorded responses.
  EXPECT_EQ(with.response_histogram.total(), with.request_responses.size());
}

// ---------------------------------------------------------------------------
// Closed loop: goldens + bounded-memory mode
// ---------------------------------------------------------------------------

sched::ClosedLoopConfig golden_closed_loop_config() {
  sched::ClosedLoopConfig cfg;
  cfg.num_nodes = 32;
  cfg.service = std::make_shared<dist::Exponential>(5.0);
  cfg.tasks_per_request = 8;
  cfg.lambda = 0.8 * 32.0 / (8.0 * 5.0);
  cfg.window_seconds = 500.0;
  cfg.report_interval = 50.0;
  cfg.num_requests = 50000;
  cfg.seed = 5;
  cfg.slo = {99.0, 300.0};
  return cfg;
}

TEST(SimDeterminism, ClosedLoopGolden) {
  const sched::ClosedLoopResult r =
      sched::run_closed_loop(golden_closed_loop_config());
  EXPECT_EQ(r.offered, 40000u);
  EXPECT_EQ(r.admitted, 40000u);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.violations, 0u);
  EXPECT_EQ(r.admit_rate, 0x1p+0);
  EXPECT_EQ(r.mean_predicted_latency, 0x1.288760b6651cap+7);  // 148.26441...
  EXPECT_EQ(r.admitted_responses.front(), 0x1.6705e8e9a49p+5);  // 44.877885...
  EXPECT_EQ(r.admitted_responses.back(), 0x1.620990a7018p+6);   // 88.509340...
  auto copy = r.admitted_responses;
  EXPECT_EQ(stats::percentile(copy, 50.0), 0x1.d14132ba49p+5);  // 58.156835...
  EXPECT_EQ(stats::percentile(copy, 99.0),
            0x1.34416aa1bbd61p+7);                              // 154.12776...
}

TEST(SimDeterminism, ClosedLoopOverloadGolden) {
  sched::ClosedLoopConfig cfg;
  cfg.num_nodes = 16;
  cfg.service = std::make_shared<dist::Exponential>(2.0);
  cfg.tasks_per_request = 4;
  cfg.lambda = 1.25 * 16.0 / (4.0 * 2.0);  // overload: must shed
  cfg.window_seconds = 200.0;
  cfg.report_interval = 20.0;
  cfg.num_requests = 30000;
  cfg.seed = 9;
  cfg.slo = {99.0, 60.0};
  const sched::ClosedLoopResult r = sched::run_closed_loop(cfg);
  EXPECT_EQ(r.offered, 24000u);
  EXPECT_EQ(r.admitted, 10890u);
  EXPECT_EQ(r.rejected, 13110u);
  EXPECT_EQ(r.violations, 2369u);
  EXPECT_EQ(r.admit_rate, 0x1.d0a3d70a3d70ap-2);        // 0.45375000...
  EXPECT_EQ(r.violation_rate, 0x1.bd8519e7d57f7p-3);    // 0.21753902...
  EXPECT_EQ(r.mean_predicted_latency, 0x1.704f4cb5c3081p+5);  // 46.038720...
  EXPECT_EQ(r.admitted_responses.front(), 0x1.63e132341809p+7);  // 177.93983...
  auto copy = r.admitted_responses;
  EXPECT_EQ(stats::percentile(copy, 99.0),
            0x1.003cce887b508p+7);                      // 128.11876...
}

TEST(SimDeterminism, ClosedLoopMemoryBoundedModeChangesNoOtherOutput) {
  auto cfg = golden_closed_loop_config();
  cfg.num_requests = 10000;
  const sched::ClosedLoopResult with = sched::run_closed_loop(cfg);
  cfg.record_responses = false;
  const sched::ClosedLoopResult without = sched::run_closed_loop(cfg);
  EXPECT_FALSE(with.admitted_responses.empty());
  EXPECT_TRUE(without.admitted_responses.empty());
  EXPECT_EQ(with.admitted, without.admitted);
  EXPECT_EQ(with.violations, without.violations);
  EXPECT_EQ(with.violation_rate, without.violation_rate);
  EXPECT_EQ(with.mean_predicted_latency, without.mean_predicted_latency);
  for (std::size_t i = 0; i < stats::LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(with.response_histogram.counts()[i],
              without.response_histogram.counts()[i]);
  }
  EXPECT_EQ(with.response_histogram.total(), with.admitted_responses.size());
}

}  // namespace
}  // namespace forktail
