// Cross-validation: the Lindley fast path (src/fjsim) and the general
// event-driven simulator (src/sim) model the same systems, so their
// steady-state statistics must agree within Monte-Carlo noise.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "dist/basic.hpp"
#include "dist/factory.hpp"
#include "fjsim/homogeneous.hpp"
#include "fjsim/subset.hpp"
#include "sim/network.hpp"
#include "stats/percentile.hpp"

namespace forktail {
namespace {

struct Case {
  const char* dist;
  std::size_t nodes;
  int replicas;
  double load;
  fjsim::Policy fast_policy;
  sim::DispatchPolicy event_policy;
};

// Names the case in test listings (and hence in ctest test names). Without
// it GoogleTest dumps the raw bytes, including the address of `dist` and
// uninitialised padding, so the names would change from build to build.
void PrintTo(const Case& tc, std::ostream* os) {
  static constexpr const char* kPolicyNames[] = {"single", "roundrobin",
                                                 "redundant"};
  *os << tc.dist << "_n" << tc.nodes << "_r" << tc.replicas << "_load"
      << std::lround(tc.load * 100.0) << "_"
      << kPolicyNames[static_cast<int>(tc.fast_policy)];
}

class EquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(EquivalenceTest, SteadyStateStatisticsAgree) {
  const Case& tc = GetParam();
  const dist::DistPtr service = dist::make_named(tc.dist);

  fjsim::HomogeneousConfig fast;
  fast.num_nodes = tc.nodes;
  fast.replicas = tc.replicas;
  fast.policy = tc.fast_policy;
  fast.redundant_delay = 10.0;
  fast.service = service;
  fast.load = tc.load;
  fast.num_requests = 60000;
  fast.warmup_fraction = 0.25;
  fast.seed = 11;
  const auto fast_result = fjsim::run_homogeneous(fast);

  sim::FjConfig event;
  event.num_nodes = tc.nodes;
  event.replicas = tc.replicas;
  event.policy = tc.event_policy;
  event.redundant_delay = 10.0;
  event.service = service;
  event.num_requests = 60000;
  event.warmup_fraction = 0.25;
  // Both simulators derive their streams identically from the master seed
  // (arrivals from split(0), node n from split(100+n)), so with equal
  // seeds the two implementations must agree to floating-point exactness:
  // the Lindley fast path is an exact reformulation, not an approximation.
  event.seed = 11;
  event.lambda = sim::lambda_for_nominal_load(event, tc.load);
  const auto event_result = sim::run_fj_simulation(event);

  const double fast_mean = fast_result.task_stats.mean();
  const double event_mean = event_result.pooled_task_stats.mean();
  EXPECT_NEAR(fast_mean, event_mean, 1e-9 * event_mean) << tc.dist;

  const double fast_p99 = stats::percentile(fast_result.responses, 99.0);
  const double event_p99 = stats::percentile(event_result.request_responses, 99.0);
  EXPECT_NEAR(fast_p99, event_p99, 1e-9 * event_p99) << tc.dist;
}

TEST(EquivalenceCrossSeed, IndependentStreamsAgreeStatistically) {
  const dist::DistPtr service = dist::make_named("Exponential");
  fjsim::HomogeneousConfig fast;
  fast.num_nodes = 8;
  fast.service = service;
  fast.load = 0.8;
  fast.num_requests = 80000;
  fast.warmup_fraction = 0.25;
  fast.seed = 101;
  const auto fast_result = fjsim::run_homogeneous(fast);

  sim::FjConfig event;
  event.num_nodes = 8;
  event.service = service;
  event.num_requests = 80000;
  event.warmup_fraction = 0.25;
  event.seed = 202;
  event.lambda = sim::lambda_for_nominal_load(event, 0.8);
  const auto event_result = sim::run_fj_simulation(event);

  // The heavy-traffic mean estimator is long-range dependent, so allow a
  // wide statistical band here (the same-seed test above is the exact one).
  EXPECT_NEAR(fast_result.task_stats.mean(),
              event_result.pooled_task_stats.mean(),
              0.12 * event_result.pooled_task_stats.mean());
  EXPECT_NEAR(stats::percentile(fast_result.responses, 99.0),
              stats::percentile(event_result.request_responses, 99.0),
              0.12 * stats::percentile(event_result.request_responses, 99.0));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, EquivalenceTest,
    ::testing::Values(
        Case{"Exponential", 8, 1, 0.8, fjsim::Policy::kSingle,
             sim::DispatchPolicy::kSingle},
        Case{"Empirical", 8, 1, 0.8, fjsim::Policy::kSingle,
             sim::DispatchPolicy::kSingle},
        Case{"Exponential", 4, 3, 0.8, fjsim::Policy::kRoundRobin,
             sim::DispatchPolicy::kRoundRobin},
        Case{"Empirical", 4, 3, 0.75, fjsim::Policy::kRedundant,
             sim::DispatchPolicy::kRedundant}));

TEST(EquivalenceFixedK, SubsetSimMatchesEventSim) {
  const dist::DistPtr service = dist::make_named("Exponential");

  fjsim::SubsetConfig fast;
  fast.num_nodes = 16;
  fast.service = service;
  fast.load = 0.7;
  fast.k_mode = fjsim::KMode::kFixed;
  fast.k_fixed = 4;
  fast.num_requests = 60000;
  fast.seed = 21;
  const auto fast_result = fjsim::run_subset(fast);

  sim::FjConfig event;
  event.num_nodes = 16;
  event.service = service;
  event.k_mode = sim::TaskCountMode::kFixed;
  event.k_fixed = 4;
  event.num_requests = 60000;
  event.seed = 22;
  event.lambda = sim::lambda_for_nominal_load(event, 0.7);
  const auto event_result = sim::run_fj_simulation(event);

  EXPECT_NEAR(fast_result.lambda, event.lambda, 1e-9);
  EXPECT_NEAR(fast_result.task_stats.mean(),
              event_result.pooled_task_stats.mean(),
              0.06 * event_result.pooled_task_stats.mean());
  EXPECT_NEAR(stats::percentile(fast_result.responses, 99.0),
              stats::percentile(event_result.request_responses, 99.0),
              0.10 * stats::percentile(event_result.request_responses, 99.0));
}

}  // namespace
}  // namespace forktail
