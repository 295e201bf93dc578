#include "core/provisioning.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "queueing/mg1.hpp"
#include "dist/basic.hpp"

namespace forktail::core {
namespace {

TEST(DeriveTaskBudget, MeetsSloWithEquality) {
  const TailSlo slo{99.0, 200.0};
  const TaskBudget b = derive_task_budget(slo, 100.0, 1.0);
  // Predicting with the budget stats must reproduce the SLO latency.
  const double x = homogeneous_quantile(b.as_stats(), 100.0, 99.0);
  EXPECT_NEAR(x, 200.0, 1e-6 * 200.0);
}

TEST(DeriveTaskBudget, ScvHintShapesTheBudget) {
  const TailSlo slo{99.0, 200.0};
  const TaskBudget light = derive_task_budget(slo, 100.0, 0.5);
  const TaskBudget heavy = derive_task_budget(slo, 100.0, 2.0);
  // A heavier assumed tail forces a smaller mean budget.
  EXPECT_GT(light.mean, heavy.mean);
  // Both still satisfy the SLO exactly under their own assumption.
  EXPECT_NEAR(homogeneous_quantile(light.as_stats(), 100.0, 99.0), 200.0, 1e-4);
  EXPECT_NEAR(homogeneous_quantile(heavy.as_stats(), 100.0, 99.0), 200.0, 1e-4);
}

TEST(DeriveTaskBudget, MixtureForm) {
  const TailSlo slo{95.0, 500.0};
  const auto mixture = TaskCountMixture::uniform_int(50, 150);
  const TaskBudget b = derive_task_budget(slo, mixture, 1.0);
  EXPECT_NEAR(mixture_quantile(b.as_stats(), mixture, 95.0), 500.0, 1e-4);
}

TEST(DeriveTaskBudget, TighterSloGivesSmallerBudget) {
  const TaskBudget loose = derive_task_budget({99.0, 400.0}, 64.0);
  const TaskBudget tight = derive_task_budget({99.0, 100.0}, 64.0);
  EXPECT_GT(loose.mean, tight.mean);
  EXPECT_GT(loose.variance, tight.variance);
}

TEST(DeriveTaskBudget, Validation) {
  EXPECT_THROW(derive_task_budget({99.0, 0.0}, 10.0), std::invalid_argument);
  EXPECT_THROW(derive_task_budget({99.0, 100.0}, 10.0, 0.0),
               std::invalid_argument);
}

// Probe backed by the analytic M/M/1 curve: stats grow with lambda, so the
// binary search must find the utilization where the budget binds.
TEST(MaxSustainableLambda, FindsBindingRate) {
  const dist::Exponential service(1.0);
  NodeProbe probe = [&](double lambda) {
    const auto r = queueing::mg1_response(lambda, service);
    return TaskStats{r.mean, r.variance};
  };
  // Budget: mean response <= 5 (i.e. rho <= 0.8 for M/M/1 with mu = 1).
  const TaskBudget budget{5.0, 1e12};
  const auto result = max_sustainable_lambda(probe, budget, 0.01, 0.999, 1e-5);
  ASSERT_TRUE(result.feasible);
  EXPECT_NEAR(result.max_lambda, 0.8, 1e-3);
  EXPECT_LE(result.stats_at_max.mean, 5.0);
}

TEST(MaxSustainableLambda, VarianceConstraintCanBind) {
  const dist::Exponential service(1.0);
  NodeProbe probe = [&](double lambda) {
    const auto r = queueing::mg1_response(lambda, service);
    return TaskStats{r.mean, r.variance};
  };
  // Variance <= 25 binds at mean = 5 for M/M/1 (variance = mean^2), so a
  // looser mean bound must still stop at rho = 0.8.
  const TaskBudget budget{100.0, 25.0};
  const auto result = max_sustainable_lambda(probe, budget, 0.01, 0.999, 1e-5);
  ASSERT_TRUE(result.feasible);
  EXPECT_NEAR(result.max_lambda, 0.8, 1e-3);
}

TEST(MaxSustainableLambda, InfeasibleReported) {
  NodeProbe probe = [](double) { return TaskStats{100.0, 100.0}; };
  const TaskBudget budget{1.0, 1.0};
  const auto result = max_sustainable_lambda(probe, budget, 0.1, 1.0);
  EXPECT_FALSE(result.feasible);
}

TEST(MaxSustainableLambda, WholeRangeFeasible) {
  NodeProbe probe = [](double) { return TaskStats{0.5, 0.5}; };
  const TaskBudget budget{1.0, 1.0};
  const auto result = max_sustainable_lambda(probe, budget, 0.1, 7.0);
  ASSERT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.max_lambda, 7.0);
}

TEST(MaxSustainableLambda, RejectsAToleranceThatIsNotPositive) {
  // At tolerance 0 the search once spun forever on adjacent doubles, and a
  // NaN tolerance skipped it and reported lambda_lo.  Neither may probe.
  int probes = 0;
  NodeProbe probe = [&](double lambda) {
    ++probes;
    return TaskStats{lambda, lambda};
  };
  const TaskBudget budget{0.5, 0.5};
  for (const double tolerance :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(max_sustainable_lambda(probe, budget, 0.01, 0.99, tolerance),
                 std::invalid_argument)
        << tolerance;
    EXPECT_THROW(max_lambda_for_slo(probe, {99.0, 1.0},
                                    TaskCountMixture::fixed(4.0), 0.01, 0.99,
                                    tolerance),
                 std::invalid_argument)
        << tolerance;
  }
  EXPECT_EQ(probes, 0);
}

TEST(MaxSustainableLambda, TinyToleranceStopsAtAdjacentDoubles) {
  // Far below the spacing of doubles the search still ends: the bracket
  // closes to adjacent doubles around the boundary at 0.5.
  int probes = 0;
  NodeProbe probe = [&](double lambda) {
    ++probes;
    return TaskStats{lambda, lambda};
  };
  const auto result = max_sustainable_lambda(probe, {0.5, 0.5}, 0.01, 0.99,
                                             1e-300);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.max_lambda, 0.5);
  EXPECT_EQ(result.stats_at_max.mean, 0.5);
  EXPECT_LT(probes, 2 + 60);
}

TEST(MaxLambdaForSlo, StopsExactlyAtTheSlo) {
  // M/M/1 probe: predicted p99 for k tasks has a closed form, so the
  // search's stopping point can be verified analytically.
  const dist::Exponential service(1.0);
  NodeProbe probe = [&](double lambda) {
    const auto r = queueing::mg1_response(lambda, service);
    return TaskStats{r.mean, r.variance};
  };
  const double k = 64.0;
  const TailSlo slo{99.0, 100.0};
  const auto mixture = TaskCountMixture::fixed(k);
  const auto result = max_lambda_for_slo(probe, slo, mixture, 0.01, 0.999, 1e-5);
  ASSERT_TRUE(result.feasible);
  // At the found rate the prediction must sit at the SLO (within search
  // tolerance) and not above it.
  const double predicted =
      mixture_quantile(result.stats_at_max, mixture, slo.percentile);
  EXPECT_LE(predicted, slo.latency + 1e-6);
  EXPECT_GT(predicted, 0.97 * slo.latency);
  // Analytic check: x_p = -mean/(1-rho) * ln(1 - 0.99^{1/64}) = 100 at the
  // boundary => mean response = 100 / 6.647 => rho = 1 - 1/mean...
  const double level = -std::log(1.0 - std::pow(0.99, 1.0 / k));
  const double mean_at_slo = slo.latency / level;
  const double rho_expected = 1.0 - 1.0 / mean_at_slo;
  EXPECT_NEAR(result.max_lambda, rho_expected, 5e-3);
}

TEST(MaxLambdaForSlo, RobustToHeavyTailShape) {
  // A probe whose variance blows up faster than the mean: the budget-based
  // search (SCV hint 1) overshoots, the SLO-based search does not.
  NodeProbe probe = [](double lambda) {
    const double mean = 1.0 / (1.0 - lambda);
    return TaskStats{mean, 10.0 * mean * mean};  // CV^2 = 10
  };
  const TailSlo slo{99.0, 60.0};
  const auto mixture = TaskCountMixture::fixed(16.0);
  const TaskBudget budget = derive_task_budget(slo, 16.0, 1.0);
  const auto by_budget =
      max_sustainable_lambda(probe, budget, 0.01, 0.99, 1e-4);
  const auto by_slo = max_lambda_for_slo(probe, slo, mixture, 0.01, 0.99, 1e-4);
  ASSERT_TRUE(by_budget.feasible);
  ASSERT_TRUE(by_slo.feasible);
  // The budget-based operating point violates the SLO under this shape...
  EXPECT_GT(mixture_quantile(by_budget.stats_at_max, mixture, 99.0),
            slo.latency);
  // ... the SLO-based one does not, and is therefore more conservative.
  EXPECT_LE(mixture_quantile(by_slo.stats_at_max, mixture, 99.0),
            slo.latency + 1e-6);
  EXPECT_LT(by_slo.max_lambda, by_budget.max_lambda);
}

TEST(MaxLambdaForSlo, InfeasibleReported) {
  NodeProbe probe = [](double) { return TaskStats{1000.0, 1000.0}; };
  const auto result = max_lambda_for_slo(probe, {99.0, 1.0},
                                         TaskCountMixture::fixed(4.0), 0.1, 1.0);
  EXPECT_FALSE(result.feasible);
}

TEST(MaxLambdaForSlo, Validation) {
  NodeProbe probe = [](double) { return TaskStats{1.0, 1.0}; };
  const auto mixture = TaskCountMixture::fixed(4.0);
  EXPECT_THROW(max_lambda_for_slo(probe, {99.0, 1.0}, mixture, 1.0, 0.5),
               std::invalid_argument);
  EXPECT_THROW(max_lambda_for_slo(probe, {99.0, 0.0}, mixture, 0.1, 1.0),
               std::invalid_argument);
}

TEST(EquivalentLoad, InterpolatesMonotoneCurve) {
  const double loads[] = {80.0, 85.0, 90.0, 95.0};
  const double lat[] = {100.0, 150.0, 250.0, 500.0};
  EXPECT_DOUBLE_EQ(equivalent_load(loads, lat, 200.0), 87.5);
  EXPECT_DOUBLE_EQ(equivalent_load(loads, lat, 100.0), 80.0);
  // Clamped outside the range.
  EXPECT_DOUBLE_EQ(equivalent_load(loads, lat, 50.0), 80.0);
  EXPECT_DOUBLE_EQ(equivalent_load(loads, lat, 900.0), 95.0);
}

TEST(EquivalentLoad, Validation) {
  const double loads[] = {80.0};
  const double lat[] = {100.0};
  EXPECT_THROW(equivalent_load(loads, lat, 100.0), std::invalid_argument);
}

}  // namespace
}  // namespace forktail::core
