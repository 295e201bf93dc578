#include <gtest/gtest.h>

#include <cmath>

#include "baselines/direct.hpp"
#include "baselines/expfit.hpp"
#include "core/predictor.hpp"

namespace forktail::baselines {
namespace {

TEST(ExpFit, MatchesGeWhenCvIsOne) {
  // When the measured CV is exactly 1 the GE fit degenerates to the
  // exponential, so both baselines coincide.
  const core::TaskStats stats{10.0, 100.0};
  const double k = 100.0;
  EXPECT_NEAR(exponential_fit_quantile(stats, k, 99.0),
              core::homogeneous_quantile(stats, k, 99.0), 1e-6);
}

TEST(ExpFit, IgnoresVariance) {
  const core::TaskStats low_var{10.0, 25.0};
  const core::TaskStats high_var{10.0, 400.0};
  EXPECT_DOUBLE_EQ(exponential_fit_quantile(low_var, 10.0, 99.0),
                   exponential_fit_quantile(high_var, 10.0, 99.0));
  // ... while the GE fit responds to it (the paper's improvement over [30]).
  EXPECT_LT(core::homogeneous_quantile(low_var, 10.0, 99.0),
            core::homogeneous_quantile(high_var, 10.0, 99.0));
}

TEST(ExpFit, CdfQuantileConsistency) {
  const core::TaskStats stats{4.0, 16.0};
  const double x = exponential_fit_quantile(stats, 32.0, 95.0);
  EXPECT_NEAR(exponential_fit_cdf(stats, 32.0, x), 0.95, 1e-9);
}

TEST(ExpFit, Validation) {
  EXPECT_THROW(exponential_fit_quantile({0.0, 1.0}, 10.0, 99.0),
               std::invalid_argument);
  EXPECT_THROW(exponential_fit_quantile({1.0, 1.0}, 10.0, 100.0),
               std::invalid_argument);
}

TEST(Direct, RequiredSamplesMatchesPaperExample) {
  // Section 2: 99.9th percentile with 100 expected exceedances => 100k
  // samples; at 50 req/s that is 2000 s (~33 minutes).
  EXPECT_EQ(required_samples(99.9, 100.0), 100000u);
  EXPECT_NEAR(measurement_time_seconds(99.9, 50.0, 100.0), 2000.0, 1e-9);
}

TEST(Direct, SampleCountGrowsWithPercentile) {
  EXPECT_LT(required_samples(99.0), required_samples(99.9));
  EXPECT_LT(required_samples(99.9), required_samples(99.99));
}

TEST(Direct, Validation) {
  EXPECT_THROW(required_samples(0.0), std::invalid_argument);
  EXPECT_THROW(required_samples(100.0), std::invalid_argument);
  EXPECT_THROW(measurement_time_seconds(99.0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace forktail::baselines
