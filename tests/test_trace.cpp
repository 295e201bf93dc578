#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "trace/facebook.hpp"
#include "fjsim/consolidated.hpp"
#include "util/rng.hpp"

namespace forktail::trace {
namespace {

TEST(FacebookBins, ProbabilitiesSumToOne) {
  double total = 0.0;
  for (const auto& bin : facebook_job_size_bins()) {
    EXPECT_LE(bin.lo, bin.hi);
    EXPECT_GT(bin.probability, 0.0);
    total += bin.probability;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(FacebookBins, MostJobsAreSmall) {
  // The defining property of the Facebook histogram: > 50% of jobs have
  // <= 2 tasks while the tail reaches thousands.
  const auto& bins = facebook_job_size_bins();
  EXPECT_GE(bins[0].probability + bins[1].probability, 0.5);
  EXPECT_GE(bins.back().hi, 1500u);
}

FacebookWorkload::Params default_params() {
  FacebookWorkload::Params p;
  p.target_tasks = 100;
  p.target_mean_ms = 50.0;
  return p;
}

TEST(FacebookWorkload, TargetFractionRespected) {
  FacebookWorkload w(default_params());
  util::Rng rng(80);
  int targets = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (w.sample_job(rng).target) ++targets;
  }
  EXPECT_NEAR(static_cast<double>(targets) / n, 0.1, 0.01);
}

TEST(FacebookWorkload, TargetJobsAreUniform) {
  FacebookWorkload w(default_params());
  util::Rng rng(81);
  for (int i = 0; i < 1000; ++i) {
    const auto job = w.sample_job(rng);
    if (job.target) {
      EXPECT_EQ(job.tasks, 100u);
      EXPECT_DOUBLE_EQ(job.mean_task_time, 50.0);
    }
  }
}

TEST(FacebookWorkload, BackgroundSizesMatchBins) {
  FacebookWorkload w(default_params());
  util::Rng rng(82);
  int small = 0;
  const int n = 50000;
  double mean_acc = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto k = w.sample_background_tasks(rng);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 3000u);
    if (k <= 2) ++small;
    mean_acc += k;
  }
  EXPECT_NEAR(static_cast<double>(small) / n, 0.54, 0.02);
  EXPECT_NEAR(mean_acc / n, w.mean_background_tasks(),
              0.05 * w.mean_background_tasks());
}

TEST(FacebookWorkload, MaxTasksClampApplied) {
  auto p = default_params();
  p.max_tasks = 64;
  FacebookWorkload w(p);
  util::Rng rng(83);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_LE(w.sample_background_tasks(rng), 64u);
  }
}

TEST(FacebookWorkload, MeanTimesLogUniform) {
  FacebookWorkload w(default_params());
  util::Rng rng(84);
  for (int i = 0; i < 10000; ++i) {
    const double m = w.sample_background_mean(rng);
    ASSERT_GE(m, 1.0);
    ASSERT_LE(m, 1000.0);
  }
}

// The closed form against a Monte-Carlo oracle kept here: 1.2 M jobs from
// sample_job, each with one rejection-drawn TruncNormal(m, 2m) task time
// scaled by its task count, which estimates E[k * S | m] per job.  The
// closed form must sit within 4 standard errors of the oracle mean, with
// and without the task-count clamp the consolidated scenarios apply.
TEST(FacebookWorkload, MeanWorkMatchesMonteCarloOracle) {
  constexpr double kFloor = 0.05;
  constexpr int kJobs = 1200000;
  for (const std::uint32_t max_tasks : {0u, 100u}) {
    SCOPED_TRACE(max_tasks);
    auto params = default_params();
    params.max_tasks = max_tasks;
    const FacebookWorkload w(params);
    util::Rng rng(12345);
    double sum = 0.0;
    double sq = 0.0;
    for (int i = 0; i < kJobs; ++i) {
      const fjsim::JobSpec job = w.sample_job(rng);
      double s;
      do {
        s = rng.normal(job.mean_task_time, 2.0 * job.mean_task_time);
      } while (s < kFloor);
      const double work = static_cast<double>(job.tasks) * s;
      sum += work;
      sq += work * work;
    }
    const double mean = sum / kJobs;
    const double se = std::sqrt((sq / kJobs - mean * mean) / kJobs);
    const double exact = w.estimate_mean_work(kFloor);
    EXPECT_NEAR(exact, mean, 4.0 * se) << "oracle " << mean << " +- " << se;
  }
}

TEST(FacebookWorkload, ParamValidation) {
  auto p = default_params();
  p.min_mean_ms = 0.0;
  EXPECT_THROW(FacebookWorkload{p}, std::invalid_argument);
  p = default_params();
  p.target_fraction = 1.5;
  EXPECT_THROW(FacebookWorkload{p}, std::invalid_argument);
  p = default_params();
  p.target_tasks = 0;
  EXPECT_THROW(FacebookWorkload{p}, std::invalid_argument);
}

}  // namespace
}  // namespace forktail::trace
