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

TEST(TraceSynthesis, RecordsHaveExpectedShape) {
  FacebookWorkload w(default_params());
  const auto records = synthesize_trace(w, 500, 10.0, 0.05, 7);
  ASSERT_EQ(records.size(), 500u);
  double prev = 0.0;
  for (const auto& rec : records) {
    EXPECT_GT(rec.arrival_time, prev);
    prev = rec.arrival_time;
    EXPECT_EQ(rec.task_times.size(), rec.num_tasks);
    for (double t : rec.task_times) EXPECT_GE(t, 0.05);
  }
}

TEST(TraceReplay, CyclesRecordsInOrder) {
  std::vector<JobRecord> records(3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    records[i].num_tasks = i + 1;
    records[i].mean_task_time = 10.0 * (i + 1);
  }
  auto gen = make_replay_generator(records);
  util::Rng rng(1);
  for (int round = 0; round < 2; ++round) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      const auto job = gen(rng);
      EXPECT_EQ(job.tasks, i + 1);
      EXPECT_DOUBLE_EQ(job.mean_task_time, 10.0 * (i + 1));
      EXPECT_FALSE(job.target);
    }
  }
}

TEST(TraceReplay, ClampsTaskCounts) {
  std::vector<JobRecord> records(1);
  records[0].num_tasks = 500;
  records[0].mean_task_time = 1.0;
  auto gen = make_replay_generator(records, /*max_tasks=*/64);
  util::Rng rng(2);
  EXPECT_EQ(gen(rng).tasks, 64u);
}

TEST(TraceReplay, EmptyTraceRejected) {
  EXPECT_THROW(make_replay_generator({}), std::invalid_argument);
}

TEST(TraceMeanWork, ExactFromRecordedTimes) {
  std::vector<JobRecord> records(2);
  records[0].num_tasks = 2;
  records[0].mean_task_time = 5.0;
  records[0].task_times = {4.0, 6.0};
  records[1].num_tasks = 1;
  records[1].mean_task_time = 10.0;
  records[1].task_times = {12.0};
  EXPECT_NEAR(trace_mean_work(records, 0.05), (10.0 + 12.0) / 2.0, 1e-12);
}

TEST(TraceMeanWork, MeanBasedAppliesTruncationInflation) {
  // Without recorded times, the Hawk model Normal(m, (2m)^2) truncated at
  // ~0 inflates the mean to ~2x the nominal value.
  std::vector<JobRecord> records(1);
  records[0].num_tasks = 10;
  records[0].mean_task_time = 1.0;
  const double w = trace_mean_work(records, 0.001);
  EXPECT_GT(w, 10.0 * 1.9);
  EXPECT_LT(w, 10.0 * 2.2);
}

TEST(TraceReplay, DrivesConsolidatedSimulator) {
  // End-to-end: synthesize a trace and replay it through the consolidated
  // simulator at a fixed load.
  FacebookWorkload::Params params = default_params();
  params.max_tasks = 16;
  params.target_fraction = 0.0;  // pure background trace
  FacebookWorkload workload(params);
  const auto records = synthesize_trace(workload, 2000, 5.0, 0.05, 11);

  fjsim::ConsolidatedConfig cfg;
  cfg.num_nodes = 16;
  cfg.replicas = 3;
  cfg.load = 0.6;
  cfg.generator = make_replay_generator(records, 16);
  cfg.mean_work_per_job = trace_mean_work(records, 0.05, 16);
  cfg.num_jobs = 20000;
  cfg.seed = 12;
  const auto r = fjsim::run_consolidated(cfg);
  EXPECT_GT(r.background_task_stats.count(), 0u);
  // All jobs are background; no target jobs tracked.
  EXPECT_TRUE(r.target_responses.empty());
  // Load calibration sanity: mean background task response must exceed the
  // mean service but stay finite (stable at 60% load).
  EXPECT_GT(r.background_task_stats.mean(), 0.0);
}

}  // namespace
}  // namespace forktail::trace
