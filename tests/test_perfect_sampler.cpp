// Perfect sampler (fjsim/perfect_sampler.hpp): bit-reproducibility,
// stationarity against long-warm-up replay, the vector engine's agreement
// in law with the legacy reference, and the refusal contract.
//
// The sampler's claim is strong -- each draw comes from the exact
// stationary response law (up to the 2^-40 coalescence certificate) -- so
// the tests attack it from three sides:
//   * known-answer: pinned 64-bit patterns (any drift in the draw order,
//     the Rng::split stream layout, or the coalescence rule changes bits);
//   * prefix identity: draw d depends only on (seed, d), never on the
//     number of draws requested;
//   * distribution: a two-sample KS test against the replay engine run
//     with a 10x warm-up (the engine pair must agree on the stationary
//     law; replay autocorrelation inflates the KS statistic, so the bar
//     is generous but still catches wrong-law bugs).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/factory.hpp"
#include "fjsim/config.hpp"
#include "fjsim/homogeneous.hpp"
#include "fjsim/perfect_sampler.hpp"
#include "stats/welford.hpp"

namespace forktail {
namespace {

fjsim::PerfectSamplerConfig homogeneous_config() {
  fjsim::PerfectSamplerConfig cfg;
  cfg.num_nodes = 4;
  cfg.service = dist::make_named("Exponential");
  cfg.load = 0.7;
  cfg.draws = 4;
  cfg.seed = 42;
  return cfg;
}

TEST(PerfectSampler, KnownAnswerHomogeneous) {
  const fjsim::PerfectSampleResult res =
      fjsim::run_perfect(homogeneous_config());
  const std::uint64_t expected[] = {
      0x40527b71b5b02853ULL,  // 73.928815290478539
      0x40312afaf06bb70fULL,  // 17.167891527459741
      0x4044e3e2cc4e219cULL,  // 41.780358827734034
      0x40394deb34f03e2eULL,  // 25.304370220807122
  };
  ASSERT_EQ(res.responses.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(res.responses[i]), expected[i])
        << "draw " << i << " drifted: " << res.responses[i];
  }
}

TEST(PerfectSampler, KnownAnswerSubset) {
  fjsim::PerfectSamplerConfig cfg;
  cfg.num_nodes = 16;
  cfg.service = dist::make_named("Erlang-2");
  cfg.load = 0.6;
  cfg.subset = true;
  cfg.k_mode = fjsim::KMode::kFixed;
  cfg.k_fixed = 4;
  cfg.draws = 4;
  cfg.seed = 7;
  const fjsim::PerfectSampleResult res = fjsim::run_perfect(cfg);
  const std::uint64_t expected[] = {
      0x403324c8bf2cefb1ULL,  // 19.143688152762198
      0x402c59b0c57a4485ULL,  // 14.175176783728839
      0x40295252f45dba3aULL,  // 12.660789143029536
      0x4035e170533c5224ULL,  // 21.880620195605061
  };
  ASSERT_EQ(res.responses.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(res.responses[i]), expected[i])
        << "draw " << i << " drifted: " << res.responses[i];
  }
}

// Draw d is a pure function of (seed, d): asking for more draws must not
// perturb earlier ones (each draw owns an Rng::split stream).
TEST(PerfectSampler, DrawsArePrefixStable) {
  fjsim::PerfectSamplerConfig small = homogeneous_config();
  fjsim::PerfectSamplerConfig large = homogeneous_config();
  large.draws = 8;
  const auto a = fjsim::run_perfect(small).responses;
  const auto b = fjsim::run_perfect(large).responses;
  ASSERT_EQ(b.size(), 8u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "draw " << i;
  }
}

double two_sample_ks(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double d = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] <= b[j]) {
      ++i;
    } else {
      ++j;
    }
    const double fa = static_cast<double>(i) / static_cast<double>(a.size());
    const double fb = static_cast<double>(j) / static_cast<double>(b.size());
    d = std::max(d, std::abs(fa - fb));
  }
  return d;
}

// Stationarity: perfect draws vs the replay engine given a 10x-longer
// warm-up than the benches use.  The replay sample is autocorrelated, so
// its empirical CDF wanders more than an iid sample of the same size --
// the threshold is 3x the iid 0.1% KS bar, loose enough for that but far
// below the shift a wrong stationary law produces (seeds are fixed, so
// this is a deterministic regression check, not a flaky statistical one).
TEST(PerfectSampler, MatchesLongWarmupReplay) {
  const std::size_t kDraws = 6000;

  fjsim::PerfectSamplerConfig perfect = homogeneous_config();
  perfect.draws = kDraws;
  perfect.seed = 3;
  const auto exact = fjsim::run_perfect(perfect).responses;

  fjsim::HomogeneousConfig replay;
  replay.num_nodes = 4;
  replay.service = dist::make_named("Exponential");
  replay.load = 0.7;
  replay.num_requests = kDraws;
  replay.warmup_fraction = 0.75;  // 3x the measured span; benches use 0.25
  replay.seed = 3;
  const auto simulated = fjsim::run_homogeneous(replay).responses;

  const double d = two_sample_ks(exact, simulated);
  const double m = static_cast<double>(kDraws);
  const double iid_bar = 1.95 * std::sqrt(2.0 / m);  // alpha = 0.001
  EXPECT_LT(d, 3.0 * iid_bar) << "KS distance " << d;
}

// The vector engine (fjsim::run_perfect_vector) samples the same law as
// the legacy reference: a two-sample KS test between the engines at the
// MatchesLongWarmupReplay bar, for a one-draw polynomial-log service
// (Exponential), a stage-major one (Erlang-2) and a table lookup
// (Empirical, bit-identical per uniform to the scalar transform).
TEST(PerfectSampler, VectorEngineMatchesLegacyLaw) {
  const std::size_t kDraws = 6000;
  for (const char* service : {"Exponential", "Erlang-2", "Empirical"}) {
    SCOPED_TRACE(service);
    fjsim::PerfectSamplerConfig legacy = homogeneous_config();
    legacy.service = dist::make_named(service);
    legacy.draws = kDraws;
    legacy.seed = 3;
    fjsim::PerfectSamplerConfig vector = legacy;
    vector.engine = fjsim::Engine::kVector;
    const auto ref = fjsim::run_perfect(legacy);
    const auto got = fjsim::run_perfect(vector);
    ASSERT_EQ(got.responses.size(), kDraws);
    EXPECT_EQ(got.total_tasks, ref.total_tasks);
    EXPECT_EQ(got.task_stats.count(), ref.task_stats.count());
    EXPECT_EQ(got.theta, ref.theta);
    EXPECT_GT(got.mean_depth, 0.0);

    const double d = two_sample_ks(ref.responses, got.responses);
    const double m = static_cast<double>(kDraws);
    const double iid_bar = 1.95 * std::sqrt(2.0 / m);  // alpha = 0.001
    EXPECT_LT(d, 3.0 * iid_bar) << "KS distance " << d;
  }
}

// Vector draw d is a pure function of (seed, d) as well: every lane is
// reseeded from split_seed(seed, d) per draw, so asking for more draws
// never perturbs earlier ones.
TEST(PerfectSampler, VectorDrawsArePrefixStable) {
  fjsim::PerfectSamplerConfig small = homogeneous_config();
  small.engine = fjsim::Engine::kVector;
  small.draws = 300;
  fjsim::PerfectSamplerConfig large = small;
  large.draws = 700;
  const auto a = fjsim::run_perfect(small).responses;
  const auto b = fjsim::run_perfect(large).responses;
  ASSERT_EQ(b.size(), 700u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "draw " << i;
  }
}

// batch_task_stats splits the pooled task moments by consecutive draws
// (bench_bounds reads their spread as the moments' sampling noise): the
// batches partition the tasks, merge back to task_stats, and batch 0 of a
// run is exactly the pooled moments of a run of batch 0's draws.
TEST(PerfectSampler, BatchesPartitionTheDraws) {
  fjsim::PerfectSamplerConfig subset;
  subset.num_nodes = 16;
  subset.service = dist::make_named("Erlang-2");
  subset.load = 0.6;
  subset.subset = true;
  subset.k_fixed = 4;
  subset.seed = 7;
  fjsim::PerfectSamplerConfig vector = homogeneous_config();
  vector.engine = fjsim::Engine::kVector;
  for (fjsim::PerfectSamplerConfig cfg :
       {homogeneous_config(), subset, vector}) {
    cfg.draws = 200;
    const fjsim::PerfectSampleResult all = fjsim::run_perfect(cfg);
    ASSERT_EQ(all.batch_task_stats.size(), fjsim::kPerfectBatches);
    const std::uint64_t tasks_per_draw = all.total_tasks / cfg.draws;
    stats::Welford merged;
    for (const stats::Welford& batch : all.batch_task_stats) {
      EXPECT_EQ(batch.count(), 10 * tasks_per_draw);
      merged.merge(batch);
    }
    EXPECT_EQ(merged.count(), all.task_stats.count());
    EXPECT_NEAR(merged.mean(), all.task_stats.mean(),
                1e-12 * all.task_stats.mean());
    EXPECT_NEAR(merged.variance(), all.task_stats.variance(),
                1e-12 * all.task_stats.variance());

    cfg.draws = 10;
    const fjsim::PerfectSampleResult head = fjsim::run_perfect(cfg);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(head.task_stats.mean()),
              std::bit_cast<std::uint64_t>(all.batch_task_stats[0].mean()));
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(head.task_stats.variance()),
        std::bit_cast<std::uint64_t>(all.batch_task_stats[0].variance()));
  }
}

// Heavy-tailed services have no MGF, so no Lundberg certificate exists and
// the sampler must refuse rather than silently truncate the walk.
TEST(PerfectSampler, RefusesHeavyTailedService) {
  fjsim::PerfectSamplerConfig cfg = homogeneous_config();
  cfg.service = dist::make_named("Weibull");
  try {
    fjsim::run_perfect(cfg);
    FAIL() << "expected ConfigError";
  } catch (const fjsim::ConfigError& e) {
    EXPECT_EQ(e.field(), "service");
  }
}

TEST(PerfectSampler, RefusalNamesTheDeclaredTailClass) {
  // The gate is the capability query, not a family list: a regularly
  // varying service must be refused with its declared tail class in the
  // message so the user knows WHY no Lundberg certificate exists.
  fjsim::PerfectSamplerConfig cfg = homogeneous_config();
  cfg.service = dist::make_named("Pareto", 4.22, 2.6);
  try {
    fjsim::run_perfect(cfg);
    FAIL() << "expected ConfigError";
  } catch (const fjsim::ConfigError& e) {
    EXPECT_EQ(e.field(), "service");
    const std::string what = e.what();
    EXPECT_NE(what.find("regularly-varying"), std::string::npos) << what;
    EXPECT_NE(what.find("MGF"), std::string::npos) << what;
  }
}

TEST(PerfectSampler, RejectsBadKnobs) {
  fjsim::PerfectSamplerConfig cfg = homogeneous_config();
  cfg.load = 1.0;
  EXPECT_THROW(fjsim::run_perfect(cfg), fjsim::ConfigError);
  cfg = homogeneous_config();
  cfg.epsilon = 0.0;
  EXPECT_THROW(fjsim::run_perfect(cfg), fjsim::ConfigError);
  cfg = homogeneous_config();
  cfg.subset = true;
  cfg.k_fixed = 5;  // > num_nodes
  EXPECT_THROW(fjsim::run_perfect(cfg), fjsim::ConfigError);
}

}  // namespace
}  // namespace forktail
