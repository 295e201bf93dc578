// Batched replay determinism: for every fork-join runner, the tiled engine
// (any tile size) must reproduce the per-task reference replay
// (support/scalar_replay.hpp) bit for bit -- responses, moment
// accumulators, everything.  Tile sizes are chosen so tiles cross the
// warm-up boundary mid-tile, the last tile is partial, and odd node counts
// exercise the paired kernel's remainder lane
// (fjsim::LindleyState::replay_tile_pair).  The subset engine has no tiles;
// its reference is its own batch = 1 (one virtual sample() per task).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "dist/basic.hpp"
#include "dist/factory.hpp"
#include "dist/heavy.hpp"
#include "fjsim/heterogeneous.hpp"
#include "fjsim/homogeneous.hpp"
#include "fjsim/pipeline.hpp"
#include "fjsim/subset.hpp"
#include "stats/welford.hpp"
#include "support/scalar_replay.hpp"

namespace forktail::fjsim {
namespace {

// The per-task replay is the reference; "equal" means bitwise equal, not just
// within tolerance -- the engines must replay the identical float stream.
void expect_bitwise_equal(const std::vector<double>& ref,
                          const std::vector<double>& got, const char* what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(ref[i]),
              std::bit_cast<std::uint64_t>(got[i]))
        << what << " diverges at index " << i;
  }
}

void expect_welford_equal(const stats::Welford& ref, const stats::Welford& got,
                          const char* what) {
  EXPECT_EQ(ref.count(), got.count()) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.mean()),
            std::bit_cast<std::uint64_t>(got.mean()))
      << what << " mean";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.variance()),
            std::bit_cast<std::uint64_t>(got.variance()))
      << what << " variance";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.min()),
            std::bit_cast<std::uint64_t>(got.min()))
      << what << " min";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.max()),
            std::bit_cast<std::uint64_t>(got.max()))
      << what << " max";
}

// Batch sizes per case: default (1024), tiles of one task, a prime that
// misaligns every tile against the warm-up boundary, and one tile spanning
// the whole run.
constexpr std::size_t kBatches[] = {0, 1, 193, 1u << 20};

HomogeneousConfig homog(std::size_t nodes, Policy policy, int replicas,
                        dist::DistPtr dist) {
  HomogeneousConfig cfg;
  cfg.num_nodes = nodes;
  cfg.replicas = replicas;
  cfg.policy = policy;
  cfg.redundant_delay = 2.0;
  cfg.service = std::move(dist);
  cfg.load = 0.9;
  cfg.num_requests = 4000;
  cfg.seed = 123;
  return cfg;
}

void check_homogeneous(std::size_t nodes, Policy policy, int replicas,
                       const dist::DistPtr& dist) {
  HomogeneousConfig cfg = homog(nodes, policy, replicas, dist);
  const auto ref = scalar_homogeneous(cfg);
  for (const std::size_t batch : kBatches) {
    cfg.batch = batch;
    const auto got = run_homogeneous(cfg);
    expect_bitwise_equal(ref.responses, got.responses, "responses");
    expect_welford_equal(ref.task_stats, got.task_stats, "task_stats");
    EXPECT_EQ(ref.redundant_issues, got.redundant_issues);
  }
}

TEST(ReplayBatched, HomogeneousExponentialPairedNodes) {
  check_homogeneous(8, Policy::kSingle, 1, dist::make_named("Exponential"));
}

TEST(ReplayBatched, HomogeneousOddNodeCountUsesRemainderLane) {
  check_homogeneous(7, Policy::kSingle, 1, dist::make_named("Exponential"));
}

TEST(ReplayBatched, HomogeneousSingleNode) {
  check_homogeneous(1, Policy::kSingle, 1, dist::make_named("Exponential"));
}

TEST(ReplayBatched, HomogeneousWeibull) {
  check_homogeneous(6, Policy::kSingle, 1, dist::make_named("Weibull"));
}

TEST(ReplayBatched, HomogeneousLogNormalBoxMullerCache) {
  check_homogeneous(5, Policy::kSingle, 1,
                    std::make_shared<dist::LogNormal>(
                        dist::LogNormal::from_mean_cv(4.22, 1.2)));
}

TEST(ReplayBatched, HomogeneousRoundRobinReplicas) {
  check_homogeneous(5, Policy::kRoundRobin, 3, dist::make_named("Exponential"));
}

TEST(ReplayBatched, HomogeneousRedundantEventPath) {
  // kRedundant replays event-driven; batch only sizes the node's internal
  // demand buffer, and the consumed stream must not change.
  check_homogeneous(4, Policy::kRedundant, 2, dist::make_named("Exponential"));
}

void check_heterogeneous(std::vector<dist::DistPtr> services) {
  HeterogeneousConfig cfg;
  cfg.services = std::move(services);
  cfg.lambda = lambda_for_max_load(cfg.services, 0.8);
  cfg.num_requests = 4000;
  cfg.seed = 321;
  const auto ref = scalar_heterogeneous(cfg);
  for (const std::size_t batch : kBatches) {
    cfg.batch = batch;
    const auto got = run_heterogeneous(cfg);
    expect_bitwise_equal(ref.responses, got.responses, "responses");
    ASSERT_EQ(ref.node_stats.size(), got.node_stats.size());
    for (std::size_t n = 0; n < ref.node_stats.size(); ++n) {
      expect_welford_equal(ref.node_stats[n], got.node_stats[n], "node_stats");
    }
  }
}

TEST(ReplayBatched, Heterogeneous) {
  check_heterogeneous({dist::make_named("Exponential"),
                       dist::make_named("Weibull"),
                       std::make_shared<dist::LogNormal>(
                           dist::LogNormal::from_mean_cv(4.22, 1.2)),
                       dist::make_named("Erlang-2"),
                       dist::make_named("Exponential")});
  // Runs of same-kind nodes with different parameters go through the
  // paired kernel; the odd run leaves a remainder lane, and the Empirical
  // node (no fused kernel) breaks the runs.
  check_heterogeneous({std::make_shared<dist::Exponential>(1.0),
                       std::make_shared<dist::Exponential>(2.5),
                       std::make_shared<dist::Exponential>(0.7),
                       dist::make_named("Empirical"),
                       dist::make_named("Weibull"),
                       dist::make_named("Weibull"),
                       dist::make_named("Erlang-2")});
}

TEST(ReplayBatched, Subset) {
  SubsetConfig cfg;
  cfg.num_nodes = 50;
  cfg.service = dist::make_named("Exponential");
  cfg.load = 0.8;
  cfg.k_mode = KMode::kFixed;
  cfg.k_fixed = 8;
  cfg.num_requests = 4000;
  cfg.seed = 77;
  cfg.batch = 1;
  const auto ref = run_subset(cfg);
  for (const std::size_t batch : kBatches) {
    cfg.batch = batch;
    const auto got = run_subset(cfg);
    expect_bitwise_equal(ref.responses, got.responses, "responses");
    expect_welford_equal(ref.task_stats, got.task_stats, "task_stats");
  }
}

TEST(ReplayBatched, Pipeline) {
  PipelineConfig cfg;
  cfg.stages = {{4, dist::make_named("Exponential")},
                {3, dist::make_named("Weibull")},
                {6, dist::make_named("Erlang-2")}};
  cfg.load = 0.8;
  cfg.num_requests = 4000;
  cfg.seed = 55;
  const auto ref = scalar_pipeline(cfg);
  for (const std::size_t batch : kBatches) {
    cfg.batch = batch;
    const auto got = run_pipeline(cfg);
    expect_bitwise_equal(ref.responses, got.responses, "responses");
    ASSERT_EQ(ref.stage_task_stats.size(), got.stage_task_stats.size());
    for (std::size_t s = 0; s < ref.stage_task_stats.size(); ++s) {
      expect_welford_equal(ref.stage_task_stats[s], got.stage_task_stats[s],
                           "stage_task_stats");
      expect_welford_equal(ref.stage_latency_stats[s],
                           got.stage_latency_stats[s], "stage_latency_stats");
    }
  }
}

}  // namespace
}  // namespace forktail::fjsim
