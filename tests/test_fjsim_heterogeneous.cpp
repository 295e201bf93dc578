#include "fjsim/heterogeneous.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/predictor.hpp"
#include "dist/basic.hpp"
#include "dist/factory.hpp"
#include "fjsim/homogeneous.hpp"
#include "stats/percentile.hpp"
#include "stats/summary.hpp"

namespace forktail::fjsim {
namespace {

std::vector<dist::DistPtr> mixed_cluster(std::size_t n, double slow_factor) {
  std::vector<dist::DistPtr> services;
  services.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Node means spread linearly from 1.0 to slow_factor.
    const double mean =
        1.0 + (slow_factor - 1.0) * static_cast<double>(i) /
                  static_cast<double>(n - 1);
    services.push_back(std::make_shared<dist::Exponential>(mean));
  }
  return services;
}

TEST(Heterogeneous, LambdaForMaxLoadUsesBottleneck) {
  const auto services = mixed_cluster(8, 4.0);
  const double lambda = lambda_for_max_load(services, 0.8);
  EXPECT_NEAR(lambda * 4.0, 0.8, 1e-12);  // slowest mean = 4
  EXPECT_THROW(lambda_for_max_load({}, 0.8), std::invalid_argument);
  EXPECT_THROW(lambda_for_max_load(services, 1.0), std::invalid_argument);
}

TEST(Heterogeneous, BitIdenticalAcrossParallelismLevels) {
  HeterogeneousConfig c;
  c.services = mixed_cluster(13, 3.0);
  c.services[6] = dist::make_named("Weibull");  // breaks a run of pairs
  c.lambda = lambda_for_max_load(c.services, 0.75);
  c.num_requests = 5000;
  c.seed = 17;
  c.max_parallelism = 1;  // inline, no pool
  const auto serial = run_heterogeneous(c);
  for (const std::size_t parallelism : {0u, 3u, 13u}) {
    c.max_parallelism = parallelism;
    const auto r = run_heterogeneous(c);
    ASSERT_EQ(r.responses.size(), serial.responses.size());
    for (std::size_t i = 0; i < r.responses.size(); ++i) {
      ASSERT_EQ(r.responses[i], serial.responses[i]);
    }
    ASSERT_EQ(r.node_stats.size(), serial.node_stats.size());
    for (std::size_t n = 0; n < r.node_stats.size(); ++n) {
      EXPECT_EQ(r.node_stats[n].count(), serial.node_stats[n].count());
      EXPECT_EQ(r.node_stats[n].mean(), serial.node_stats[n].mean());
      EXPECT_EQ(r.node_stats[n].variance(), serial.node_stats[n].variance());
    }
  }
}

TEST(Heterogeneous, IdenticalNodesMatchHomogeneousRunner) {
  // With all services equal, the heterogeneous runner must reproduce the
  // homogeneous one bit-for-bit at equal seeds (same stream layout).
  const dist::DistPtr service = dist::make_named("Exponential");
  HeterogeneousConfig het;
  het.services.assign(8, service);
  het.lambda = 0.8 / service->mean();
  het.num_requests = 20000;
  het.seed = 9;
  const auto rh = run_heterogeneous(het);

  HomogeneousConfig hom;
  hom.num_nodes = 8;
  hom.service = service;
  hom.load = 0.8;
  hom.num_requests = 20000;
  hom.seed = 9;
  const auto rm = run_homogeneous(hom);

  ASSERT_EQ(rh.responses.size(), rm.responses.size());
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_DOUBLE_EQ(rh.responses[i], rm.responses[i]);
  }
}

TEST(Heterogeneous, SlowNodeDominatesPerNodeStats) {
  const auto services = mixed_cluster(8, 5.0);
  HeterogeneousConfig cfg;
  cfg.services = services;
  cfg.lambda = lambda_for_max_load(services, 0.7);
  cfg.num_requests = 40000;
  cfg.seed = 10;
  const auto r = run_heterogeneous(cfg);
  ASSERT_EQ(r.node_stats.size(), 8u);
  // Mean task response must increase along the slowness gradient.
  EXPECT_LT(r.node_stats.front().mean(), r.node_stats.back().mean());
  EXPECT_NEAR(r.max_utilization, 0.7, 1e-12);
}

TEST(Heterogeneous, InhomogeneousPredictorBeatsPooledAtHighLoad) {
  // The point of Eq. 4: with a strong speed gradient, the per-node model
  // tracks the simulated p99 better than pooling all nodes into one.
  const auto services = mixed_cluster(16, 6.0);
  HeterogeneousConfig cfg;
  cfg.services = services;
  cfg.lambda = lambda_for_max_load(services, 0.85);
  cfg.num_requests = 60000;
  cfg.warmup_fraction = 0.3;
  cfg.seed = 11;
  const auto r = run_heterogeneous(cfg);
  const double measured = stats::percentile(r.responses, 99.0);

  std::vector<core::TaskStats> nodes;
  stats::Welford pooled;
  for (const auto& w : r.node_stats) {
    nodes.push_back({w.mean(), w.variance()});
    pooled.merge(w);
  }
  const double inhom = core::inhomogeneous_quantile(nodes, 99.0);
  const double hom = core::homogeneous_quantile(
      {pooled.mean(), pooled.variance()}, 16.0, 99.0);
  const double err_inhom = std::fabs(stats::relative_error_pct(inhom, measured));
  const double err_hom = std::fabs(stats::relative_error_pct(hom, measured));
  EXPECT_LT(err_inhom, err_hom);
  EXPECT_LT(err_inhom, 15.0);
}

TEST(Heterogeneous, Validation) {
  HeterogeneousConfig cfg;
  EXPECT_THROW(run_heterogeneous(cfg), std::invalid_argument);
  cfg.services = mixed_cluster(4, 2.0);
  cfg.lambda = 0.0;
  EXPECT_THROW(run_heterogeneous(cfg), std::invalid_argument);
  cfg.lambda = 0.6;  // slowest mean 2.0 -> rho 1.2: unstable
  EXPECT_THROW(run_heterogeneous(cfg), std::invalid_argument);
  cfg.services[1] = nullptr;
  cfg.lambda = 0.1;
  EXPECT_THROW(run_heterogeneous(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace forktail::fjsim
