#include "support/scalar_replay.hpp"

#include <algorithm>

#include "fjsim/node.hpp"
#include "fjsim/redundant_node.hpp"
#include "fjsim/replay.hpp"

namespace forktail::fjsim {

HomogeneousResult scalar_homogeneous(const HomogeneousConfig& config) {
  validate(config);
  const double lambda =
      config.load * static_cast<double>(config.replicas) / config.service->mean();
  std::vector<std::uint64_t> node_redundant(config.num_nodes, 0);
  NodeMajorResult run = replay_node_major(
      {config.num_nodes, lambda, config.num_requests, config.warmup_fraction,
       config.seed, config.max_parallelism},
      [&](const NodeBlock& block) {
        for (std::size_t n = block.lo; n < block.hi; ++n) {
          if (config.policy == Policy::kRedundant) {
            RedundantNode node(config.service.get(), config.replicas,
                               config.redundant_delay, block.node_rng(n));
            node_redundant[n] = replay_node(node, block, n);
          } else {
            FastNode node(config.service.get(), config.replicas, config.policy,
                          block.node_rng(n));
            replay_node(node, block, n);
          }
        }
      });
  HomogeneousResult result;
  result.responses = std::move(run.responses);
  result.lambda = lambda;
  result.total_tasks = run.total * config.num_nodes;
  for (std::size_t n = 0; n < config.num_nodes; ++n) {
    result.task_stats.merge(run.node_stats[n]);
    result.redundant_issues += node_redundant[n];
  }
  return result;
}

HeterogeneousResult scalar_heterogeneous(const HeterogeneousConfig& config) {
  NodeMajorResult run = replay_node_major(
      {config.services.size(), config.lambda, config.num_requests,
       config.warmup_fraction, config.seed, config.max_parallelism},
      [&](const NodeBlock& block) {
        for (std::size_t n = block.lo; n < block.hi; ++n) {
          FastNode node(config.services[n].get(), 1, Policy::kSingle,
                        block.node_rng(n));
          replay_node(node, block, n);
        }
      });
  HeterogeneousResult result;
  result.responses = std::move(run.responses);
  result.node_stats = std::move(run.node_stats);
  result.lambda = config.lambda;
  for (const auto& s : config.services) {
    result.max_utilization =
        std::max(result.max_utilization, config.lambda * s->mean());
  }
  return result;
}

PipelineResult scalar_pipeline(const PipelineConfig& config) {
  return run_pipeline(config, [](const dist::Distribution& service,
                                 util::Rng rng,
                                 std::span<const double> arrivals,
                                 StageSink& sink) {
    FastNode node(&service, 1, Policy::kSingle, rng);
    for (std::uint64_t i = 0; i < arrivals.size(); ++i) {
      node.submit_task(arrivals[i], i, sink);
    }
  });
}

}  // namespace forktail::fjsim
