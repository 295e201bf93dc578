#include "fjsim/homogeneous.hpp"

#include "fjsim/redundant_node.hpp"
#include "fjsim/replay.hpp"
#include "fjsim/vector_engine.hpp"

namespace forktail::fjsim {

HomogeneousResult run_homogeneous(const HomogeneousConfig& config) {
  if (config.engine == Engine::kVector) return run_homogeneous_vector(config);
  validate(config);  // throws a field-typed ConfigError (fjsim/config.hpp)

  const double lambda =
      config.load * static_cast<double>(config.replicas) / config.service->mean();
  const std::size_t batch = resolve_batch(config.batch);
  std::vector<std::uint64_t> node_redundant(config.num_nodes, 0);
  NodeMajorResult run = replay_node_major(
      {config.num_nodes, lambda, config.num_requests, config.warmup_fraction,
       config.seed, config.max_parallelism},
      [&](const NodeBlock& block) {
        if (config.policy == Policy::kRedundant) {
          // Event-driven path: batching happens inside the node's demand
          // buffer; the replay loop itself stays per task.
          for (std::size_t n = block.lo; n < block.hi; ++n) {
            RedundantNode node(config.service.get(), config.replicas,
                               config.redundant_delay, block.node_rng(n),
                               batch);
            node_redundant[n] = replay_node(node, block, n);
          }
          return;
        }
        replay_tiled(
            block, batch,
            [&](std::size_t) { return config.service.get(); }, config.replicas);
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

}  // namespace forktail::fjsim
