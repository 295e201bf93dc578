#include "fjsim/heterogeneous.hpp"

#include <algorithm>
#include <stdexcept>

#include "fjsim/replay.hpp"
#include "fjsim/vector_engine.hpp"

namespace forktail::fjsim {

double lambda_for_max_load(const std::vector<dist::DistPtr>& services,
                           double rho) {
  if (services.empty()) {
    throw std::invalid_argument("lambda_for_max_load: no services");
  }
  if (!(rho > 0.0 && rho < 1.0)) {
    throw std::invalid_argument("lambda_for_max_load: rho must be in (0,1)");
  }
  double slowest = 0.0;
  for (const auto& s : services) {
    if (!s) throw std::invalid_argument("lambda_for_max_load: null service");
    slowest = std::max(slowest, s->mean());
  }
  return rho / slowest;
}

double checked_max_utilization(const HeterogeneousConfig& config) {
  if (config.services.empty()) {
    throw std::invalid_argument("run_heterogeneous: no nodes");
  }
  if (!(config.lambda > 0.0)) {
    throw std::invalid_argument("run_heterogeneous: lambda <= 0");
  }
  double max_rho = 0.0;
  for (const auto& s : config.services) {
    if (!s) throw std::invalid_argument("run_heterogeneous: null service");
    max_rho = std::max(max_rho, config.lambda * s->mean());
  }
  if (max_rho >= 1.0) {
    throw std::invalid_argument(
        "run_heterogeneous: bottleneck node unstable (rho >= 1)");
  }
  return max_rho;
}

HeterogeneousResult run_heterogeneous(const HeterogeneousConfig& config) {
  if (config.engine == Engine::kVector) return run_heterogeneous_vector(config);
  const double max_rho = checked_max_utilization(config);
  const std::size_t n = config.services.size();
  const std::size_t batch = resolve_batch(config.batch);
  NodeMajorResult run = replay_node_major(
      {n, config.lambda, config.num_requests, config.warmup_fraction,
       config.seed, config.max_parallelism},
      [&](const NodeBlock& block) {
        replay_tiled(
            block, batch,
            [&](std::size_t node) { return config.services[node].get(); }, 1);
      });

  HeterogeneousResult result;
  result.responses = std::move(run.responses);
  result.node_stats = std::move(run.node_stats);
  result.lambda = config.lambda;
  result.max_utilization = max_rho;
  return result;
}

}  // namespace forktail::fjsim
