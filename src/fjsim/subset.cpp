#include "fjsim/subset.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "fjsim/redundant_node.hpp"
#include "fjsim/vector_engine.hpp"
#include "fjsim/replay.hpp"
#include "fjsim/telemetry.hpp"

namespace forktail::fjsim {

SubsetResult run_subset(const SubsetConfig& config) {
  if (config.engine == Engine::kVector) return run_subset_vector(config);
  const obs::ScopedSpan run_span(ReplayMetrics::get().run_seconds);
  validate(config);  // k-bounds etc., as a field-typed ConfigError
  const double mean_k =
      config.k_mode == KMode::kFixed
          ? static_cast<double>(config.k_fixed)
          : 0.5 * static_cast<double>(config.k_lo + config.k_hi);

  util::Rng master(config.seed);
  util::Rng pick_rng = master.split(1);
  util::Rng k_rng = master.split(2);

  const double lambda = config.load * static_cast<double>(config.num_nodes) *
                        static_cast<double>(config.replicas) /
                        (mean_k * config.service->mean());

  const std::uint64_t warmup =
      warmup_requests(config.warmup_fraction, config.num_requests);
  const std::uint64_t total = warmup + config.num_requests;

  const std::vector<double> arrivals =
      poisson_arrivals(master.split(0), lambda, total);
  std::vector<double> completion_max(total, 0.0);
  std::vector<int> request_k(config.group_by_k ? total : 0);
  // Early-return-at-k tracks each request's k smallest completions on the
  // side; with early_k == 0 the arena does not exist and the engine is
  // bit-identical to the pre-knob code path.
  std::optional<OrderStatArena> early_arena;
  if (config.early_k > 0) early_arena.emplace(total, config.early_k);

  SubsetResult result;
  result.lambda = lambda;
  result.mean_k = mean_k;

  // Request-major replay: each request forks to k distinct random nodes.
  const auto run_loop = [&](auto& nodes) {
    std::vector<std::uint32_t> perm(config.num_nodes);
    for (std::size_t i = 0; i < config.num_nodes; ++i) {
      perm[i] = static_cast<std::uint32_t>(i);
    }
    auto on_done = [&](std::uint64_t id, double arrival, double completion) {
      if (id >= warmup) result.task_stats.add(completion - arrival);
      if (completion > completion_max[id]) completion_max[id] = completion;
      if (early_arena) early_arena->insert(id, completion);
    };
    for (std::uint64_t j = 0; j < total; ++j) {
      const double t = arrivals[j];
      std::size_t k;
      if (config.k_mode == KMode::kFixed) {
        k = static_cast<std::size_t>(config.k_fixed);
      } else {
        k = static_cast<std::size_t>(k_rng.uniform_int(config.k_lo, config.k_hi));
      }
      if (config.group_by_k) request_k[j] = static_cast<int>(k);
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t pick =
            i + static_cast<std::size_t>(pick_rng.uniform_int(config.num_nodes - i));
        std::swap(perm[i], perm[pick]);
        nodes[perm[i]].submit_task(t, j, on_done);
      }
      result.total_tasks += k;
    }
    for (auto& node : nodes) node.flush(on_done);
  };
  const std::size_t batch = resolve_batch(config.batch);
  if (config.policy == Policy::kRedundant) {
    std::vector<RedundantNode> nodes;
    nodes.reserve(config.num_nodes);
    for (std::size_t n = 0; n < config.num_nodes; ++n) {
      nodes.emplace_back(config.service.get(), config.replicas,
                         config.redundant_delay, master.split(100 + n), batch);
    }
    run_loop(nodes);
  } else {
    std::vector<FastNode> nodes;
    nodes.reserve(config.num_nodes);
    for (std::size_t n = 0; n < config.num_nodes; ++n) {
      nodes.emplace_back(config.service.get(), config.replicas, config.policy,
                         master.split(100 + n), batch);
    }
    run_loop(nodes);
  }

  result.responses.reserve(config.num_requests);
  for (std::uint64_t j = warmup; j < total; ++j) {
    const double completion =
        early_arena ? early_arena->kth(j) : completion_max[j];
    const double response = completion - arrivals[j];
    result.responses.push_back(response);
    if (config.group_by_k) {
      result.responses_by_k[request_k[j]].push_back(response);
    }
  }
  ReplayMetrics::get().runs.add(1);
  return result;
}

}  // namespace forktail::fjsim
