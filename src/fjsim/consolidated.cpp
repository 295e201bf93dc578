#include "fjsim/consolidated.hpp"

#include <algorithm>
#include <stdexcept>

#include "fjsim/replay.hpp"
#include "fjsim/telemetry.hpp"

namespace forktail::fjsim {

ConsolidatedResult run_consolidated(const ConsolidatedConfig& config) {
  const obs::ScopedSpan run_span(ReplayMetrics::get().run_seconds);
  validate(config);  // throws a field-typed ConfigError (fjsim/config.hpp)

  util::Rng master(config.seed);
  util::Rng pick_rng = master.split(1);
  util::Rng job_rng = master.split(2);
  util::Rng service_rng = master.split(3);

  const double lambda = config.load * static_cast<double>(config.num_nodes) *
                        static_cast<double>(config.replicas) /
                        config.mean_work_per_job;

  const std::uint64_t warmup =
      warmup_requests(config.warmup_fraction, config.num_jobs);
  const std::uint64_t total = warmup + config.num_jobs;

  std::vector<FastNode> nodes;
  nodes.reserve(config.num_nodes);
  for (std::size_t n = 0; n < config.num_nodes; ++n) {
    nodes.emplace_back(nullptr, config.replicas, config.policy,
                       master.split(100 + n));
  }

  const std::vector<double> arrivals =
      poisson_arrivals(master.split(0), lambda, total);
  std::vector<double> completion_max(total, 0.0);
  std::vector<std::uint8_t> is_target(total, 0);
  std::vector<std::uint32_t> job_tasks(total, 0);

  std::vector<std::uint32_t> perm(config.num_nodes);
  for (std::size_t i = 0; i < config.num_nodes; ++i) {
    perm[i] = static_cast<std::uint32_t>(i);
  }

  ConsolidatedResult result;
  result.lambda = lambda;

  auto on_done = [&](std::uint64_t id, double arrival, double completion) {
    if (id >= warmup) {
      const double response = completion - arrival;
      if (is_target[id]) {
        result.target_task_stats.add(response);
      } else {
        result.background_task_stats.add(response);
      }
    }
    if (completion > completion_max[id]) completion_max[id] = completion;
  };

  for (std::uint64_t j = 0; j < total; ++j) {
    const double t = arrivals[j];
    const JobSpec job = config.generator(job_rng);
    if (job.tasks < 1 ||
        static_cast<std::size_t>(job.tasks) > config.num_nodes) {
      throw std::invalid_argument("run_consolidated: job task count out of range");
    }
    is_target[j] = job.target ? 1 : 0;
    job_tasks[j] = job.tasks;
    const auto k = static_cast<std::size_t>(job.tasks);
    const HawkTaskTimes task_time(job.mean_task_time, config.service_floor);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t pick =
          i + static_cast<std::size_t>(pick_rng.uniform_int(config.num_nodes - i));
      std::swap(perm[i], perm[pick]);
      nodes[perm[i]].submit_task_explicit(t, task_time(service_rng.next_u64()),
                                          j, on_done);
    }
    result.total_tasks += k;
  }
  for (auto& node : nodes) node.flush(on_done);

  for (std::uint64_t j = warmup; j < total; ++j) {
    if (!is_target[j]) continue;
    result.target_responses.push_back(completion_max[j] - arrivals[j]);
    result.target_ks.push_back(static_cast<int>(job_tasks[j]));
  }
  ReplayMetrics::get().runs.add(1);
  return result;
}

}  // namespace forktail::fjsim
