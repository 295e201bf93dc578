#include "fjsim/pipeline.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "fjsim/replay.hpp"
#include "fjsim/telemetry.hpp"
#include "fjsim/vector_engine.hpp"

namespace forktail::fjsim {

double checked_lambda(const PipelineConfig& config) {
  if (config.stages.empty()) {
    throw std::invalid_argument("run_pipeline: no stages");
  }
  double slowest_mean = 0.0;
  for (const auto& stage : config.stages) {
    if (stage.num_nodes == 0 || !stage.service) {
      throw std::invalid_argument("run_pipeline: invalid stage");
    }
    slowest_mean = std::max(slowest_mean, stage.service->mean());
  }
  if (!(config.load > 0.0 && config.load < 1.0)) {
    throw std::invalid_argument("run_pipeline: load must be in (0,1)");
  }
  return config.load / slowest_mean;
}

PipelineResult run_pipeline(const PipelineConfig& config) {
  if (config.engine == Engine::kVector) return run_pipeline_vector(config);
  const std::size_t batch = resolve_batch(config.batch);
  return run_pipeline(config, [batch](const dist::Distribution& service,
                                      util::Rng rng,
                                      std::span<const double> arrivals,
                                      StageSink& sink) {
    LindleyState state(&service, 1, rng);
    std::vector<double> demands(batch);
    for (std::size_t t0 = 0; t0 < arrivals.size(); t0 += batch) {
      const std::size_t len = std::min(batch, arrivals.size() - t0);
      state.replay_tile(arrivals.subspan(t0, len), t0, {demands.data(), len},
                        sink);
    }
  });
}

PipelineResult run_pipeline(const PipelineConfig& config,
                            const StageNodeReplay& replay) {
  const obs::ScopedSpan run_span(ReplayMetrics::get().run_seconds);
  const double lambda = checked_lambda(config);
  util::Rng master(config.seed);

  const std::uint64_t warmup =
      warmup_requests(config.warmup_fraction, config.num_requests);
  const std::uint64_t total = warmup + config.num_requests;

  // Initial (stage-0) arrivals: Poisson, already time-ordered.
  const std::vector<double> origin =
      poisson_arrivals(master.split(0), lambda, total);

  PipelineResult result;
  result.lambda = lambda;
  result.stage_task_stats.resize(config.stages.size());
  result.stage_latency_stats.resize(config.stages.size());

  // `order[i]` is the request id of the i-th arrival at the current stage;
  // `arrivals[i]` its arrival time there (non-decreasing in i).
  std::vector<std::uint32_t> order(total);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<double> arrivals = origin;
  std::vector<double> completion(total);

  for (std::size_t s = 0; s < config.stages.size(); ++s) {
    const PipelineStageConfig& stage = config.stages[s];
    auto& task_stats = result.stage_task_stats[s];
    auto& latency_stats = result.stage_latency_stats[s];

    // Node-major replay over this stage's nodes against the (sorted)
    // arrival sequence; completions land per arrival index.  Unlike the
    // homogeneous runner the per-task Welford is SHARED across the stage's
    // nodes, so each node replays the whole sequence before the next
    // starts, which fixes the accumulation order.
    std::fill(completion.begin(), completion.end(), 0.0);
    StageSink sink{order, warmup, task_stats, completion};
    for (std::size_t n = 0; n < stage.num_nodes; ++n) {
      replay(*stage.service, master.split(1000 * (s + 1) + n), arrivals, sink);
    }
    for (std::uint64_t i = 0; i < total; ++i) {
      if (order[i] >= warmup) {
        latency_stats.add(completion[i] - arrivals[i]);
      }
    }

    // The next stage sees requests in completion-time order.
    std::vector<std::uint32_t> idx(total);
    std::iota(idx.begin(), idx.end(), 0u);
    std::sort(idx.begin(), idx.end(), [&](std::uint32_t a, std::uint32_t b) {
      return completion[a] < completion[b];
    });
    std::vector<std::uint32_t> next_order(total);
    std::vector<double> next_arrivals(total);
    for (std::uint64_t i = 0; i < total; ++i) {
      next_order[i] = order[idx[i]];
      next_arrivals[i] = completion[idx[i]];
    }
    order = std::move(next_order);
    arrivals = std::move(next_arrivals);
  }

  // End-to-end latency: final completion time minus the original arrival.
  result.responses.reserve(config.num_requests);
  std::vector<double> final_completion(total);
  for (std::uint64_t i = 0; i < total; ++i) {
    final_completion[order[i]] = arrivals[i];
  }
  for (std::uint64_t req = warmup; req < total; ++req) {
    result.responses.push_back(final_completion[req] - origin[req]);
  }
  ReplayMetrics::get().runs.add(1);
  return result;
}

}  // namespace forktail::fjsim
