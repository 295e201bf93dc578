// Multi-stage fork-join workflow simulator: a request passes through a
// sequence of fork-join stages; at each stage it forks one task to every
// node of that stage (k = N within the stage) and proceeds to the next
// stage when the slowest task completes.
//
// Ground truth for core::PipelinePredictor: downstream stages see the
// (correlated, non-Poisson) completion process of their predecessor, which
// is exactly the approximation error the predictor's stage-independence
// assumption incurs.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "dist/distribution.hpp"
#include "fjsim/config.hpp"
#include "stats/welford.hpp"
#include "util/rng.hpp"

namespace forktail::fjsim {

struct PipelineStageConfig {
  std::size_t num_nodes = 8;
  dist::DistPtr service;
};

struct PipelineConfig {
  std::vector<PipelineStageConfig> stages;
  /// Target utilization of the busiest stage; the request rate is
  /// lambda = load / max_s E[S_s] (every stage serves every request).
  double load = 0.8;
  std::uint64_t num_requests = 10000;  ///< measured (post warm-up)
  double warmup_fraction = 0.25;
  std::uint64_t seed = 1;
  /// Service-demand tile size: 0 = default, else an explicit tile size
  /// (see HomogeneousConfig::batch).  Bit-identical for every value.
  std::size_t batch = 0;
  /// Replay implementation (see fjsim/config.hpp::Engine).
  Engine engine = Engine::kLegacy;
  /// Upper bound on worker parallelism for the vector engine's per-stage
  /// node sharding; 0 = pool width, 1 = inline.  Results are bit-identical
  /// for every value.  The legacy engine replays serially and ignores it.
  std::size_t max_parallelism = 0;
};

struct PipelineResult {
  std::vector<double> responses;  ///< measured end-to-end latencies
  /// Pooled per-task response moments per stage (the black-box inputs the
  /// predictor would measure).
  std::vector<stats::Welford> stage_task_stats;
  /// Per-stage request-level latency moments (for breakdown validation).
  std::vector<stats::Welford> stage_latency_stats;
  double lambda = 0.0;
};

PipelineResult run_pipeline(const PipelineConfig& config);

/// Checks `config` for both engines (at least one stage, every stage with
/// nodes and a service, load in (0, 1)) and returns the arrival rate that
/// puts the slowest stage at `load`.  Throws std::invalid_argument.
double checked_lambda(const PipelineConfig& config);

/// Receives a stage node's task `i` (the stage's i-th arrival): measured
/// tasks go into the stage's pooled task moments, and every task raises the
/// arrival's completion max.
struct StageSink {
  std::span<const std::uint32_t> order;  ///< request id of each arrival
  std::uint64_t warmup;
  stats::Welford& task_stats;
  std::span<double> completion;

  void operator()(std::uint64_t i, double arrival, double done) {
    if (order[i] >= warmup) task_stats.add(done - arrival);
    if (done > completion[i]) completion[i] = done;
  }
};

/// Replays one single-server stage node (`service` drawn on `rng`) against
/// the stage's time-ordered arrivals, reporting each task to `sink`.
using StageNodeReplay =
    std::function<void(const dist::Distribution& service, util::Rng rng,
                       std::span<const double> arrivals, StageSink& sink)>;

/// The legacy engine with the per-node replay supplied; run_pipeline(config)
/// passes the tiled LindleyState replay at config.batch.
PipelineResult run_pipeline(const PipelineConfig& config,
                            const StageNodeReplay& replay);

}  // namespace forktail::fjsim
