#include "scenario/registry.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "baselines/eat.hpp"
#include "baselines/expfit.hpp"
#include "baselines/linear_bounds.hpp"
#include "core/evt.hpp"
#include "fjsim/consolidated.hpp"
#include "fjsim/heterogeneous.hpp"
#include "fjsim/homogeneous.hpp"
#include "fjsim/perfect_sampler.hpp"
#include "fjsim/pipeline.hpp"
#include "fjsim/subset.hpp"

namespace forktail::scenario {

namespace {

core::TaskStats to_task_stats(const stats::Welford& w) {
  return core::TaskStats{w.mean(), w.variance()};
}

/// Shared by the homogeneous and subset simulators: exact-stationary
/// responses from the certified CFTP sampler instead of warm-up + replay.
Outcome run_perfect_sampler(const ScenarioSpec& spec) {
  const fjsim::PerfectSamplerConfig config = to_perfect_config(spec);
  auto result = fjsim::run_perfect(config);
  Outcome outcome;
  outcome.spec = spec;
  outcome.service = config.service;
  outcome.responses = std::move(result.responses);
  outcome.task_stats = to_task_stats(result.task_stats);
  for (const stats::Welford& batch : result.batch_task_stats) {
    if (batch.count() > 0) {
      outcome.batch_task_stats.push_back(to_task_stats(batch));
    }
  }
  outcome.lambda = result.lambda;
  outcome.mean_k = result.mean_k;
  outcome.total_tasks = result.total_tasks;
  outcome.engine = config.engine;
  return outcome;
}

// ------------------------------------------------------------- simulators

Outcome simulate_homogeneous(const ScenarioSpec& spec) {
  if (spec.sampler == Sampler::kPerfect) return run_perfect_sampler(spec);
  const fjsim::HomogeneousConfig config = to_homogeneous_config(spec);
  Outcome outcome;
  outcome.spec = spec;
  outcome.service = config.service;
  outcome.mean_k = static_cast<double>(spec.nodes);
  if (!spec.faults.inert()) {
    // Active fault plan: the mitigated engine.  Inert plans stay on the
    // unmodified replay below, so fault-free runs are bit-identical to
    // the pre-fault-layer engine.
    auto result = fault::run_mitigated_homogeneous(config, spec.faults);
    outcome.responses = std::move(result.responses);
    outcome.task_stats = to_task_stats(result.task_stats);
    outcome.lambda = result.lambda;
    outcome.total_tasks = result.total_tasks;
    outcome.faulty = true;
    outcome.attempt_stats = to_task_stats(result.attempt_stats);
    outcome.attempt_count = result.attempt_stats.count();
    outcome.hedge_stats = to_task_stats(result.hedge_stats);
    outcome.hedge_count = result.hedge_stats.count();
    outcome.hedge_delay = result.hedge_delay;
    outcome.fault_counters = result.counters;
    return outcome;
  }
  auto result = fjsim::run_homogeneous(config);
  outcome.responses = std::move(result.responses);
  outcome.task_stats = to_task_stats(result.task_stats);
  outcome.lambda = result.lambda;
  outcome.total_tasks = result.total_tasks;
  outcome.engine = config.engine;
  return outcome;
}

Outcome simulate_heterogeneous(const ScenarioSpec& spec) {
  const fjsim::HeterogeneousConfig config = to_heterogeneous_config(spec);
  auto result = fjsim::run_heterogeneous(config);
  Outcome outcome;
  outcome.spec = spec;
  outcome.responses = std::move(result.responses);
  outcome.node_stats.reserve(result.node_stats.size());
  for (const stats::Welford& node : result.node_stats) {
    outcome.node_stats.push_back(to_task_stats(node));
  }
  outcome.lambda = result.lambda;
  outcome.mean_k = static_cast<double>(spec.nodes);
  outcome.total_tasks =
      spec.requests * static_cast<std::uint64_t>(spec.nodes);
  outcome.engine = config.engine;
  return outcome;
}

Outcome simulate_subset(const ScenarioSpec& spec) {
  if (spec.sampler == Sampler::kPerfect) return run_perfect_sampler(spec);
  const fjsim::SubsetConfig config = to_subset_config(spec);
  auto result = fjsim::run_subset(config);
  Outcome outcome;
  outcome.spec = spec;
  outcome.responses = std::move(result.responses);
  outcome.task_stats = to_task_stats(result.task_stats);
  outcome.responses_by_k = std::move(result.responses_by_k);
  outcome.service = config.service;
  outcome.lambda = result.lambda;
  outcome.mean_k = result.mean_k;
  outcome.total_tasks = result.total_tasks;
  outcome.engine = config.engine;
  if (spec.faults.mitigation.early_k > 0) {
    // Early return is aggregation-only: tasks run unchanged, so the
    // pooled task moments double as the attempt telemetry.  Redundancy-d
    // also sets the engine's early_k (min-of-d), but it is a topology
    // choice, not a mitigation -- its outcomes stay clean.
    outcome.faulty = true;
    outcome.attempt_stats = outcome.task_stats;
    outcome.attempt_count = result.task_stats.count();
  }
  return outcome;
}

Outcome simulate_consolidated(const ScenarioSpec& spec) {
  const fjsim::ConsolidatedConfig config = to_consolidated_config(spec);
  auto result = fjsim::run_consolidated(config);
  Outcome outcome;
  outcome.spec = spec;
  outcome.responses = std::move(result.target_responses);
  outcome.task_stats = to_task_stats(result.target_task_stats);
  outcome.lambda = result.lambda;
  outcome.mean_k = static_cast<double>(spec.workload.target_tasks);
  outcome.total_tasks = result.total_tasks;
  return outcome;
}

Outcome simulate_pipeline(const ScenarioSpec& spec) {
  const fjsim::PipelineConfig config = to_pipeline_config(spec);
  auto result = fjsim::run_pipeline(config);
  Outcome outcome;
  outcome.spec = spec;
  outcome.responses = std::move(result.responses);
  outcome.stage_stats.reserve(result.stage_task_stats.size());
  double mean_k = 0.0;
  for (std::size_t i = 0; i < result.stage_task_stats.size(); ++i) {
    core::StageSpec stage;
    stage.name = "stage-" + std::to_string(i);
    stage.tasks = to_task_stats(result.stage_task_stats[i]);
    stage.fanout = static_cast<double>(spec.stages[i].nodes);
    mean_k += stage.fanout;
    outcome.stage_stats.push_back(std::move(stage));
  }
  outcome.lambda = result.lambda;
  outcome.mean_k = mean_k;
  outcome.total_tasks =
      spec.requests * static_cast<std::uint64_t>(mean_k);
  outcome.engine = config.engine;
  return outcome;
}

// ------------------------------------------------------------- predictors

/// True for the topologies whose outcome carries pooled task moments and a
/// single fan-out (the inputs of the homogeneous family of models).
bool pooled_stats_available(const Outcome& outcome) {
  switch (outcome.spec.topology) {
    case Topology::kHomogeneous:
    case Topology::kSubset:
    case Topology::kConsolidated:
      return true;
    case Topology::kHeterogeneous:
    case Topology::kPipeline:
      return false;
  }
  return false;
}

/// True when each fork node is one FIFO server (replicas == 1, policy
/// "single"): the M/G/1 structure the white-box models need.
bool single_server_fifo(const ScenarioSpec& spec) {
  return spec.group.replicas == 1 &&
         spec.group.policy == fjsim::Policy::kSingle;
}

core::TaskCountMixture mixture_for(const Outcome& outcome) {
  return core::TaskCountMixture::uniform_int(outcome.spec.k.lo,
                                             outcome.spec.k.hi);
}

/// "forktail": the paper's model for the outcome's topology.
class ForkTailAutoPredictor final : public Predictor {
 public:
  std::string name() const override { return "forktail"; }
  bool applicable(const Outcome&) const override { return true; }

  double predict(const Outcome& outcome, double p) const override {
    switch (outcome.spec.topology) {
      case Topology::kHomogeneous:
        return core::homogeneous_quantile(outcome.task_stats, outcome.mean_k, p);
      case Topology::kHeterogeneous:
        return core::inhomogeneous_quantile(outcome.node_stats, p);
      case Topology::kSubset:
        if (outcome.spec.k.mode == KSpec::Mode::kUniform) {
          return core::mixture_quantile(outcome.task_stats, mixture_for(outcome), p);
        }
        if (outcome.spec.k.mode == KSpec::Mode::kRedundant) {
          return core::redundancy_quantile(
              outcome.task_stats, static_cast<double>(outcome.spec.k.fixed), p);
        }
        return core::homogeneous_quantile(
            outcome.task_stats, static_cast<double>(outcome.spec.k.fixed), p);
      case Topology::kConsolidated:
        return core::homogeneous_quantile(
            outcome.task_stats,
            static_cast<double>(outcome.spec.workload.target_tasks), p);
      case Topology::kPipeline:
        return core::PipelinePredictor(outcome.stage_stats).quantile(p);
    }
    throw std::logic_error("forktail predictor: unhandled topology");
  }
};

class HomogeneousPredictor final : public Predictor {
 public:
  std::string name() const override { return "homogeneous"; }
  bool applicable(const Outcome& outcome) const override {
    return pooled_stats_available(outcome);
  }
  double predict(const Outcome& outcome, double p) const override {
    return core::homogeneous_quantile(outcome.task_stats, outcome.mean_k, p);
  }
};

class InhomogeneousPredictor final : public Predictor {
 public:
  std::string name() const override { return "inhomogeneous"; }
  bool applicable(const Outcome& outcome) const override {
    return !outcome.node_stats.empty();
  }
  double predict(const Outcome& outcome, double p) const override {
    return core::inhomogeneous_quantile(outcome.node_stats, p);
  }
};

class MixturePredictor final : public Predictor {
 public:
  std::string name() const override { return "mixture"; }
  bool applicable(const Outcome& outcome) const override {
    return outcome.spec.topology == Topology::kSubset &&
           outcome.spec.k.mode == KSpec::Mode::kUniform;
  }
  double predict(const Outcome& outcome, double p) const override {
    return core::mixture_quantile(outcome.task_stats, mixture_for(outcome), p);
  }
};

class PipelineStagePredictor final : public Predictor {
 public:
  std::string name() const override { return "pipeline"; }
  bool applicable(const Outcome& outcome) const override {
    return !outcome.stage_stats.empty();
  }
  double predict(const Outcome& outcome, double p) const override {
    return core::PipelinePredictor(outcome.stage_stats).quantile(p);
  }
};

/// White-box M/G/1 (Eqs. 10-11): needs the service distribution and the
/// single-server M/G/1 structure (one server per node, no replication).
class WhiteboxMg1Predictor final : public Predictor {
 public:
  std::string name() const override { return "whitebox-mg1"; }
  bool applicable(const Outcome& outcome) const override {
    // E[S^2] must be finite for the sojourn mean to exist at all; services
    // declaring fewer finite moments (tail index <= 2) are out of scope.
    // Degradation PAST that point (infinite E[S^3]) is handled inside the
    // model, which substitutes an exponential surrogate for the variance.
    return outcome.spec.topology == Topology::kHomogeneous &&
           outcome.service != nullptr && single_server_fifo(outcome.spec) &&
           outcome.service->capabilities().moment_finite(2);
  }
  double predict(const Outcome& outcome, double p) const override {
    return core::whitebox_mg1_quantile(outcome.lambda, *outcome.service,
                                       outcome.mean_k, p);
  }
};

/// "evt": extreme-value correction for heavy-tailed services.  Selects the
/// Gumbel or Frechet branch from the service tail capability, so on light
/// tails it coincides with the plain ForkTail max quantile.
class EvtPredictor final : public Predictor {
 public:
  std::string name() const override { return "evt"; }
  bool applicable(const Outcome& outcome) const override {
    // Needs pooled task moments, the white-box service (for its declared
    // tail capability), and a per-node M/G/1 structure.  Redundancy-d is a
    // min, not a max -- out of scope.
    return pooled_stats_available(outcome) && outcome.service != nullptr &&
           outcome.lambda > 0.0 && single_server_fifo(outcome.spec) &&
           outcome.spec.k.mode != KSpec::Mode::kRedundant;
  }
  double predict(const Outcome& outcome, double p) const override {
    const double node_lambda = outcome.lambda * outcome.mean_k /
                               static_cast<double>(outcome.spec.nodes);
    return core::evt_max_quantile(outcome.task_stats, outcome.mean_k, p,
                                  node_lambda, *outcome.service)
        .value;
  }
};

/// "expfit": the authors' earlier plain-exponential model (HotCloud'16),
/// fed the measured mean only.
class ExpFitPredictor final : public Predictor {
 public:
  std::string name() const override { return "expfit"; }
  bool applicable(const Outcome& outcome) const override {
    return outcome.task_stats.mean > 0.0;
  }
  double predict(const Outcome& outcome, double p) const override {
    return baselines::exponential_fit_quantile(outcome.task_stats,
                                               outcome.mean_k, p);
  }
};

/// "eat" (Qiu, Perez & Harrison): exact M/PH/1 marginal + copula max.
/// Needs the k = N homogeneous structure, single-server FIFO nodes, and a
/// service with an LST.
class EatModelPredictor final : public Predictor {
 public:
  std::string name() const override { return "eat"; }
  bool applicable(const Outcome& outcome) const override {
    return outcome.spec.topology == Topology::kHomogeneous &&
           single_server_fifo(outcome.spec) && outcome.service != nullptr &&
           outcome.service->has_lst();
  }
  double predict(const Outcome& outcome, double p) const override {
    return make(outcome).quantile(p);
  }
  // The constructor's calibration is nearly all of EAT's cost and does not
  // depend on the percentile: build it once.
  std::vector<double> predict_many(
      const Outcome& outcome,
      std::span<const double> percentiles) const override {
    const baselines::EatPredictor eat = make(outcome);
    std::vector<double> out;
    out.reserve(percentiles.size());
    for (const double p : percentiles) out.push_back(eat.quantile(p));
    return out;
  }

 private:
  static baselines::EatPredictor make(const Outcome& outcome) {
    return baselines::EatPredictor(outcome.lambda, outcome.service,
                                   outcome.spec.nodes);
  }
};

/// "linear-bounds": the upper edge of the certified bracket (the SLO-safe
/// one), wherever a certified bracket exists.
class LinearBoundsPredictor final : public Predictor {
 public:
  std::string name() const override { return "linear-bounds"; }
  bool applicable(const Outcome& outcome) const override {
    return baselines::linear_bounds_applicable(baseline_input(outcome));
  }
  double predict(const Outcome& outcome, double p) const override {
    return baselines::linear_bounds_bracket(baseline_input(outcome), p).upper;
  }
};

/// Degraded-mode model: GE order statistics composed with the retry /
/// hedge / k-of-n transforms (fault/predict.hpp), fed by the outcome's
/// counterfactual attempt and hedge telemetry.  Only meaningful for
/// outcomes produced under an active fault plan.
class DegradedPredictor final : public Predictor {
 public:
  std::string name() const override { return "forktail-degraded"; }
  bool applicable(const Outcome& outcome) const override {
    return outcome.faulty;
  }
  double predict(const Outcome& outcome, double p) const override {
    return predict_degraded(outcome, p).value;
  }
};

}  // namespace

baselines::BaselineInput baseline_input(const Outcome& outcome) {
  const ScenarioSpec& spec = outcome.spec;
  baselines::BaselineInput in;
  in.service = outcome.service;
  in.lambda = outcome.lambda;
  in.cluster_nodes = spec.nodes;
  in.mean_fanout = outcome.mean_k;
  in.single_server_fifo = single_server_fifo(spec);
  in.homogeneous_topology = spec.topology == Topology::kHomogeneous;
  switch (spec.topology) {
    case Topology::kHomogeneous:
      in.fanout = static_cast<int>(spec.nodes);
      in.join = in.fanout;
      // Active fault plans reshape the engine (retries, hedges, early
      // return); no certified (n, k) claim is made for them.
      in.nk_clean = in.single_server_fifo && spec.faults.inert();
      break;
    case Topology::kSubset: {
      // Early return at k maps exactly onto the (n, k) join index; the
      // subset validator admits no other fault knob, so the system stays a
      // clean fork-join queue.
      const int early = spec.faults.mitigation.early_k;
      if (spec.k.mode == KSpec::Mode::kUniform) {
        in.k_lo = spec.k.lo;
        in.k_hi = spec.k.hi;
        in.fanout = static_cast<int>(std::llround(outcome.mean_k));
        in.join = early > 0 ? early : in.fanout;
      } else if (spec.k.mode == KSpec::Mode::kRedundant) {
        // Min-of-d replication: issue d, join at the first finisher.
        in.fanout = spec.k.fixed;
        in.join = 1;
      } else {
        in.fanout = spec.k.fixed;
        in.join = early > 0 ? early : spec.k.fixed;
      }
      in.nk_clean = in.single_server_fifo;
      break;
    }
    case Topology::kConsolidated:
      in.fanout = static_cast<int>(spec.workload.target_tasks);
      in.join = in.fanout;
      in.nk_clean = false;  // shared cluster, non-Poisson per-node arrivals
      break;
    case Topology::kHeterogeneous:
    case Topology::kPipeline:
      in.nk_clean = false;
      break;
  }
  return in;
}

baselines::Bracket certified_bracket(const Outcome& outcome,
                                     double percentile) {
  const baselines::BaselineInput in = baseline_input(outcome);
  if (!baselines::linear_bounds_applicable(in)) {
    return baselines::Bracket{0.0,
                              std::numeric_limits<double>::infinity(), false};
  }
  return baselines::linear_bounds_bracket(in, percentile);
}

fault::DegradedPrediction predict_degraded(const Outcome& outcome,
                                           double percentile) {
  if (!outcome.faulty) {
    throw std::logic_error(
        "predict_degraded: outcome was not produced under a fault plan");
  }
  fault::MitigatedStats stats;
  stats.attempt_mean = outcome.attempt_stats.mean;
  stats.attempt_variance = outcome.attempt_stats.variance;
  stats.attempt_count = outcome.attempt_count;
  stats.hedge_mean = outcome.hedge_stats.mean;
  stats.hedge_variance = outcome.hedge_stats.variance;
  stats.hedge_count = outcome.hedge_count;
  stats.hedge_delay = outcome.hedge_delay;
  const int fanout = static_cast<int>(std::llround(outcome.mean_k));
  return fault::predict_mitigated(stats, outcome.spec.faults.mitigation,
                                  fanout, percentile / 100.0);
}

// -------------------------------------------------------------- registries

SimulatorRegistry& SimulatorRegistry::global() {
  static SimulatorRegistry registry;
  return registry;
}

Outcome SimulatorRegistry::run(const ScenarioSpec& spec) const {
  validate(spec);
  switch (spec.topology) {
    case Topology::kHomogeneous:
      return simulate_homogeneous(spec);
    case Topology::kHeterogeneous:
      return simulate_heterogeneous(spec);
    case Topology::kSubset:
      return simulate_subset(spec);
    case Topology::kConsolidated:
      return simulate_consolidated(spec);
    case Topology::kPipeline:
      return simulate_pipeline(spec);
  }
  throw std::logic_error("no simulator for topology " +
                         topology_name(spec.topology));
}

PredictorRegistry::PredictorRegistry() {
  predictors_.push_back(std::make_unique<ForkTailAutoPredictor>());
  predictors_.push_back(std::make_unique<HomogeneousPredictor>());
  predictors_.push_back(std::make_unique<InhomogeneousPredictor>());
  predictors_.push_back(std::make_unique<MixturePredictor>());
  predictors_.push_back(std::make_unique<PipelineStagePredictor>());
  predictors_.push_back(std::make_unique<WhiteboxMg1Predictor>());
  predictors_.push_back(std::make_unique<EvtPredictor>());
  predictors_.push_back(std::make_unique<ExpFitPredictor>());
  predictors_.push_back(std::make_unique<EatModelPredictor>());
  predictors_.push_back(std::make_unique<LinearBoundsPredictor>());
  predictors_.push_back(std::make_unique<DegradedPredictor>());
}

PredictorRegistry& PredictorRegistry::global() {
  static PredictorRegistry* registry = new PredictorRegistry;
  return *registry;
}

const Predictor* PredictorRegistry::find(const std::string& name) const {
  for (const auto& p : predictors_) {
    if (p->name() == name) return p.get();
  }
  return nullptr;
}

std::vector<std::string> PredictorRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(predictors_.size());
  for (const auto& p : predictors_) out.push_back(p->name());
  return out;
}

std::vector<const Predictor*> PredictorRegistry::applicable(
    const Outcome& outcome) const {
  std::vector<const Predictor*> out;
  for (const auto& p : predictors_) {
    if (p->applicable(outcome)) out.push_back(p.get());
  }
  return out;
}

}  // namespace forktail::scenario
