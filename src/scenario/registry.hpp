// Simulator and predictor registries: the dispatch half of the scenario
// layer.
//
// A ScenarioSpec names a topology; the SimulatorRegistry maps it to the
// fjsim engine that simulates it and normalises the engine's result into a
// single Outcome shape (responses + black-box task moments).  The
// PredictorRegistry maps model names (the paper's predictors plus the
// baselines) onto Outcomes, so a (spec, predictor, percentiles) triple
// fully describes one experiment cell and `forktail run --predict all`
// can evaluate every applicable model in one pass.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baselines/baseline.hpp"
#include "core/pipeline.hpp"
#include "core/predictor.hpp"
#include "dist/distribution.hpp"
#include "fault/predict.hpp"
#include "fault/sim.hpp"
#include "fjsim/config.hpp"
#include "scenario/spec.hpp"

namespace forktail::scenario {

/// Normalised result of simulating one spec: everything any predictor in
/// the roster consumes, regardless of which engine produced it.
struct Outcome {
  ScenarioSpec spec;  ///< the spec that produced this outcome

  std::vector<double> responses;  ///< measured request/job response times
  core::TaskStats task_stats;     ///< pooled black-box task moments
  /// Perfect sampler only: task_stats of each batch of consecutive draws
  /// (independent replicates; fjsim::kPerfectBatches), empty batches left
  /// out.  Their spread is the sampling noise of task_stats.
  std::vector<core::TaskStats> batch_task_stats;
  /// Heterogeneous: one (mean, variance) per fork node (Eq. 4/5 inputs).
  std::vector<core::TaskStats> node_stats;
  /// Pipeline: per-stage black-box moments + fan-out (PipelinePredictor
  /// inputs).
  std::vector<core::StageSpec> stage_stats;
  /// Subset with group_by_k: measured responses bucketed by the request's k.
  std::map<int, std::vector<double>> responses_by_k;

  dist::DistPtr service;  ///< shared service distribution (when one exists)
  double lambda = 0.0;    ///< request/job arrival rate the engine derived
  double mean_k = 0.0;    ///< expected fan-out per request
  std::uint64_t total_tasks = 0;
  /// Replay engine that produced the responses: the one the spec's config
  /// selected (see to_homogeneous_config and to_perfect_config), kLegacy
  /// for the fault and consolidated simulators.
  fjsim::Engine engine = fjsim::Engine::kLegacy;

  // Fault layer (spec.faults non-inert; src/fault).  `faulty` marks an
  // outcome produced under an active FaultPlan; the telemetry below feeds
  // the degraded-mode predictor and the RunReport counters.
  bool faulty = false;
  core::TaskStats attempt_stats;  ///< counterfactual primary-attempt moments
  std::uint64_t attempt_count = 0;
  core::TaskStats hedge_stats;    ///< counterfactual hedge-lane moments
  std::uint64_t hedge_count = 0;
  double hedge_delay = 0.0;       ///< hedge launch delay in force
  fault::FaultCounters fault_counters;
};

/// Topology -> engine dispatch over the five fjsim engines.
class SimulatorRegistry {
 public:
  static SimulatorRegistry& global();

  /// validate(spec) then run the engine for spec.topology.
  Outcome run(const ScenarioSpec& spec) const;
};

/// One tail-latency model evaluated on an Outcome.
class Predictor {
 public:
  virtual ~Predictor() = default;
  virtual std::string name() const = 0;
  /// Whether this model can run on the outcome (e.g. the white-box M/G/1
  /// needs a known service distribution; EAT additionally needs its LST).
  virtual bool applicable(const Outcome& outcome) const = 0;
  /// Predicted p-th percentile (ms) of the request response time.
  virtual double predict(const Outcome& outcome, double percentile) const = 0;
  /// predict() at each of `percentiles`, in order (run_scenario's entry
  /// point).  Default: one predict() per percentile.
  virtual std::vector<double> predict_many(
      const Outcome& outcome, std::span<const double> percentiles) const {
    std::vector<double> out;
    out.reserve(percentiles.size());
    for (const double p : percentiles) out.push_back(predict(outcome, p));
    return out;
  }
};

/// Evaluate the degraded-mode predictor (fault/predict.hpp) on a faulty
/// outcome: the full prediction including the `degraded` flag and the
/// fallback reasons the plain Predictor interface cannot surface.
/// `percentile` in (0, 100).  Requires outcome.faulty.
fault::DegradedPrediction predict_degraded(const Outcome& outcome,
                                           double percentile);

/// Normalise an Outcome into the shape the linear-transformation bounds
/// consume: the (n, k) fork-join structure (homogeneous: (N, N); subset:
/// (k, early_k | k); uniform-k mixtures carry their range), the service
/// and arrival rate, and the structural flags their applicability gate
/// checks.
baselines::BaselineInput baseline_input(const Outcome& outcome);

/// The certified [lower, upper] bracket for the outcome's percentile from
/// the linear-transformation bounds, or a nullopt-style uncertified
/// sentinel (lower 0, upper +inf, certified false) when they do not apply
/// (dirty topology, heavy-tailed service, ...).
baselines::Bracket certified_bracket(const Outcome& outcome,
                                     double percentile);

/// Name -> model dispatch, the one roster of tail-latency models: the
/// ForkTail predictors (homogeneous / inhomogeneous / mixture / pipeline /
/// white-box M/G/1 / evt), the baselines (expfit, EAT, the certified
/// linear-bounds upper edge), the degraded-mode model, and "forktail",
/// which picks the paper's model for the outcome's topology.
class PredictorRegistry {
 public:
  static PredictorRegistry& global();

  /// nullptr when unknown.
  const Predictor* find(const std::string& name) const;
  std::vector<std::string> names() const;
  std::vector<const Predictor*> applicable(const Outcome& outcome) const;

 private:
  PredictorRegistry();  ///< builds the fixed roster

  std::vector<std::unique_ptr<Predictor>> predictors_;
};

}  // namespace forktail::scenario
