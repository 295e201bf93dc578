// One-shot scenario execution: simulate a spec, measure its tail, evaluate
// the requested predictors -- the engine behind `forktail run`.
#pragma once

#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "util/json.hpp"

namespace forktail::scenario {

/// One predictor's answers across the requested percentiles (parallel to
/// ScenarioReport::percentiles).
struct PredictionRow {
  std::string predictor;
  std::vector<double> predicted_ms;
  std::vector<double> error_pct;  ///< 100 * (pred - measured) / measured
  /// Whether each prediction lies inside the certified bracket for its
  /// percentile.  Always true when no bracket is certified (an uncertified
  /// bracket constrains nothing); a certified false flags a prediction
  /// that is provably wrong, not merely far from the sample estimate.
  std::vector<bool> in_bracket;
};

struct ScenarioReport {
  Outcome outcome;                 ///< outcome.spec is the executed spec
  std::vector<double> percentiles; ///< requested p values (in (0, 100))
  std::vector<double> measured_ms; ///< simulated percentiles, same order
  /// Certified [lower, upper] percentile brackets from the linear-bounds
  /// baseline, parallel to `percentiles`.  Sentinel (0, +inf, certified
  /// false) entries when the scenario is outside the certified regime.
  std::vector<baselines::Bracket> brackets;
  std::vector<PredictionRow> predictions;

  /// Degraded-mode confidence flag: true when the fault-aware predictor
  /// had to fall back on any approximation (thin/missing telemetry,
  /// defective completion mass); always false for fault-free scenarios.
  bool degraded = false;
  std::vector<std::string> degraded_reasons;
};

/// Simulate `spec` through the simulator registry, measure `percentiles`
/// of the response sample, and evaluate `predictors` (a list of registry
/// names; the single entry "all" selects every applicable model; an empty
/// list selects none).  Throws fjsim::ConfigError for invalid specs and
/// std::invalid_argument for unknown or inapplicable predictor names.
ScenarioReport run_scenario(const ScenarioSpec& spec,
                            const std::vector<std::string>& predictors,
                            const std::vector<double>& percentiles);

/// Serialize a report (forktail.scenario_report.v1): the spec, sample
/// counts and the replay engine that ran ("simulation"), measured
/// percentiles, and each predictor's values and errors.
util::Json to_json(const ScenarioReport& report);

}  // namespace forktail::scenario
