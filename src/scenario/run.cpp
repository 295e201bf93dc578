#include "scenario/run.hpp"

#include <algorithm>
#include <stdexcept>

#include "stats/percentile.hpp"
#include "stats/summary.hpp"

namespace forktail::scenario {

ScenarioReport run_scenario(const ScenarioSpec& spec,
                            const std::vector<std::string>& predictors,
                            const std::vector<double>& percentiles) {
  for (const double p : percentiles) {
    if (!(p > 0.0 && p < 100.0)) {
      throw std::invalid_argument("percentile must be in (0, 100), got " +
                                  std::to_string(p));
    }
  }

  ScenarioReport report;
  report.outcome = SimulatorRegistry::global().run(spec);
  report.percentiles = percentiles;
  // Selection on a copy: bit-identical to the sort-based
  // stats::percentiles, without the O(n log n) sort.
  std::vector<double> responses = report.outcome.responses;
  report.measured_ms = stats::percentiles_inplace(responses, percentiles);
  for (const double p : percentiles) {
    report.brackets.push_back(certified_bracket(report.outcome, p));
  }

  const PredictorRegistry& registry = PredictorRegistry::global();
  std::vector<const Predictor*> selected;
  if (predictors.size() == 1 && predictors.front() == "all") {
    selected = registry.applicable(report.outcome);
  } else {
    for (const std::string& name : predictors) {
      const Predictor* predictor = registry.find(name);
      if (predictor == nullptr) {
        std::string known;
        for (const auto& n : registry.names()) {
          known += (known.empty() ? "" : " | ") + n;
        }
        throw std::invalid_argument("unknown predictor: " + name + " (want " +
                                    known + " | all)");
      }
      if (!predictor->applicable(report.outcome)) {
        throw std::invalid_argument(
            "predictor " + name + " is not applicable to a " +
            topology_name(spec.topology) + " scenario");
      }
      selected.push_back(predictor);
    }
  }

  for (const Predictor* predictor : selected) {
    PredictionRow row;
    row.predictor = predictor->name();
    row.predicted_ms = predictor->predict_many(report.outcome, percentiles);
    for (std::size_t i = 0; i < percentiles.size(); ++i) {
      const double predicted = row.predicted_ms[i];
      row.error_pct.push_back(
          stats::relative_error_pct(predicted, report.measured_ms[i]));
      const baselines::Bracket& bracket = report.brackets[i];
      row.in_bracket.push_back(!bracket.certified ||
                               bracket.contains(predicted));
    }
    report.predictions.push_back(std::move(row));
  }

  // Degraded-mode confidence: evaluated once at the most extreme requested
  // percentile (telemetry-quality fallbacks do not depend on p).  This is
  // report metadata, not a prediction row, so it is computed even when the
  // degraded predictor itself was not selected.
  if (report.outcome.faulty) {
    const double p = percentiles.empty()
                         ? 99.0
                         : *std::max_element(percentiles.begin(),
                                             percentiles.end());
    const fault::DegradedPrediction dp = predict_degraded(report.outcome, p);
    report.degraded = dp.degraded;
    report.degraded_reasons = dp.reasons;
  }
  return report;
}

util::Json to_json(const ScenarioReport& report) {
  util::Json doc = util::Json::object();
  doc.set("schema", "forktail.scenario_report.v1");
  doc.set("scenario", to_json(report.outcome.spec));

  util::Json sim = util::Json::object();
  sim.set("responses", report.outcome.responses.size());
  sim.set("lambda", report.outcome.lambda);
  sim.set("mean_k", report.outcome.mean_k);
  sim.set("total_tasks", report.outcome.total_tasks);
  sim.set("task_mean_ms", report.outcome.task_stats.mean);
  sim.set("task_variance", report.outcome.task_stats.variance);
  sim.set("engine", fjsim::engine_name(report.outcome.engine));
  doc.set("simulation", std::move(sim));

  util::Json percentiles = util::Json::array();
  for (std::size_t i = 0; i < report.percentiles.size(); ++i) {
    util::Json row = util::Json::object();
    row.set("p", report.percentiles[i]);
    row.set("measured_ms", report.measured_ms[i]);
    if (i < report.brackets.size() && report.brackets[i].certified) {
      row.set("lower_ms", report.brackets[i].lower);
      row.set("upper_ms", report.brackets[i].upper);
      row.set("certified", true);
    }
    percentiles.push_back(std::move(row));
  }
  doc.set("measured", std::move(percentiles));

  util::Json predictions = util::Json::array();
  for (const PredictionRow& row : report.predictions) {
    util::Json p = util::Json::object();
    p.set("predictor", row.predictor);
    util::Json values = util::Json::array();
    for (std::size_t i = 0; i < report.percentiles.size(); ++i) {
      util::Json cell = util::Json::object();
      cell.set("p", report.percentiles[i]);
      cell.set("predicted_ms", row.predicted_ms[i]);
      cell.set("error_pct", row.error_pct[i]);
      if (i < report.brackets.size() && report.brackets[i].certified) {
        cell.set("in_bracket",
                 i < row.in_bracket.size() && row.in_bracket[i]);
      }
      values.push_back(std::move(cell));
    }
    p.set("values", std::move(values));
    predictions.push_back(std::move(p));
  }
  doc.set("predictions", std::move(predictions));

  // Fault telemetry only for faulty outcomes: fault-free report documents
  // are byte-identical to the pre-fault-layer shape.
  if (report.outcome.faulty) {
    const fault::FaultCounters& c = report.outcome.fault_counters;
    util::Json fault = util::Json::object();
    fault.set("degraded", report.degraded);
    util::Json reasons = util::Json::array();
    for (const std::string& r : report.degraded_reasons) reasons.push_back(r);
    fault.set("degraded_reasons", std::move(reasons));
    fault.set("injected_crashes", c.crashes);
    fault.set("injected_slowdowns", c.slowdowns);
    fault.set("injected_blips", c.blips);
    fault.set("hedges_launched", c.hedges_launched);
    fault.set("hedges_won", c.hedges_won);
    fault.set("retries", c.retries);
    fault.set("timeouts", c.timeouts);
    fault.set("dropped_requests", c.dropped_requests);
    fault.set("hedge_delay_ms", report.outcome.hedge_delay);
    fault.set("attempt_mean_ms", report.outcome.attempt_stats.mean);
    fault.set("attempt_count", report.outcome.attempt_count);
    fault.set("hedge_count", report.outcome.hedge_count);
    doc.set("fault", std::move(fault));
  }
  return doc;
}

}  // namespace forktail::scenario
