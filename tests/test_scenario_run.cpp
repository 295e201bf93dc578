// Scenario execution tests: the declarative path must be the hand-wired
// path, exactly.
//
// The scenario layer moves construction and dispatch, not math -- so a
// spec run through SimulatorRegistry must produce bit-identical responses
// to the equivalent hand-assembled fjsim config, and run_scenario's
// predictions must equal calling the core predictors directly.  These
// tests pin that contract, plus the health of every tracked example
// scenario in examples/.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/evt.hpp"
#include "core/predictor.hpp"
#include "dist/factory.hpp"
#include "fjsim/config.hpp"
#include "fjsim/homogeneous.hpp"
#include "fjsim/subset.hpp"
#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "stats/percentile.hpp"
#include "util/json.hpp"

#ifndef FORKTAIL_SOURCE_DIR
#define FORKTAIL_SOURCE_DIR "."
#endif

namespace forktail {
namespace {

using scenario::KSpec;
using scenario::ScenarioSpec;
using scenario::Topology;

// ------------------------------------------- spec path == hand-wired path

TEST(ScenarioRun, HomogeneousSpecIsBitIdenticalToHandWiredConfig) {
  ScenarioSpec spec;
  spec.topology = Topology::kHomogeneous;
  spec.nodes = 16;
  spec.service.dist = "Weibull";
  spec.load = 0.8;
  spec.requests = 2000;
  spec.warmup_fraction = 0.25;
  spec.seed = 7;

  fjsim::HomogeneousConfig config;
  config.num_nodes = 16;
  config.service = dist::make_named("Weibull");
  config.load = 0.8;
  config.num_requests = 2000;
  config.warmup_fraction = 0.25;
  config.seed = 7;
  config.engine = fjsim::Engine::kVector;  // the scenario layer's pick
  const fjsim::HomogeneousResult direct = fjsim::run_homogeneous(config);

  const scenario::Outcome outcome =
      scenario::SimulatorRegistry::global().run(spec);
  EXPECT_EQ(outcome.engine, fjsim::Engine::kVector);
  EXPECT_EQ(outcome.responses, direct.responses);  // bitwise, not approximate
  EXPECT_EQ(outcome.lambda, direct.lambda);
  EXPECT_EQ(outcome.total_tasks, direct.total_tasks);
  EXPECT_EQ(outcome.task_stats.mean, direct.task_stats.mean());
  EXPECT_EQ(outcome.task_stats.variance, direct.task_stats.variance());
}

TEST(ScenarioRun, SubsetSpecIsBitIdenticalToHandWiredConfig) {
  ScenarioSpec spec;
  spec.topology = Topology::kSubset;
  spec.nodes = 64;
  spec.service.dist = "Exponential";
  spec.k.mode = KSpec::Mode::kUniform;
  spec.k.lo = 8;
  spec.k.hi = 32;
  spec.load = 0.75;
  spec.requests = 1500;
  spec.warmup_fraction = 0.25;
  spec.seed = 21;

  fjsim::SubsetConfig config;
  config.num_nodes = 64;
  config.service = dist::make_named("Exponential");
  config.k_mode = fjsim::KMode::kUniformInt;
  config.k_lo = 8;
  config.k_hi = 32;
  config.load = 0.75;
  config.num_requests = 1500;
  config.warmup_fraction = 0.25;
  config.seed = 21;
  config.engine = fjsim::Engine::kVector;  // the scenario layer's pick
  const fjsim::SubsetResult direct = fjsim::run_subset(config);

  const scenario::Outcome outcome =
      scenario::SimulatorRegistry::global().run(spec);
  EXPECT_EQ(outcome.engine, fjsim::Engine::kVector);
  EXPECT_EQ(outcome.responses, direct.responses);
  EXPECT_EQ(outcome.lambda, direct.lambda);
  EXPECT_EQ(outcome.mean_k, direct.mean_k);
}

TEST(ScenarioRun, PredictionsMatchDirectPredictorCalls) {
  ScenarioSpec spec;
  spec.topology = Topology::kHomogeneous;
  spec.nodes = 32;
  spec.load = 0.8;
  spec.requests = 2000;
  spec.seed = 3;

  const scenario::ScenarioReport report =
      scenario::run_scenario(spec, {"homogeneous"}, {95.0, 99.0});
  ASSERT_EQ(report.predictions.size(), 1u);
  ASSERT_EQ(report.predictions[0].predicted_ms.size(), 2u);

  // Measured percentiles come from the outcome's response sample ...
  const std::vector<double> ps = {95.0, 99.0};
  EXPECT_EQ(report.measured_ms, stats::percentiles(report.outcome.responses, ps));
  // ... and the prediction is exactly the core model on the outcome's
  // pooled moments (what the hand-wired benches compute).
  EXPECT_EQ(report.predictions[0].predicted_ms[1],
            core::homogeneous_quantile(report.outcome.task_stats, 32.0, 99.0));
}

TEST(ScenarioRun, PredictAllSelectsOnlyApplicableModels) {
  ScenarioSpec spec;
  spec.topology = Topology::kHomogeneous;
  spec.nodes = 8;
  spec.requests = 500;

  const scenario::ScenarioReport report =
      scenario::run_scenario(spec, {"all"}, {99.0});
  ASSERT_FALSE(report.predictions.empty());
  for (const scenario::PredictionRow& row : report.predictions) {
    // "mixture" and "pipeline" never apply to a homogeneous outcome.
    EXPECT_NE(row.predictor, "mixture");
    EXPECT_NE(row.predictor, "pipeline");
  }
}

TEST(ScenarioRun, UnknownOrInapplicablePredictorNamesThrow) {
  ScenarioSpec spec;
  spec.requests = 200;
  EXPECT_THROW(scenario::run_scenario(spec, {"nonsense"}, {99.0}),
               std::invalid_argument);
  // "mixture" exists but needs a uniform-k subset outcome.
  EXPECT_THROW(scenario::run_scenario(spec, {"mixture"}, {99.0}),
               std::invalid_argument);
  EXPECT_THROW(scenario::run_scenario(spec, {"homogeneous"}, {0.0}),
               std::invalid_argument);
}

TEST(ScenarioRun, ReportSerializesWithStableSchema) {
  ScenarioSpec spec;
  spec.name = "report-schema";
  spec.requests = 300;
  const scenario::ScenarioReport report =
      scenario::run_scenario(spec, {"forktail"}, {99.0});
  const util::Json doc = scenario::to_json(report);
  EXPECT_EQ(doc.at("schema").as_string(), "forktail.scenario_report.v1");
  EXPECT_EQ(doc.at("scenario").at("name").as_string(), "report-schema");
  EXPECT_EQ(doc.at("measured").size(), 1u);
  EXPECT_EQ(doc.at("predictions").items()[0].at("predictor").as_string(),
            "forktail");
  // The embedded scenario is itself a loadable spec.
  EXPECT_EQ(scenario::parse_scenario(doc.at("scenario")), spec);
}

// -------------------------------------------- redundancy-d & EVT dispatch

TEST(ScenarioRun, RedundancyDIsFirstFinisherBitIdentical) {
  // redundancy-d = subset topology with d replicas per request and early
  // return at the FIRST completion; the declarative path must hit the
  // plain subset engine with early_k = 1, bit-identically.
  ScenarioSpec spec;
  spec.topology = Topology::kSubset;
  spec.nodes = 32;
  spec.service.dist = "Exponential";
  spec.k.mode = KSpec::Mode::kRedundant;
  spec.k.fixed = 3;
  spec.load = 0.6;
  spec.requests = 1500;
  spec.seed = 11;

  fjsim::SubsetConfig config;
  config.num_nodes = 32;
  config.service = dist::make_named("Exponential");
  config.k_mode = fjsim::KMode::kFixed;
  config.k_fixed = 3;
  config.early_k = 1;
  config.load = 0.6;
  config.num_requests = 1500;
  config.warmup_fraction = spec.warmup_fraction;
  config.seed = 11;
  const fjsim::SubsetResult direct = fjsim::run_subset(config);

  const scenario::Outcome outcome =
      scenario::SimulatorRegistry::global().run(spec);
  EXPECT_EQ(outcome.responses, direct.responses);

  // The forktail predictor answers with the min-of-d quantile, and the
  // min of 3 replicas must beat a single task's latency.
  const scenario::ScenarioReport report =
      scenario::run_scenario(spec, {"forktail"}, {99.0});
  EXPECT_EQ(report.predictions[0].predicted_ms[0],
            core::redundancy_quantile(report.outcome.task_stats, 3.0, 99.0));
  EXPECT_LT(report.predictions[0].predicted_ms[0],
            core::homogeneous_quantile(report.outcome.task_stats, 1.0, 99.0));
}

TEST(ScenarioRun, EvtPredictorMatchesTheCoreCall) {
  ScenarioSpec spec;
  spec.topology = Topology::kHomogeneous;
  spec.nodes = 16;
  spec.service = scenario::ServiceSpec{"Pareto", 4.22, 2.2};
  spec.load = 0.7;
  spec.requests = 3000;
  spec.seed = 5;

  const scenario::ScenarioReport report =
      scenario::run_scenario(spec, {"forktail", "evt"}, {99.0});
  ASSERT_EQ(report.predictions.size(), 2u);
  const scenario::Outcome& outcome = report.outcome;
  const double node_lambda =
      outcome.lambda * outcome.mean_k / static_cast<double>(spec.nodes);
  const auto direct = core::evt_max_quantile(
      outcome.task_stats, outcome.mean_k, 99.0, node_lambda,
      *outcome.service);
  EXPECT_TRUE(direct.frechet);
  EXPECT_EQ(report.predictions[1].predicted_ms[0], direct.value);
  // On the Frechet branch the correction can only raise the GE answer.
  EXPECT_GE(report.predictions[1].predicted_ms[0],
            report.predictions[0].predicted_ms[0]);
}

TEST(ScenarioRun, EvtDegradesToForkTailOnLightTails) {
  ScenarioSpec spec;
  spec.topology = Topology::kHomogeneous;
  spec.nodes = 16;
  spec.requests = 1000;
  spec.seed = 9;

  const scenario::ScenarioReport report =
      scenario::run_scenario(spec, {"forktail", "evt"}, {99.0});
  ASSERT_EQ(report.predictions.size(), 2u);
  EXPECT_EQ(report.predictions[0].predicted_ms[0],
            report.predictions[1].predicted_ms[0]);
}

// ------------------------------------------------- tracked example files

TEST(ScenarioRun, EveryTrackedExampleParsesValidatesAndRoundTrips) {
  const std::filesystem::path dir =
      std::filesystem::path(FORKTAIL_SOURCE_DIR) / "examples";
  std::size_t found = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    ++found;
    SCOPED_TRACE(entry.path().filename().string());
    ScenarioSpec spec;
    ASSERT_NO_THROW(spec = scenario::load_scenario_file(entry.path().string()));
    EXPECT_NO_THROW(scenario::validate(spec));
    EXPECT_EQ(scenario::parse_scenario(scenario::to_json(spec)), spec);
  }
  // The issue pins at least the homogeneous, heterogeneous, subset
  // (fixed + uniform k), and consolidated cases; pipeline rides along.
  EXPECT_GE(found, 6u);
}

// Every tracked example runs, at a tiny request count, on the engine
// fjsim::vector_supports() names for it.  A new example must be added here.
TEST(ScenarioRun, EveryExampleRunsOnTheEngineThePredicateNames) {
  constexpr fjsim::Engine kLegacy = fjsim::Engine::kLegacy;
  constexpr fjsim::Engine kVector = fjsim::Engine::kVector;
  const std::map<std::string, fjsim::Engine> expected = {
      {"consolidated", kLegacy},  // trace-driven simulator
      {"faulty_homogeneous", kLegacy},  // active fault plan
      {"faulty_homogeneous_retry", kLegacy},
      {"faulty_subset", kLegacy},  // early_k > 0
      {"heterogeneous", kVector},
      {"homogeneous", kVector},
      {"perfect_sampling", kVector},  // homogeneous-mode perfect sampler
      {"pipeline", kVector},
      {"redundancy_d", kLegacy},  // min-of-d is early_k = 1
      {"serve", kVector},
      {"serve_soak", kVector},
      {"subset_fixed_k", kVector},
      {"subset_uniform_k", kVector},
  };
  const std::filesystem::path dir =
      std::filesystem::path(FORKTAIL_SOURCE_DIR) / "examples";
  std::set<std::string> ran;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    const std::string stem = entry.path().stem().string();
    SCOPED_TRACE(stem);
    const auto want = expected.find(stem);
    ASSERT_NE(want, expected.end()) << "example missing from the table";
    ScenarioSpec spec = scenario::load_scenario_file(entry.path().string());
    spec.requests = 200;
    scenario::Outcome outcome;
    ASSERT_NO_THROW(outcome = scenario::SimulatorRegistry::global().run(spec));
    EXPECT_EQ(fjsim::engine_name(outcome.engine),
              std::string(fjsim::engine_name(want->second)));
    ran.insert(stem);
  }
  EXPECT_EQ(ran.size(), expected.size()) << "a listed example is gone";
}

TEST(ScenarioRun, ExampleTopologyCoverageIsComplete) {
  const std::filesystem::path dir =
      std::filesystem::path(FORKTAIL_SOURCE_DIR) / "examples";
  std::vector<bool> seen(5, false);
  bool fixed_k = false;
  bool uniform_k = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    const ScenarioSpec spec =
        scenario::load_scenario_file(entry.path().string());
    seen[static_cast<std::size_t>(spec.topology)] = true;
    if (spec.topology == Topology::kSubset) {
      fixed_k = fixed_k || spec.k.mode == KSpec::Mode::kFixed;
      uniform_k = uniform_k || spec.k.mode == KSpec::Mode::kUniform;
    }
  }
  for (std::size_t t = 0; t < seen.size(); ++t) {
    EXPECT_TRUE(seen[t]) << "no example covers topology "
                         << scenario::topology_name(static_cast<Topology>(t));
  }
  EXPECT_TRUE(fixed_k) << "no fixed-k subset example";
  EXPECT_TRUE(uniform_k) << "no uniform-k subset example";
}

}  // namespace
}  // namespace forktail
