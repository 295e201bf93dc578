// FaultPlan value type: validation discipline, and its JSON round-trip and
// key checks as the "faults" section of a forktail.scenario.v1 document.
#include "fault/plan.hpp"

#include <gtest/gtest.h>

#include <string>

#include "scenario/spec.hpp"
#include "util/json.hpp"

namespace forktail::fault {
namespace {

using fjsim::ConfigError;

FaultPlan sample_plan() {
  FaultPlan plan;
  plan.inject.crash_rate = 0.001;
  plan.inject.crash_mean_duration = 50.0;
  plan.inject.slowdown_rate = 0.01;
  plan.inject.slowdown_mean_duration = 200.0;
  plan.inject.slowdown_factor = 3.0;
  plan.inject.blip_rate = 0.005;
  plan.inject.blip_duration = 25.0;
  plan.mitigation.timeout = 400.0;
  plan.mitigation.max_retries = 2;
  plan.mitigation.backoff_base = 10.0;
  plan.mitigation.backoff_mult = 2.0;
  plan.mitigation.hedge_quantile = 0.95;
  plan.mitigation.early_k = 0;
  return plan;
}

TEST(FaultPlan, DefaultIsInert) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.inert());
  EXPECT_TRUE(plan.inject.inert());
  EXPECT_TRUE(plan.mitigation.inert());
  EXPECT_NO_THROW(validate(plan, "faults"));
}

// A scenario document whose "faults" section is `plan`.
util::Json document_with(const FaultPlan& plan) {
  scenario::ScenarioSpec spec;
  spec.faults = plan;
  return scenario::to_json(spec);
}

TEST(FaultPlan, JsonRoundTripIsIdentity) {
  const FaultPlan plan = sample_plan();
  EXPECT_EQ(scenario::parse_scenario(document_with(plan)).faults, plan);
  EXPECT_EQ(scenario::parse_scenario(document_with(FaultPlan{})).faults,
            FaultPlan{});
}

TEST(FaultPlan, UnknownKeysRejected) {
  util::Json doc = document_with(sample_plan());
  util::Json faults = doc.at("faults");
  faults.set("typo", 1.0);
  doc.set("faults", std::move(faults));
  EXPECT_THROW(scenario::parse_scenario(doc), ConfigError);

  util::Json doc2 = document_with(sample_plan());
  util::Json faults2 = doc2.at("faults");
  util::Json inject = faults2.at("inject");
  inject.set("crashrate", 1.0);
  faults2.set("inject", std::move(inject));
  doc2.set("faults", std::move(faults2));
  EXPECT_THROW(scenario::parse_scenario(doc2), ConfigError);
}

TEST(FaultPlan, ValidationNamesTheField) {
  FaultPlan plan = sample_plan();
  plan.inject.crash_rate = -1.0;
  try {
    validate(plan, "faults");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("faults.inject.crash_rate"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultPlan, ValidationRejectsEachBadField) {
  const auto rejects = [](auto&& mutate) {
    FaultPlan plan = sample_plan();
    mutate(plan);
    EXPECT_THROW(validate(plan, "faults"), ConfigError);
  };
  rejects([](FaultPlan& p) { p.inject.crash_rate = -0.1; });
  rejects([](FaultPlan& p) { p.inject.crash_mean_duration = 0.0; });  // rate>0
  rejects([](FaultPlan& p) { p.inject.slowdown_factor = 0.5; });
  rejects([](FaultPlan& p) { p.inject.blip_duration = -1.0; });
  rejects([](FaultPlan& p) { p.mitigation.timeout = -1.0; });
  rejects([](FaultPlan& p) {
    p.mitigation.timeout = 0.0;  // retries require a timeout
    p.mitigation.max_retries = 1;
  });
  rejects([](FaultPlan& p) { p.mitigation.max_retries = -1; });
  rejects([](FaultPlan& p) { p.mitigation.backoff_base = -1.0; });
  rejects([](FaultPlan& p) { p.mitigation.backoff_mult = 0.5; });
  rejects([](FaultPlan& p) { p.mitigation.hedge_quantile = 1.0; });
  rejects([](FaultPlan& p) { p.mitigation.hedge_quantile = -0.5; });
  rejects([](FaultPlan& p) { p.mitigation.early_k = -2; });
}

TEST(FaultPlan, ZeroRateIgnoresDuration) {
  // An all-zero-rate process is inert regardless of the duration knobs.
  FaultPlan plan;
  plan.inject.crash_mean_duration = 100.0;
  EXPECT_TRUE(plan.inert());
  EXPECT_NO_THROW(validate(plan, "faults"));
}

TEST(FaultPlanScenario, SpecWithoutFaultsKeyIsInert) {
  const auto spec = scenario::parse_scenario_text(
      "{\"schema\": \"forktail.scenario.v1\", \"name\": \"plain\","
      " \"topology\": \"homogeneous\"}");
  EXPECT_TRUE(spec.faults.inert());
}

TEST(FaultPlanScenario, FaultsSectionRoundTripsThroughSpec) {
  scenario::ScenarioSpec spec;
  spec.name = "faulty";
  spec.faults = sample_plan();
  const auto reparsed = scenario::parse_scenario(scenario::to_json(spec));
  EXPECT_EQ(reparsed.faults, spec.faults);
  EXPECT_EQ(reparsed, spec);
}

TEST(FaultPlanScenario, ValidateGatesUnsupportedTopologies) {
  scenario::ScenarioSpec spec;
  spec.topology = scenario::Topology::kPipeline;
  scenario::StageSpec stage;
  spec.stages = {stage};
  spec.faults.mitigation.hedge_quantile = 0.9;
  EXPECT_THROW(scenario::validate(spec), ConfigError);
}

TEST(FaultPlanScenario, HomogeneousRequiresSingleServerNodes) {
  scenario::ScenarioSpec spec;
  spec.faults.inject.blip_rate = 0.01;
  spec.faults.inject.blip_duration = 10.0;
  spec.group.replicas = 3;
  EXPECT_THROW(scenario::validate(spec), ConfigError);
  spec.group.replicas = 1;
  EXPECT_NO_THROW(scenario::validate(spec));
}

TEST(FaultPlanScenario, SubsetAllowsOnlyEarlyReturn) {
  scenario::ScenarioSpec spec;
  spec.topology = scenario::Topology::kSubset;
  spec.k.mode = scenario::KSpec::Mode::kFixed;
  spec.k.fixed = 4;
  spec.faults.mitigation.early_k = 2;
  EXPECT_NO_THROW(scenario::validate(spec));

  spec.faults.mitigation.early_k = 8;  // > fan-out
  EXPECT_THROW(scenario::validate(spec), ConfigError);

  spec.faults.mitigation.early_k = 2;
  spec.faults.inject.crash_rate = 0.1;  // injection unsupported on subset
  spec.faults.inject.crash_mean_duration = 10.0;
  EXPECT_THROW(scenario::validate(spec), ConfigError);
}

}  // namespace
}  // namespace forktail::fault
