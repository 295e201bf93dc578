// ScenarioSpec JSON contract tests.
//
// Two properties the declarative layer stands on:
//   1. Round-trip identity: parse(to_json(spec)) == spec for every valid
//      spec (serialization is total, parsing is its exact inverse), so a
//      spec can move through files, reports, and registries losslessly.
//   2. Malformed documents are rejected loudly with a typed ConfigError
//      naming the offending field -- a typo or an out-of-range value must
//      never silently run the default configuration.
#include <gtest/gtest.h>

#include <string>

#include "fjsim/config.hpp"
#include "scenario/spec.hpp"
#include "util/json.hpp"

namespace forktail {
namespace {

using fjsim::ConfigError;
using scenario::KSpec;
using scenario::ScenarioSpec;
using scenario::ServiceSpec;
using scenario::StageSpec;
using scenario::Topology;

// Non-default specs, one per topology, exercising every section of the
// document.
ScenarioSpec homogeneous_spec() {
  ScenarioSpec spec;
  spec.name = "round-trip-homogeneous";
  spec.topology = Topology::kHomogeneous;
  spec.nodes = 48;
  spec.group.replicas = 3;
  spec.group.policy = fjsim::Policy::kRedundant;
  spec.group.redundant_delay = 7.5;
  spec.service = ServiceSpec{"Weibull", 6.25};
  spec.load = 0.85;
  spec.requests = 12345;
  spec.warmup_fraction = 0.3;
  spec.seed = 0xDEADBEEF;
  spec.max_parallelism = 4;
  spec.batch = 512;
  return spec;
}

ScenarioSpec heterogeneous_spec() {
  ScenarioSpec spec;
  spec.name = "round-trip-heterogeneous";
  spec.topology = Topology::kHeterogeneous;
  spec.nodes = 3;
  spec.services = {ServiceSpec{"Exponential", 1.0}, ServiceSpec{"Erlang-2", 2.0},
                   ServiceSpec{"Exponential", 4.0}};
  spec.heterogeneity.spread = 10.0;
  spec.heterogeneity.seed = 99;
  spec.load = 0.7;
  return spec;
}

ScenarioSpec subset_spec() {
  ScenarioSpec spec;
  spec.name = "round-trip-subset";
  spec.topology = Topology::kSubset;
  spec.nodes = 1000;
  spec.service = ServiceSpec{"TruncPareto", 0.0};
  spec.k.mode = KSpec::Mode::kUniform;
  spec.k.lo = 80;
  spec.k.hi = 120;
  spec.load = 0.9;
  spec.group_by_k = true;
  return spec;
}

ScenarioSpec consolidated_spec() {
  ScenarioSpec spec;
  spec.name = "round-trip-consolidated";
  spec.topology = Topology::kConsolidated;
  spec.nodes = 500;
  spec.group.replicas = 3;
  spec.group.policy = fjsim::Policy::kRoundRobin;
  spec.workload.min_mean_ms = 2.0;
  spec.workload.max_mean_ms = 800.0;
  spec.workload.target_fraction = 0.2;
  spec.workload.target_tasks = 250;
  spec.workload.target_mean_ms = 40.0;
  spec.workload.service_floor = 0.1;
  spec.load = 0.8;
  return spec;
}

ScenarioSpec pipeline_spec() {
  ScenarioSpec spec;
  spec.name = "round-trip-pipeline";
  spec.topology = Topology::kPipeline;
  spec.stages = {StageSpec{16, ServiceSpec{"Exponential", 2.0}},
                 StageSpec{64, ServiceSpec{"HyperExp2", 0.0}}};
  spec.load = 0.75;
  return spec;
}

// --------------------------------------------------------- round trips

TEST(ScenarioSpec, RoundTripIsIdentityForEveryTopology) {
  for (const ScenarioSpec& spec :
       {homogeneous_spec(), heterogeneous_spec(), subset_spec(),
        consolidated_spec(), pipeline_spec()}) {
    EXPECT_NO_THROW(scenario::validate(spec)) << spec.name;
    const util::Json doc = scenario::to_json(spec);
    EXPECT_EQ(scenario::parse_scenario(doc), spec) << spec.name;
    // Through text as well: serialize -> parse -> serialize is a fixpoint.
    const std::string text = doc.dump();
    EXPECT_EQ(scenario::parse_scenario_text(text), spec) << spec.name;
    EXPECT_EQ(scenario::to_json(scenario::parse_scenario_text(text)).dump(), text)
        << spec.name;
  }
}

TEST(ScenarioSpec, SerializedDocumentCarriesSchemaTag) {
  const util::Json doc = scenario::to_json(homogeneous_spec());
  EXPECT_EQ(doc.at("schema").as_string(), scenario::kScenarioSchema);
}

TEST(ScenarioSpec, MissingKeysTakeDefaults) {
  const ScenarioSpec parsed =
      scenario::parse_scenario_text(R"({"topology": "homogeneous"})");
  EXPECT_EQ(parsed, ScenarioSpec{});  // defaults are a homogeneous spec
}

// ---------------------------------------------------------- rejections

// Expect `fn` to throw ConfigError whose field() is exactly `field`.
template <typename Fn>
void expect_config_error(const std::string& field, Fn&& fn) {
  try {
    fn();
    FAIL() << "expected ConfigError on field " << field;
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), field) << e.what();
  }
}

TEST(ScenarioSpec, RejectsUnknownTopology) {
  expect_config_error("topology", [] {
    scenario::parse_scenario_text(R"({"topology": "mesh"})");
  });
}

TEST(ScenarioSpec, RejectsMissingTopology) {
  expect_config_error("topology",
                      [] { scenario::parse_scenario_text(R"({"nodes": 4})"); });
}

TEST(ScenarioSpec, RejectsUnknownSchema) {
  expect_config_error("schema", [] {
    scenario::parse_scenario_text(
        R"({"schema": "forktail.scenario.v999", "topology": "homogeneous"})");
  });
}

TEST(ScenarioSpec, RejectsUnknownTopLevelKey) {
  expect_config_error("noodles", [] {
    scenario::parse_scenario_text(R"({"topology": "homogeneous", "noodles": 4})");
  });
}

TEST(ScenarioSpec, RejectsTypoInNestedSection) {
  // "replica" (singular) must not silently leave replicas at the default.
  expect_config_error("group.replica", [] {
    scenario::parse_scenario_text(
        R"({"topology": "homogeneous", "group": {"replica": 3}})");
  });
}

TEST(ScenarioSpec, RejectsUnknownDistribution) {
  ScenarioSpec spec = homogeneous_spec();
  spec.service.dist = "Zipf";
  expect_config_error("service.dist", [&] { scenario::validate(spec); });
}

TEST(ScenarioSpec, RejectsEmpiricalMeanOverride) {
  ScenarioSpec spec;
  spec.service = ServiceSpec{"Empirical", 9.0};  // Empirical mean is fixed
  expect_config_error("service.mean", [&] { scenario::validate(spec); });
}

TEST(ScenarioSpec, RejectsRhoAtOrAboveOne) {
  ScenarioSpec spec;
  spec.load = 1.0;
  expect_config_error("load", [&] { scenario::validate(spec); });
  spec.load = 1.5;
  expect_config_error("load", [&] { scenario::validate(spec); });
}

TEST(ScenarioSpec, RejectsZeroRequests) {
  ScenarioSpec spec;
  spec.requests = 0;
  expect_config_error("samples.requests", [&] { scenario::validate(spec); });
}

TEST(ScenarioSpec, RejectsFixedKAboveN) {
  ScenarioSpec spec = subset_spec();
  spec.k.mode = KSpec::Mode::kFixed;
  spec.k.fixed = static_cast<int>(spec.nodes) + 1;
  expect_config_error("SubsetConfig.k_fixed", [&] { scenario::validate(spec); });
}

TEST(ScenarioSpec, RejectsUniformKDefaultsOfZero) {
  // The old silent-default failure mode: KMode::kUniformInt with the
  // default k_lo = k_hi = 0 used to simulate k = 0 requests; it must now
  // fail up front.
  ScenarioSpec spec = subset_spec();
  spec.k.lo = 0;
  spec.k.hi = 0;
  expect_config_error("SubsetConfig.k_lo", [&] { scenario::validate(spec); });
}

TEST(ScenarioSpec, RejectsInvertedUniformKRange) {
  ScenarioSpec spec = subset_spec();
  spec.k.lo = 120;
  spec.k.hi = 80;
  expect_config_error("SubsetConfig.k_hi", [&] { scenario::validate(spec); });
}

TEST(ScenarioSpec, RejectsUniformKHiAboveN) {
  ScenarioSpec spec = subset_spec();
  spec.k.hi = static_cast<int>(spec.nodes) + 5;
  expect_config_error("SubsetConfig.k_hi", [&] { scenario::validate(spec); });
}

TEST(ScenarioSpec, RejectsSubsetWithoutKMode) {
  ScenarioSpec spec = subset_spec();
  spec.k = KSpec{};  // mode = kAll
  expect_config_error("k.mode", [&] { scenario::validate(spec); });
}

TEST(ScenarioSpec, RejectsHomogeneousWithSubsetK) {
  ScenarioSpec spec;  // homogeneous forks to every node
  spec.k.mode = KSpec::Mode::kFixed;
  spec.k.fixed = 4;
  expect_config_error("k.mode", [&] { scenario::validate(spec); });
}

TEST(ScenarioSpec, RejectsHeterogeneousServiceCountMismatch) {
  ScenarioSpec spec = heterogeneous_spec();
  spec.nodes = 5;  // but only 3 explicit services
  expect_config_error("services", [&] { scenario::validate(spec); });
}

TEST(ScenarioSpec, RejectsConsolidatedTargetTasksAboveNodes) {
  ScenarioSpec spec = consolidated_spec();
  spec.workload.target_tasks = static_cast<std::uint32_t>(spec.nodes) + 1;
  expect_config_error("workload.target_tasks",
                      [&] { scenario::validate(spec); });
}

TEST(ScenarioSpec, RejectsEmptyPipeline) {
  ScenarioSpec spec = pipeline_spec();
  spec.stages.clear();
  expect_config_error("stages", [&] { scenario::validate(spec); });
}

TEST(ScenarioSpec, RejectsNonIntegerCounts) {
  EXPECT_THROW(scenario::parse_scenario_text(
                   R"({"topology": "homogeneous", "nodes": 3.5})"),
               ConfigError);
  EXPECT_THROW(scenario::parse_scenario_text(
                   R"({"topology": "homogeneous", "samples": {"requests": -1}})"),
               ConfigError);
}

// A whole number the field's integer type cannot hold is a ConfigError
// naming the field, not an undefined double-to-integer conversion.
TEST(ScenarioSpec, RejectsIntegersOutsideTheirType) {
  expect_config_error("samples.requests", [] {
    scenario::parse_scenario_text(
        R"({"topology": "homogeneous", "samples": {"requests": 1e20}})");
  });
  expect_config_error("nodes", [] {
    scenario::parse_scenario_text(
        R"({"topology": "homogeneous", "nodes": 18446744073709551616})");
  });
  expect_config_error("group.replicas", [] {
    scenario::parse_scenario_text(
        R"({"topology": "homogeneous", "group": {"replicas": 3e9}})");
  });
  expect_config_error("group.replicas", [] {
    scenario::parse_scenario_text(
        R"({"topology": "homogeneous", "group": {"replicas": -3e9}})");
  });
  // 2^32 + 80 once wrapped to port 80 and passed the port-range check.
  expect_config_error("serve.udp_port", [] {
    scenario::parse_scenario_text(
        R"({"topology": "homogeneous", "serve": {"udp_port": 4294967376}})");
  });
  expect_config_error("serve.tcp_port", [] {
    scenario::parse_scenario_text(
        R"({"topology": "homogeneous", "serve": {"tcp_port": 4294967296}})");
  });
  expect_config_error("serve.service", [] {
    scenario::parse_scenario_text(
        R"({"topology": "homogeneous", "serve": {"service": 4294967297}})");
  });
  expect_config_error("workload.target_tasks", [] {
    scenario::parse_scenario_text(
        R"({"topology": "consolidated", "workload": {"target_tasks": 4294967298}})");
  });
  EXPECT_EQ(scenario::parse_scenario_text(
                R"({"topology": "homogeneous", "seed": 18446744073709549568})")
                .seed,
            18446744073709549568u);
}

// ------------------------------------------- heavy tails & redundancy-d

ScenarioSpec redundancy_spec() {
  ScenarioSpec spec;
  spec.name = "round-trip-redundancy";
  spec.topology = Topology::kSubset;
  spec.nodes = 100;
  spec.service = ServiceSpec{"Pareto", 4.22, 2.6};
  spec.k.mode = KSpec::Mode::kRedundant;
  spec.k.fixed = 3;
  spec.load = 0.6;
  return spec;
}

TEST(ScenarioSpec, HeavyTailRoundTripKeepsTailAndMode) {
  const ScenarioSpec spec = redundancy_spec();
  EXPECT_NO_THROW(scenario::validate(spec));
  const util::Json doc = scenario::to_json(spec);
  EXPECT_EQ(doc.at("service").at("tail").as_number(), 2.6);
  EXPECT_EQ(doc.at("k").at("mode").as_string(), "redundancy-d");
  EXPECT_EQ(scenario::parse_scenario(doc), spec);
}

TEST(ScenarioSpec, ParsesTheRedundancyDSugar) {
  const ScenarioSpec parsed = scenario::parse_scenario_text(R"({
    "topology": "subset", "nodes": 100, "load": 0.6,
    "service": {"dist": "Pareto", "mean": 4.22, "tail": 2.6},
    "k": {"mode": "redundancy-d", "d": 3}
  })");
  EXPECT_EQ(parsed.k.mode, KSpec::Mode::kRedundant);
  EXPECT_EQ(parsed.k.fixed, 3);
  EXPECT_NO_THROW(scenario::validate(parsed));
  // "d" agreeing with an explicit "fixed" is fine; disagreeing is not.
  EXPECT_NO_THROW(scenario::parse_scenario_text(
      R"({"topology": "subset", "k": {"mode": "redundancy-d", "fixed": 3, "d": 3}})"));
  expect_config_error("k.d", [] {
    scenario::parse_scenario_text(
        R"({"topology": "subset", "k": {"mode": "redundancy-d", "fixed": 4, "d": 3}})");
  });
}

TEST(ScenarioSpec, RejectsTailIndexOnNonHeavyFamilies) {
  ScenarioSpec spec;
  spec.service = ServiceSpec{"Exponential", 4.22, 2.6};
  expect_config_error("service.tail", [&] { scenario::validate(spec); });
}

TEST(ScenarioSpec, RejectsDivergentMeanTailIndex) {
  ScenarioSpec spec;
  spec.service = ServiceSpec{"Pareto", 4.22, 0.9};
  expect_config_error("service.tail", [&] { scenario::validate(spec); });
  spec.service.tail = -1.0;
  expect_config_error("service.tail", [&] { scenario::validate(spec); });
}

TEST(ScenarioSpec, RejectsRedundancyWithEarlyKMitigation) {
  ScenarioSpec spec = redundancy_spec();
  spec.faults.mitigation.early_k = 2;
  expect_config_error("faults.mitigation.early_k",
                      [&] { scenario::validate(spec); });
}

TEST(ScenarioSpec, PerfectSamplerRefusesHeavyTailByCapability) {
  // The refusal must come from the capability query (naming the tail
  // class), not from a hard-coded family list.
  ScenarioSpec spec;
  spec.topology = Topology::kHomogeneous;
  spec.sampler = scenario::Sampler::kPerfect;
  spec.load = 0.5;
  spec.service = ServiceSpec{"Pareto", 4.22, 2.6};
  try {
    scenario::validate(spec);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "sampler");
    EXPECT_NE(std::string(e.what()).find("regularly-varying"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------- serve section

TEST(ScenarioSpec, ServeSectionRoundTripsWithNonDefaultValues) {
  ScenarioSpec spec = homogeneous_spec();
  spec.serve.udp_port = 9464;
  spec.serve.tcp_port = 9465;
  spec.serve.service = 7;
  spec.serve.shards = 4;
  spec.serve.window_seconds = 5.0;
  spec.serve.min_samples = 12;
  spec.serve.skew_tolerance = 0.25;
  spec.serve.ring_capacity = 256;
  spec.serve.liveness_timeout = 8.0;
  spec.serve.sweep_interval = 0.1;
  spec.serve.stall_threshold = 3.0;
  EXPECT_NO_THROW(scenario::validate(spec));
  EXPECT_EQ(scenario::parse_scenario(scenario::to_json(spec)), spec);
}

TEST(ScenarioSpec, ServeSectionRejectsUnknownKey) {
  expect_config_error("serve.ringcapacity", [] {
    scenario::parse_scenario_text(
        R"({"topology": "homogeneous", "serve": {"ringcapacity": 8}})");
  });
}

TEST(ScenarioSpec, ServeSectionValidation) {
  const auto with = [](auto&& mutate) {
    ScenarioSpec spec = homogeneous_spec();
    mutate(spec.serve);
    return spec;
  };
  expect_config_error("serve.udp_port", [&] {
    scenario::validate(with([](auto& s) { s.udp_port = 70000; }));
  });
  expect_config_error("serve.tcp_port", [&] {
    scenario::validate(with([](auto& s) { s.udp_port = s.tcp_port = 9000; }));
  });
  expect_config_error("serve.shards", [&] {
    scenario::validate(with([](auto& s) { s.shards = 0; }));
  });
  expect_config_error("serve.window_seconds", [&] {
    scenario::validate(with([](auto& s) { s.window_seconds = 0.0; }));
  });
  expect_config_error("serve.min_samples", [&] {
    scenario::validate(with([](auto& s) { s.min_samples = 0; }));
  });
  expect_config_error("serve.skew_tolerance", [&] {
    scenario::validate(with([](auto& s) { s.skew_tolerance = -0.1; }));
  });
  expect_config_error("serve.ring_capacity", [&] {
    scenario::validate(with([](auto& s) { s.ring_capacity = 0; }));
  });
  expect_config_error("serve.liveness_timeout", [&] {
    scenario::validate(with([](auto& s) { s.liveness_timeout = 0.0; }));
  });
  expect_config_error("serve.sweep_interval", [&] {
    scenario::validate(with([](auto& s) { s.sweep_interval = -1.0; }));
  });
  expect_config_error("serve.stall_threshold", [&] {
    scenario::validate(with([](auto& s) { s.stall_threshold = 0.0; }));
  });
}

// Both bounds hold on a parsed document, where a config file meets them;
// validating starts no shard thread and allocates no ring.
TEST(ScenarioSpec, ServeShardAndRingBounds) {
  const auto parse = [](const std::string& serve) {
    return scenario::parse_scenario_text(
        R"({"topology": "homogeneous", "serve": )" + serve + "}");
  };
  EXPECT_NO_THROW(scenario::validate(parse(R"({"shards": 256})")));
  expect_config_error("serve.shards", [&] {
    scenario::validate(parse(R"({"shards": 257})"));
  });
  EXPECT_NO_THROW(scenario::validate(parse(R"({"ring_capacity": 65536})")));
  expect_config_error("serve.ring_capacity", [&] {
    scenario::validate(parse(R"({"ring_capacity": 65537})"));
  });
}

// execution.max_parallelism -- and so `forktail run --threads` -- must
// reach every converter whose engine shards work over the thread pool; a
// dropped cap would let a vector replay fan out over the whole pool.
TEST(ScenarioSpec, MaxParallelismReachesEveryConverter) {
  const auto capped = [](ScenarioSpec spec) {
    spec.max_parallelism = 3;
    return spec;
  };
  EXPECT_EQ(scenario::to_homogeneous_config(capped(homogeneous_spec()))
                .max_parallelism,
            3u);
  EXPECT_EQ(scenario::to_subset_config(capped(subset_spec())).max_parallelism,
            3u);
  EXPECT_EQ(scenario::to_heterogeneous_config(capped(heterogeneous_spec()))
                .max_parallelism,
            3u);
  EXPECT_EQ(
      scenario::to_pipeline_config(capped(pipeline_spec())).max_parallelism,
      3u);
}

TEST(ScenarioSpec, MalformedJsonIsAConfigError) {
  // Truncated JSON surfaces the parser's typed error; an unreadable file is
  // wrapped into ConfigError so the CLI maps both to its config exit code.
  EXPECT_THROW(scenario::parse_scenario_text("{\"topology\": "),
               util::JsonParseError);
  EXPECT_THROW(scenario::load_scenario_file("/nonexistent/scenario.json"),
               ConfigError);
}

}  // namespace
}  // namespace forktail
