// ScenarioSpec: one declarative description of a fork-join experiment.
//
// The paper's design space (Section 5) -- k = N, k <= N fixed / uniform,
// redundant or replicated nodes, consolidated clusters, pipelined stages --
// used to be spread across five hand-wired simulator front-ends and ~20
// bench binaries that each assembled their own config structs.  A
// ScenarioSpec is the single declarative entry point: a value type with
// JSON parse/serialize and validation that fully describes the topology,
// service distributions, load, and sampling knobs of one simulated system.
// The scenario registry (scenario/registry.hpp) dispatches a spec to the
// matching fjsim engine, and the predictor registry evaluates any model on
// the result, so a (spec, predictor, percentiles) triple fully describes
// one experiment cell.  New scenarios are data (a JSON file under
// examples/), not code.
//
// Every existing engine keeps its bit-identical replay contract: the spec
// layer moves construction and dispatch, not math.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dist/distribution.hpp"
#include "fault/plan.hpp"
#include "fjsim/config.hpp"
#include "fjsim/consolidated.hpp"
#include "fjsim/heterogeneous.hpp"
#include "fjsim/homogeneous.hpp"
#include "fjsim/perfect_sampler.hpp"
#include "fjsim/pipeline.hpp"
#include "fjsim/subset.hpp"
#include "util/json.hpp"

namespace forktail::scenario {

/// Schema identifier embedded in every serialized spec.
inline constexpr const char* kScenarioSchema = "forktail.scenario.v1";

/// Which simulator family handles the spec (Section 4 / 5 of the paper).
enum class Topology : std::uint8_t {
  kHomogeneous,    ///< k = N, shared service distribution
  kHeterogeneous,  ///< k = N, per-node service distributions (Eq. 4/5)
  kSubset,         ///< k <= N, fixed or uniform fan-out (Section 4.2)
  kConsolidated,   ///< trace-driven shared cluster (Section 4.3)
  kPipeline,       ///< multi-stage fork-join workflow (Section 3.1)
};

std::string topology_name(Topology topology);

/// How stationary responses are drawn ("sampler" key).
enum class Sampler : std::uint8_t {
  kReplay,   ///< warm-up + replay through the fjsim engines (default)
  kPerfect,  ///< exact-stationary coupling-from-the-past draws
             ///< (fjsim/perfect_sampler.hpp; homogeneous/subset only)
};

/// One service-time distribution: a name from the paper's roster
/// (dist::factory) with an optional mean override (0 = the paper's mean)
/// and, for the regularly-varying families ("Pareto" / "HeavyMixture"),
/// an optional tail index (0 = dist::kDefaultTailIndex).
struct ServiceSpec {
  std::string dist = "Exponential";
  double mean = 0.0;
  double tail = 0.0;

  bool operator==(const ServiceSpec&) const = default;
};

/// Generative per-node heterogeneity: node service means log-uniform in
/// [1, spread] ms, drawn from `seed` (the inhomogeneous_scale construction).
/// Only consulted when no explicit per-node `services` list is given.
struct HeterogeneitySpec {
  double spread = 1.0;
  std::uint64_t seed = 1;

  bool operator==(const HeterogeneitySpec&) const = default;
};

/// Per-request fan-out.
struct KSpec {
  /// kRedundant ("redundancy-d"): issue `fixed` replicas of the request and
  /// take the FIRST finisher (min-of-d) -- the replication counterpart of
  /// the fork-join max.  JSON accepts the sugar key "d" for `fixed`.
  enum class Mode : std::uint8_t { kAll, kFixed, kUniform, kRedundant };
  Mode mode = Mode::kAll;  ///< kAll: k = N (homogeneous/heterogeneous)
  int fixed = 0;           ///< kFixed / kRedundant: tasks per request
  int lo = 0;              ///< kUniform: K ~ U[lo, hi]
  int hi = 0;

  bool operator==(const KSpec&) const = default;
};

/// Consolidated background workload (trace::FacebookWorkload parameters).
struct WorkloadSpec {
  double min_mean_ms = 1.0;
  double max_mean_ms = 1000.0;
  double target_fraction = 0.1;
  std::uint32_t target_tasks = 100;
  double target_mean_ms = 50.0;
  double service_floor = 0.05;

  bool operator==(const WorkloadSpec&) const = default;
};

/// One pipeline stage: a k = N fork-join over `nodes` with its own service.
struct StageSpec {
  std::size_t nodes = 8;
  ServiceSpec service;

  bool operator==(const StageSpec&) const = default;
};

/// Configuration of the always-on prediction daemon ("serve" section; the
/// `forktail serve` verb).  The daemon's fleet width is the spec's `nodes`;
/// everything here shapes the ingest/query planes.  A spec without the
/// section serves with these defaults, so every scenario file is servable.
struct ServeSpec {
  std::uint32_t udp_port = 0;   ///< sample ingest; 0 = ephemeral
  std::uint32_t tcp_port = 0;   ///< query + scrape; 0 = ephemeral
  std::uint32_t service = 0;    ///< wire service id accepted by the daemon
  std::size_t shards = 2;       ///< ingest shards (worker threads)
  double window_seconds = 20.0; ///< per-node sliding window
  std::size_t min_samples = 30; ///< per-window fill threshold
  double skew_tolerance = 0.5;  ///< backwards-clock clamp bound, seconds
  std::size_t ring_capacity = 1024;  ///< batches per shard ring (shed bound)
  double liveness_timeout = 60.0;    ///< idle seconds before agent is stale
  double sweep_interval = 0.5;       ///< liveness sweep cadence, seconds
  double stall_threshold = 5.0;      ///< watchdog ingest-stall horizon

  bool operator==(const ServeSpec&) const = default;
};

struct ScenarioSpec {
  std::string name = "unnamed";
  Topology topology = Topology::kHomogeneous;

  std::size_t nodes = 10;          ///< fork nodes (cluster width)
  fjsim::NodeGroupConfig group;    ///< replicas / policy / redundant_delay
  ServiceSpec service;             ///< shared service distribution
  std::vector<ServiceSpec> services;  ///< heterogeneous: explicit per-node
  HeterogeneitySpec heterogeneity;    ///< heterogeneous: generative spread
  KSpec k;                         ///< fan-out (subset topologies)
  double load = 0.8;               ///< per-server rho in (0,1); for the
                                   ///< heterogeneous topology: bottleneck rho
  WorkloadSpec workload;           ///< consolidated only
  std::vector<StageSpec> stages;   ///< pipeline only

  std::uint64_t requests = 10000;  ///< measured requests (jobs) post warm-up
  double warmup_fraction = 0.25;
  /// Stationary sampling strategy.  kPerfect draws each response from the
  /// exact stationary law via certified coupling-from-the-past; it
  /// requires a homogeneous or subset topology with plain single-server
  /// nodes, an inert fault plan, and a light-tailed service (one with an
  /// MGF) -- validate() rejects everything else.
  Sampler sampler = Sampler::kReplay;
  std::uint64_t seed = 1;
  std::size_t max_parallelism = 0;  ///< node-replay worker cap (0 = pool)
  std::size_t batch = 0;            ///< service-demand block size (0 = default)
  bool group_by_k = false;          ///< subset: bucket responses by k

  /// Fault injection + tail mitigation ("faults" section; src/fault).
  /// Default-inert: a spec without the key runs the unmodified engines.
  fault::FaultPlan faults;

  /// Always-on daemon configuration ("serve" section; `forktail serve`).
  ServeSpec serve;

  bool operator==(const ScenarioSpec&) const = default;
};

// ------------------------------------------------------------- JSON layer

/// Serialize to the forktail.scenario.v1 JSON document.  Serialization is
/// total and deterministic: parse(to_json(spec)) == spec for every valid
/// spec (the round-trip identity the tests pin).
util::Json to_json(const ScenarioSpec& spec);

/// Parse a forktail.scenario.v1 document.  Unknown keys are rejected (a
/// typo must not silently run the default configuration); missing keys take
/// the documented defaults.  Throws fjsim::ConfigError naming the dotted
/// field on an unknown key, a non-object section or array item, a wrong
/// JSON type, or an integer outside its member's type; parse_scenario_text
/// throws util::JsonParseError on malformed JSON.
ScenarioSpec parse_scenario(const util::Json& doc);
ScenarioSpec parse_scenario_text(const std::string& text);
ScenarioSpec load_scenario_file(const std::string& path);

/// Semantic validation: throws fjsim::ConfigError naming the offending
/// field (unknown distribution, rho >= 1, k > N, empty pipeline, ...).
void validate(const ScenarioSpec& spec);

// -------------------------------------------------- config materialisation

/// Resolve one ServiceSpec through dist::factory.
dist::DistPtr make_service(const ServiceSpec& service);

/// Resolve the per-node service list of a heterogeneous spec (explicit
/// list, or the generative log-uniform spread).
std::vector<dist::DistPtr> make_services(const ScenarioSpec& spec);

/// Each converter checks that the spec's topology matches and returns the
/// engine config the hand-wired benches used to assemble by hand.  The
/// mapping is value-for-value: a spec-built config runs bit-identically to
/// the equivalent hand-wired one.  The homogeneous, subset, heterogeneous
/// and pipeline converters also pick the replay engine: Engine::kVector
/// wherever fjsim::vector_supports() accepts the config (and, homogeneous,
/// the fault plan is inert), Engine::kLegacy otherwise.
fjsim::HomogeneousConfig to_homogeneous_config(const ScenarioSpec& spec);
fjsim::SubsetConfig to_subset_config(const ScenarioSpec& spec);
/// Perfect-sampler materialisation (spec.sampler == kPerfect); valid for
/// the homogeneous and subset topologies.  Picks the engine the same way:
/// kVector for homogeneous mode, kLegacy for subset mode.
fjsim::PerfectSamplerConfig to_perfect_config(const ScenarioSpec& spec);
fjsim::HeterogeneousConfig to_heterogeneous_config(const ScenarioSpec& spec);
fjsim::ConsolidatedConfig to_consolidated_config(const ScenarioSpec& spec);
fjsim::PipelineConfig to_pipeline_config(const ScenarioSpec& spec);

}  // namespace forktail::scenario
