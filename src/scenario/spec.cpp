#include "scenario/spec.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dist/basic.hpp"
#include "dist/factory.hpp"
#include "dist/transforms.hpp"
#include "fjsim/vector_engine.hpp"
#include "trace/facebook.hpp"
#include "util/rng.hpp"

namespace forktail::scenario {

using fjsim::ConfigError;

// ---------------------------------------------------------------- enums

std::string topology_name(Topology topology) {
  switch (topology) {
    case Topology::kHomogeneous: return "homogeneous";
    case Topology::kHeterogeneous: return "heterogeneous";
    case Topology::kSubset: return "subset";
    case Topology::kConsolidated: return "consolidated";
    case Topology::kPipeline: return "pipeline";
  }
  throw ConfigError("topology", "unhandled topology enum value");
}

Topology topology_from_name(const std::string& name) {
  if (name == "homogeneous") return Topology::kHomogeneous;
  if (name == "heterogeneous") return Topology::kHeterogeneous;
  if (name == "subset") return Topology::kSubset;
  if (name == "consolidated") return Topology::kConsolidated;
  if (name == "pipeline") return Topology::kPipeline;
  throw ConfigError("topology", "unknown topology: " + name +
                                    " (want homogeneous | heterogeneous | "
                                    "subset | consolidated | pipeline)");
}

std::string sampler_name(Sampler sampler) {
  switch (sampler) {
    case Sampler::kReplay: return "replay";
    case Sampler::kPerfect: return "perfect";
  }
  throw ConfigError("sampler", "unhandled sampler enum value");
}

Sampler sampler_from_name(const std::string& name) {
  if (name == "replay") return Sampler::kReplay;
  if (name == "perfect") return Sampler::kPerfect;
  throw ConfigError("sampler",
                    "unknown sampler: " + name + " (want replay | perfect)");
}

namespace {

std::string policy_name(fjsim::Policy policy) {
  switch (policy) {
    case fjsim::Policy::kSingle: return "single";
    case fjsim::Policy::kRoundRobin: return "round-robin";
    case fjsim::Policy::kRedundant: return "redundant";
  }
  throw ConfigError("group.policy", "unhandled policy enum value");
}

fjsim::Policy policy_from_name(const std::string& name) {
  if (name == "single") return fjsim::Policy::kSingle;
  if (name == "round-robin") return fjsim::Policy::kRoundRobin;
  if (name == "redundant") return fjsim::Policy::kRedundant;
  throw ConfigError("group.policy",
                    "unknown policy: " + name +
                        " (want single | round-robin | redundant)");
}

std::string k_mode_name(KSpec::Mode mode) {
  switch (mode) {
    case KSpec::Mode::kAll: return "all";
    case KSpec::Mode::kFixed: return "fixed";
    case KSpec::Mode::kUniform: return "uniform";
    case KSpec::Mode::kRedundant: return "redundancy-d";
  }
  throw ConfigError("k.mode", "unhandled k mode enum value");
}

KSpec::Mode k_mode_from_name(const std::string& name) {
  if (name == "all") return KSpec::Mode::kAll;
  if (name == "fixed") return KSpec::Mode::kFixed;
  if (name == "uniform") return KSpec::Mode::kUniform;
  if (name == "redundancy-d") return KSpec::Mode::kRedundant;
  throw ConfigError("k.mode", "unknown k mode: " + name +
                                  " (want all | fixed | uniform | "
                                  "redundancy-d)");
}

// ------------------------------------------------------- parse utilities

/// Dotted name of `key` inside the section `where` ("" = document root).
std::string field_name(const std::string& where, const std::string& key) {
  return where.empty() ? key : where + "." + key;
}

/// Reject unknown keys so a typo fails loudly instead of silently running
/// the default configuration (the CliFlags philosophy, applied to JSON).
void check_keys(const util::Json& obj, const std::string& where,
                std::initializer_list<const char*> allowed) {
  for (const auto& key : obj.keys()) {
    if (std::find_if(allowed.begin(), allowed.end(), [&](const char* a) {
          return key == a;
        }) == allowed.end()) {
      throw ConfigError(field_name(where, key),
                        "unknown key in scenario document");
    }
  }
}

double get_number(const util::Json& obj, const char* key, double fallback) {
  return obj.contains(key) ? obj.at(key).as_number() : fallback;
}

std::uint64_t get_u64(const util::Json& obj, const char* key,
                      std::uint64_t fallback, const std::string& where) {
  if (!obj.contains(key)) return fallback;
  const double v = obj.at(key).as_number();
  if (!(v >= 0.0) || v != std::floor(v)) {
    throw ConfigError(field_name(where, key), "must be a non-negative integer");
  }
  // Converting a double at or above 2^64 to uint64 is undefined.
  if (!(v < 0x1p64)) {
    throw ConfigError(field_name(where, key), "must be below 2^64");
  }
  return static_cast<std::uint64_t>(v);
}

std::uint32_t get_u32(const util::Json& obj, const char* key,
                      std::uint32_t fallback, const std::string& where) {
  const std::uint64_t v = get_u64(obj, key, fallback, where);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw ConfigError(field_name(where, key), "must be below 2^32");
  }
  return static_cast<std::uint32_t>(v);
}

int get_int(const util::Json& obj, const char* key, int fallback,
            const std::string& where) {
  if (!obj.contains(key)) return fallback;
  const double v = obj.at(key).as_number();
  if (v != std::floor(v)) {
    throw ConfigError(field_name(where, key), "must be an integer");
  }
  if (!(v >= std::numeric_limits<int>::min() &&
        v <= std::numeric_limits<int>::max())) {
    throw ConfigError(field_name(where, key), "must fit in an int");
  }
  return static_cast<int>(v);
}

std::string get_string(const util::Json& obj, const char* key,
                       const std::string& fallback) {
  return obj.contains(key) ? obj.at(key).as_string() : fallback;
}

ServiceSpec parse_service(const util::Json& obj, const std::string& where) {
  check_keys(obj, where, {"dist", "mean", "tail"});
  ServiceSpec service;
  service.dist = get_string(obj, "dist", service.dist);
  service.mean = get_number(obj, "mean", service.mean);
  service.tail = get_number(obj, "tail", service.tail);
  return service;
}

util::Json service_to_json(const ServiceSpec& service) {
  util::Json obj = util::Json::object();
  obj.set("dist", service.dist);
  obj.set("mean", service.mean);
  obj.set("tail", service.tail);
  return obj;
}

}  // namespace

// ------------------------------------------------------------- serialize

util::Json to_json(const ScenarioSpec& spec) {
  util::Json doc = util::Json::object();
  doc.set("schema", kScenarioSchema);
  doc.set("name", spec.name);
  doc.set("topology", topology_name(spec.topology));
  doc.set("nodes", spec.nodes);

  util::Json group = util::Json::object();
  group.set("replicas", spec.group.replicas);
  group.set("policy", policy_name(spec.group.policy));
  group.set("redundant_delay", spec.group.redundant_delay);
  doc.set("group", std::move(group));

  doc.set("service", service_to_json(spec.service));

  util::Json services = util::Json::array();
  for (const ServiceSpec& s : spec.services) services.push_back(service_to_json(s));
  doc.set("services", std::move(services));

  util::Json het = util::Json::object();
  het.set("spread", spec.heterogeneity.spread);
  het.set("seed", spec.heterogeneity.seed);
  doc.set("heterogeneity", std::move(het));

  util::Json k = util::Json::object();
  k.set("mode", k_mode_name(spec.k.mode));
  k.set("fixed", spec.k.fixed);
  k.set("lo", spec.k.lo);
  k.set("hi", spec.k.hi);
  doc.set("k", std::move(k));

  doc.set("load", spec.load);

  util::Json workload = util::Json::object();
  workload.set("min_mean_ms", spec.workload.min_mean_ms);
  workload.set("max_mean_ms", spec.workload.max_mean_ms);
  workload.set("target_fraction", spec.workload.target_fraction);
  workload.set("target_tasks", static_cast<std::uint64_t>(spec.workload.target_tasks));
  workload.set("target_mean_ms", spec.workload.target_mean_ms);
  workload.set("service_floor", spec.workload.service_floor);
  doc.set("workload", std::move(workload));

  util::Json stages = util::Json::array();
  for (const StageSpec& stage : spec.stages) {
    util::Json s = util::Json::object();
    s.set("nodes", stage.nodes);
    s.set("service", service_to_json(stage.service));
    stages.push_back(std::move(s));
  }
  doc.set("stages", std::move(stages));

  util::Json samples = util::Json::object();
  samples.set("requests", spec.requests);
  samples.set("warmup_fraction", spec.warmup_fraction);
  doc.set("samples", std::move(samples));

  doc.set("sampler", sampler_name(spec.sampler));
  doc.set("seed", spec.seed);

  util::Json execution = util::Json::object();
  execution.set("max_parallelism", spec.max_parallelism);
  execution.set("batch", spec.batch);
  doc.set("execution", std::move(execution));

  doc.set("group_by_k", spec.group_by_k);
  doc.set("faults", fault::to_json(spec.faults));

  util::Json serve = util::Json::object();
  serve.set("udp_port", static_cast<std::uint64_t>(spec.serve.udp_port));
  serve.set("tcp_port", static_cast<std::uint64_t>(spec.serve.tcp_port));
  serve.set("service", static_cast<std::uint64_t>(spec.serve.service));
  serve.set("shards", spec.serve.shards);
  serve.set("window_seconds", spec.serve.window_seconds);
  serve.set("min_samples", spec.serve.min_samples);
  serve.set("skew_tolerance", spec.serve.skew_tolerance);
  serve.set("ring_capacity", spec.serve.ring_capacity);
  serve.set("liveness_timeout", spec.serve.liveness_timeout);
  serve.set("sweep_interval", spec.serve.sweep_interval);
  serve.set("stall_threshold", spec.serve.stall_threshold);
  doc.set("serve", std::move(serve));
  return doc;
}

// ----------------------------------------------------------------- parse

ScenarioSpec parse_scenario(const util::Json& doc) {
  if (!doc.is_object()) {
    throw ConfigError("scenario", "document must be a JSON object");
  }
  check_keys(doc, "",
             {"schema", "name", "topology", "nodes", "group", "service",
              "services", "heterogeneity", "k", "load", "workload", "stages",
              "samples", "sampler", "seed", "execution", "group_by_k",
              "faults", "serve"});
  if (doc.contains("schema") &&
      doc.at("schema").as_string() != kScenarioSchema) {
    throw ConfigError("schema", "unsupported schema: " +
                                    doc.at("schema").as_string() + " (want " +
                                    kScenarioSchema + ")");
  }

  ScenarioSpec spec;
  spec.name = get_string(doc, "name", spec.name);
  if (!doc.contains("topology")) {
    throw ConfigError("topology", "required key missing");
  }
  spec.topology = topology_from_name(doc.at("topology").as_string());
  spec.nodes = static_cast<std::size_t>(get_u64(doc, "nodes", spec.nodes, ""));

  if (doc.contains("group")) {
    const util::Json& group = doc.at("group");
    check_keys(group, "group", {"replicas", "policy", "redundant_delay"});
    spec.group.replicas = get_int(group, "replicas", spec.group.replicas, "group");
    spec.group.policy =
        policy_from_name(get_string(group, "policy", policy_name(spec.group.policy)));
    spec.group.redundant_delay =
        get_number(group, "redundant_delay", spec.group.redundant_delay);
  }

  if (doc.contains("service")) {
    spec.service = parse_service(doc.at("service"), "service");
  }
  if (doc.contains("services")) {
    const util::Json& services = doc.at("services");
    if (!services.is_array()) {
      throw ConfigError("services", "must be an array of service objects");
    }
    for (std::size_t i = 0; i < services.items().size(); ++i) {
      spec.services.push_back(parse_service(
          services.items()[i], "services[" + std::to_string(i) + "]"));
    }
  }
  if (doc.contains("heterogeneity")) {
    const util::Json& het = doc.at("heterogeneity");
    check_keys(het, "heterogeneity", {"spread", "seed"});
    spec.heterogeneity.spread =
        get_number(het, "spread", spec.heterogeneity.spread);
    spec.heterogeneity.seed =
        get_u64(het, "seed", spec.heterogeneity.seed, "heterogeneity");
  }
  if (doc.contains("k")) {
    const util::Json& k = doc.at("k");
    check_keys(k, "k", {"mode", "fixed", "lo", "hi", "d"});
    spec.k.mode = k_mode_from_name(get_string(k, "mode", k_mode_name(spec.k.mode)));
    spec.k.fixed = get_int(k, "fixed", spec.k.fixed, "k");
    spec.k.lo = get_int(k, "lo", spec.k.lo, "k");
    spec.k.hi = get_int(k, "hi", spec.k.hi, "k");
    if (k.contains("d")) {
      // "d" is redundancy-mode sugar for "fixed" (the replica count).
      const int d = get_int(k, "d", 0, "k");
      if (spec.k.fixed != 0 && spec.k.fixed != d) {
        throw ConfigError("k.d", "conflicts with k.fixed (" + std::to_string(d) +
                                     " vs " + std::to_string(spec.k.fixed) +
                                     "); give one of the two");
      }
      spec.k.fixed = d;
    }
  }
  spec.load = get_number(doc, "load", spec.load);
  if (doc.contains("workload")) {
    const util::Json& w = doc.at("workload");
    check_keys(w, "workload",
               {"min_mean_ms", "max_mean_ms", "target_fraction", "target_tasks",
                "target_mean_ms", "service_floor"});
    spec.workload.min_mean_ms = get_number(w, "min_mean_ms", spec.workload.min_mean_ms);
    spec.workload.max_mean_ms = get_number(w, "max_mean_ms", spec.workload.max_mean_ms);
    spec.workload.target_fraction =
        get_number(w, "target_fraction", spec.workload.target_fraction);
    spec.workload.target_tasks =
        get_u32(w, "target_tasks", spec.workload.target_tasks, "workload");
    spec.workload.target_mean_ms =
        get_number(w, "target_mean_ms", spec.workload.target_mean_ms);
    spec.workload.service_floor =
        get_number(w, "service_floor", spec.workload.service_floor);
  }
  if (doc.contains("stages")) {
    const util::Json& stages = doc.at("stages");
    if (!stages.is_array()) {
      throw ConfigError("stages", "must be an array of stage objects");
    }
    for (std::size_t i = 0; i < stages.items().size(); ++i) {
      const util::Json& s = stages.items()[i];
      const std::string where = "stages[" + std::to_string(i) + "]";
      check_keys(s, where, {"nodes", "service"});
      StageSpec stage;
      stage.nodes = static_cast<std::size_t>(get_u64(s, "nodes", stage.nodes, where));
      if (s.contains("service")) {
        stage.service = parse_service(s.at("service"), where + ".service");
      }
      spec.stages.push_back(std::move(stage));
    }
  }
  if (doc.contains("samples")) {
    const util::Json& samples = doc.at("samples");
    check_keys(samples, "samples", {"requests", "warmup_fraction"});
    spec.requests = get_u64(samples, "requests", spec.requests, "samples");
    spec.warmup_fraction =
        get_number(samples, "warmup_fraction", spec.warmup_fraction);
  }
  spec.sampler =
      sampler_from_name(get_string(doc, "sampler", sampler_name(spec.sampler)));
  spec.seed = get_u64(doc, "seed", spec.seed, "");
  if (doc.contains("execution")) {
    const util::Json& execution = doc.at("execution");
    check_keys(execution, "execution", {"max_parallelism", "batch"});
    spec.max_parallelism = static_cast<std::size_t>(
        get_u64(execution, "max_parallelism", spec.max_parallelism, "execution"));
    spec.batch = static_cast<std::size_t>(
        get_u64(execution, "batch", spec.batch, "execution"));
  }
  if (doc.contains("group_by_k")) {
    spec.group_by_k = doc.at("group_by_k").as_bool();
  }
  if (doc.contains("faults")) {
    spec.faults = fault::parse_fault_plan(doc.at("faults"), "faults");
  }
  if (doc.contains("serve")) {
    const util::Json& serve = doc.at("serve");
    check_keys(serve, "serve",
               {"udp_port", "tcp_port", "service", "shards", "window_seconds",
                "min_samples", "skew_tolerance", "ring_capacity",
                "liveness_timeout", "sweep_interval", "stall_threshold"});
    spec.serve.udp_port =
        get_u32(serve, "udp_port", spec.serve.udp_port, "serve");
    spec.serve.tcp_port =
        get_u32(serve, "tcp_port", spec.serve.tcp_port, "serve");
    spec.serve.service = get_u32(serve, "service", spec.serve.service, "serve");
    spec.serve.shards = static_cast<std::size_t>(
        get_u64(serve, "shards", spec.serve.shards, "serve"));
    spec.serve.window_seconds =
        get_number(serve, "window_seconds", spec.serve.window_seconds);
    spec.serve.min_samples = static_cast<std::size_t>(
        get_u64(serve, "min_samples", spec.serve.min_samples, "serve"));
    spec.serve.skew_tolerance =
        get_number(serve, "skew_tolerance", spec.serve.skew_tolerance);
    spec.serve.ring_capacity = static_cast<std::size_t>(
        get_u64(serve, "ring_capacity", spec.serve.ring_capacity, "serve"));
    spec.serve.liveness_timeout =
        get_number(serve, "liveness_timeout", spec.serve.liveness_timeout);
    spec.serve.sweep_interval =
        get_number(serve, "sweep_interval", spec.serve.sweep_interval);
    spec.serve.stall_threshold =
        get_number(serve, "stall_threshold", spec.serve.stall_threshold);
  }
  return spec;
}

ScenarioSpec parse_scenario_text(const std::string& text) {
  return parse_scenario(util::Json::parse(text));
}

ScenarioSpec load_scenario_file(const std::string& path) {
  try {
    return parse_scenario_text(util::read_text_file(path));
  } catch (const ConfigError&) {
    throw;
  } catch (const std::exception& e) {
    // An unreadable file or malformed JSON is a configuration problem (the
    // CLI maps ConfigError to its config exit code), not a runtime one.
    throw ConfigError("scenario", path + ": " + e.what());
  }
}

// -------------------------------------------------------------- validate

namespace {

void validate_service(const ServiceSpec& service, const std::string& where) {
  const auto roster = dist::named_distributions();
  if (std::find(roster.begin(), roster.end(), service.dist) == roster.end()) {
    std::string names;
    for (const auto& n : roster) names += (names.empty() ? "" : " | ") + n;
    throw ConfigError(where + ".dist",
                      "unknown distribution: " + service.dist + " (want " +
                          names + ")");
  }
  if (service.mean < 0.0) {
    throw ConfigError(where + ".mean", "must be >= 0 (0 = the paper's mean)");
  }
  if (service.dist == "Empirical" && service.mean > 0.0) {
    throw ConfigError(where + ".mean",
                      "Empirical has a fixed mean; omit the override");
  }
  if (service.tail < 0.0) {
    throw ConfigError(where + ".tail",
                      "must be >= 0 (0 = the default tail index)");
  }
  if (service.tail > 0.0 && !dist::takes_tail_index(service.dist)) {
    throw ConfigError(where + ".tail",
                      "tail index only parameterises the regularly-varying "
                      "families (Pareto | HeavyMixture), not " + service.dist);
  }
  if (service.tail > 0.0 && service.tail <= 1.0) {
    throw ConfigError(where + ".tail",
                      "tail index must be > 1 (the mean diverges otherwise)");
  }
}

// Each shard starts one worker thread and owns a ring of whole datagrams
// (about 2 KiB a slot).  Both caps sit far above the shipped configs (2
// shards, 1024 slots), so a typo cannot ask for millions of threads or for
// a ring whose power-of-two rounding overflows.
constexpr std::size_t kMaxServeShards = 256;
constexpr std::size_t kMaxServeRingCapacity = 65536;

void validate_common(const ScenarioSpec& spec) {
  if (spec.nodes == 0) throw ConfigError("nodes", "must be >= 1");
  if (!(spec.load > 0.0 && spec.load < 1.0)) {
    throw ConfigError("load", "utilization rho must be in (0, 1)");
  }
  if (spec.requests == 0) throw ConfigError("samples.requests", "must be >= 1");
  if (!(spec.warmup_fraction >= 0.0 && spec.warmup_fraction < 1.0)) {
    throw ConfigError("samples.warmup_fraction", "must be in [0, 1)");
  }
  fjsim::validate_node_group(spec.group, "group");

  if (spec.serve.udp_port > 65535) {
    throw ConfigError("serve.udp_port", "must be in [0, 65535]");
  }
  if (spec.serve.tcp_port > 65535) {
    throw ConfigError("serve.tcp_port", "must be in [0, 65535]");
  }
  if (spec.serve.service > 65535) {
    throw ConfigError("serve.service", "must be in [0, 65535]");
  }
  if (spec.serve.udp_port != 0 && spec.serve.udp_port == spec.serve.tcp_port) {
    throw ConfigError("serve.tcp_port", "must differ from serve.udp_port");
  }
  if (spec.serve.shards == 0 || spec.serve.shards > kMaxServeShards) {
    throw ConfigError("serve.shards",
                      "must be in [1, " + std::to_string(kMaxServeShards) + "]");
  }
  if (!(spec.serve.window_seconds > 0.0)) {
    throw ConfigError("serve.window_seconds", "must be > 0");
  }
  if (spec.serve.min_samples == 0) {
    throw ConfigError("serve.min_samples", "must be >= 1");
  }
  if (spec.serve.skew_tolerance < 0.0) {
    throw ConfigError("serve.skew_tolerance", "must be >= 0");
  }
  if (spec.serve.ring_capacity == 0 ||
      spec.serve.ring_capacity > kMaxServeRingCapacity) {
    throw ConfigError(
        "serve.ring_capacity",
        "must be in [1, " + std::to_string(kMaxServeRingCapacity) + "]");
  }
  if (!(spec.serve.liveness_timeout > 0.0)) {
    throw ConfigError("serve.liveness_timeout", "must be > 0");
  }
  if (!(spec.serve.sweep_interval > 0.0)) {
    throw ConfigError("serve.sweep_interval", "must be > 0");
  }
  if (!(spec.serve.stall_threshold > 0.0)) {
    throw ConfigError("serve.stall_threshold", "must be > 0");
  }
}

}  // namespace

void validate(const ScenarioSpec& spec) {
  validate_common(spec);
  fault::validate(spec.faults, "faults");
  if (spec.sampler == Sampler::kPerfect) {
    if (spec.topology != Topology::kHomogeneous &&
        spec.topology != Topology::kSubset) {
      throw ConfigError("sampler",
                        "perfect sampling supports only the homogeneous and "
                        "subset topologies");
    }
    if (spec.group.policy != fjsim::Policy::kSingle ||
        spec.group.replicas != 1) {
      throw ConfigError("sampler",
                        "perfect sampling requires plain single-server nodes "
                        "(group.policy \"single\", replicas = 1)");
    }
    if (!spec.faults.inert()) {
      throw ConfigError("sampler",
                        "perfect sampling requires an inert fault plan (the "
                        "coupling certificate covers the unmodified engines)");
    }
    if (spec.group_by_k) {
      throw ConfigError("sampler",
                        "perfect sampling does not bucket responses by k; "
                        "drop group_by_k or use sampler \"replay\"");
    }
    // The coupling certificate is a Lundberg bound: it only exists for
    // services that declare an MGF.  Query the capability and surface the
    // refusal at validation time, not mid-run.
    const dist::DistPtr service = make_service(spec.service);
    if (const dist::Capabilities caps = service->capabilities();
        !caps.has_mgf) {
      throw ConfigError("sampler",
                        "perfect sampling needs a service with a finite MGF; " +
                            spec.service.dist + " declares a " +
                            dist::tail_class_name(caps.tail) +
                            " tail with no MGF capability (use sampler "
                            "\"replay\")");
    }
  }
  if (!spec.faults.inert()) {
    switch (spec.topology) {
      case Topology::kHomogeneous:
        if (spec.group.policy != fjsim::Policy::kSingle ||
            spec.group.replicas != 1) {
          throw ConfigError("faults",
                            "fault injection requires single-server nodes "
                            "(group.policy \"single\", replicas = 1)");
        }
        if (spec.faults.mitigation.early_k >
            static_cast<int>(spec.nodes)) {
          throw ConfigError("faults.mitigation.early_k",
                            "must be <= nodes");
        }
        break;
      case Topology::kSubset:
        if (!spec.faults.inject.inert() ||
            spec.faults.mitigation.timeout != 0.0 ||
            spec.faults.mitigation.hedge_quantile != 0.0) {
          throw ConfigError("faults",
                            "the subset topology supports only "
                            "mitigation.early_k (early return at k); "
                            "injection / timeouts / hedging need the "
                            "homogeneous topology");
        }
        break;  // early_k bounds checked via the fjsim probe below
      default:
        throw ConfigError("faults",
                          "fault plans are supported on the homogeneous and "
                          "subset topologies");
    }
  }
  switch (spec.topology) {
    case Topology::kHomogeneous:
      validate_service(spec.service, "service");
      if (spec.k.mode != KSpec::Mode::kAll) {
        throw ConfigError("k.mode",
                          "homogeneous topology forks to every node (k = N); "
                          "use the subset topology for k <= N");
      }
      break;
    case Topology::kHeterogeneous:
      if (!spec.services.empty()) {
        if (spec.services.size() != spec.nodes) {
          throw ConfigError("services",
                            "explicit per-node list must have exactly `nodes` "
                            "entries (" +
                                std::to_string(spec.services.size()) + " vs " +
                                std::to_string(spec.nodes) + ")");
        }
        for (std::size_t i = 0; i < spec.services.size(); ++i) {
          validate_service(spec.services[i], "services[" + std::to_string(i) + "]");
        }
      } else if (!(spec.heterogeneity.spread >= 1.0)) {
        throw ConfigError("heterogeneity.spread",
                          "must be >= 1 (node means span [1, spread] ms) when "
                          "no explicit services list is given");
      }
      if (spec.group.policy != fjsim::Policy::kSingle || spec.group.replicas != 1) {
        throw ConfigError("group",
                          "heterogeneous topology models single-server nodes");
      }
      break;
    case Topology::kSubset: {
      validate_service(spec.service, "service");
      // Materialise and reuse the fjsim validator so the k-bound rules
      // (k_fixed <= N, 1 <= k_lo <= k_hi <= N) live in exactly one place.
      fjsim::SubsetConfig probe;
      static_cast<fjsim::NodeGroupConfig&>(probe) = spec.group;
      probe.num_nodes = spec.nodes;
      probe.service = dist::make_named("Exponential");  // placeholder; k-bounds only
      probe.load = spec.load;
      probe.num_requests = spec.requests;
      probe.warmup_fraction = spec.warmup_fraction;
      probe.k_mode = spec.k.mode == KSpec::Mode::kUniform ? fjsim::KMode::kUniformInt
                                                          : fjsim::KMode::kFixed;
      if (spec.k.mode == KSpec::Mode::kAll) {
        throw ConfigError("k.mode",
                          "subset topology needs k.mode = fixed | uniform | "
                          "redundancy-d");
      }
      if (spec.k.mode == KSpec::Mode::kRedundant &&
          spec.faults.mitigation.early_k != 0) {
        throw ConfigError("faults.mitigation.early_k",
                          "redundancy-d already returns at the first "
                          "finisher; drop the early_k mitigation");
      }
      probe.k_fixed = spec.k.fixed;
      probe.k_lo = spec.k.lo;
      probe.k_hi = spec.k.hi;
      probe.early_k = spec.k.mode == KSpec::Mode::kRedundant
                          ? 1
                          : spec.faults.mitigation.early_k;
      fjsim::validate(probe);
      break;
    }
    case Topology::kConsolidated:
      if (!(spec.workload.target_fraction > 0.0 &&
            spec.workload.target_fraction <= 1.0)) {
        throw ConfigError("workload.target_fraction", "must be in (0, 1]");
      }
      if (spec.workload.target_tasks < 1 ||
          static_cast<std::size_t>(spec.workload.target_tasks) > spec.nodes) {
        throw ConfigError("workload.target_tasks",
                          "must be in [1, nodes] (cannot fork more tasks than "
                          "nodes)");
      }
      if (!(spec.workload.min_mean_ms > 0.0) ||
          !(spec.workload.max_mean_ms >= spec.workload.min_mean_ms)) {
        throw ConfigError("workload.max_mean_ms",
                          "need 0 < min_mean_ms <= max_mean_ms");
      }
      if (!(spec.workload.target_mean_ms > 0.0)) {
        throw ConfigError("workload.target_mean_ms", "must be > 0");
      }
      if (!(spec.workload.service_floor >= 0.0)) {
        throw ConfigError("workload.service_floor", "must be >= 0");
      }
      if (spec.group.policy == fjsim::Policy::kRedundant) {
        throw ConfigError("group.policy",
                          "redundant-issue is not supported by the "
                          "trace-driven simulator");
      }
      break;
    case Topology::kPipeline:
      if (spec.stages.empty()) {
        throw ConfigError("stages", "pipeline needs at least one stage");
      }
      for (std::size_t i = 0; i < spec.stages.size(); ++i) {
        const std::string where = "stages[" + std::to_string(i) + "]";
        if (spec.stages[i].nodes == 0) {
          throw ConfigError(where + ".nodes", "must be >= 1");
        }
        validate_service(spec.stages[i].service, where + ".service");
      }
      break;
  }
}

// ------------------------------------------------------- materialisation

dist::DistPtr make_service(const ServiceSpec& service) {
  return dist::make_named(service.dist, service.mean, service.tail);
}

std::vector<dist::DistPtr> make_services(const ScenarioSpec& spec) {
  std::vector<dist::DistPtr> services;
  services.reserve(spec.nodes);
  if (!spec.services.empty()) {
    for (const ServiceSpec& s : spec.services) services.push_back(make_service(s));
    return services;
  }
  // Generative spread: node means log-uniform in [1, spread] ms -- the
  // inhomogeneous_scale construction, reproduced value-for-value so specs
  // can describe the same clusters the bench sweeps.
  util::Rng rng(spec.heterogeneity.seed);
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    const double mean =
        std::exp(rng.uniform(0.0, std::log(spec.heterogeneity.spread)));
    services.push_back(std::make_shared<dist::Exponential>(mean));
  }
  return services;
}

namespace {

void require_topology(const ScenarioSpec& spec, Topology expected,
                      const char* converter) {
  if (spec.topology != expected) {
    throw ConfigError("topology", std::string(converter) + ": spec has topology " +
                                      topology_name(spec.topology) +
                                      ", expected " + topology_name(expected));
  }
}

/// The replay engine a converted config runs on: the vector engine
/// wherever it accepts the config, the legacy engine otherwise.
template <typename Config>
fjsim::Engine pick_engine(const Config& config) {
  return fjsim::vector_supports(config) ? fjsim::Engine::kVector
                                        : fjsim::Engine::kLegacy;
}

}  // namespace

fjsim::HomogeneousConfig to_homogeneous_config(const ScenarioSpec& spec) {
  require_topology(spec, Topology::kHomogeneous, "to_homogeneous_config");
  fjsim::HomogeneousConfig config;
  static_cast<fjsim::NodeGroupConfig&>(config) = spec.group;
  config.num_nodes = spec.nodes;
  config.service = make_service(spec.service);
  config.load = spec.load;
  config.num_requests = spec.requests;
  config.warmup_fraction = spec.warmup_fraction;
  config.seed = spec.seed;
  config.max_parallelism = spec.max_parallelism;
  config.batch = spec.batch;
  // An active fault plan runs the scalar mitigated engine, which reads no
  // engine field: the config says so.
  config.engine = spec.faults.inert() ? pick_engine(config)
                                      : fjsim::Engine::kLegacy;
  return config;
}

fjsim::SubsetConfig to_subset_config(const ScenarioSpec& spec) {
  require_topology(spec, Topology::kSubset, "to_subset_config");
  fjsim::SubsetConfig config;
  static_cast<fjsim::NodeGroupConfig&>(config) = spec.group;
  config.num_nodes = spec.nodes;
  config.service = make_service(spec.service);
  config.load = spec.load;
  config.k_mode = spec.k.mode == KSpec::Mode::kUniform ? fjsim::KMode::kUniformInt
                                                       : fjsim::KMode::kFixed;
  config.k_fixed = spec.k.fixed;
  config.k_lo = spec.k.lo;
  config.k_hi = spec.k.hi;
  config.num_requests = spec.requests;
  config.warmup_fraction = spec.warmup_fraction;
  config.seed = spec.seed;
  config.group_by_k = spec.group_by_k;
  config.max_parallelism = spec.max_parallelism;
  config.batch = spec.batch;
  // Redundancy-d issues d replicas and takes the first finisher: the
  // subset engine expresses min-of-d as fan-out d with early return at 1.
  config.early_k = spec.k.mode == KSpec::Mode::kRedundant
                       ? 1
                       : spec.faults.mitigation.early_k;
  config.engine = pick_engine(config);
  return config;
}

fjsim::PerfectSamplerConfig to_perfect_config(const ScenarioSpec& spec) {
  if (spec.topology != Topology::kHomogeneous &&
      spec.topology != Topology::kSubset) {
    throw ConfigError("topology",
                      "to_perfect_config: spec has topology " +
                          topology_name(spec.topology) +
                          ", expected homogeneous or subset");
  }
  fjsim::PerfectSamplerConfig config;
  config.num_nodes = spec.nodes;
  config.service = make_service(spec.service);
  config.load = spec.load;
  config.subset = spec.topology == Topology::kSubset;
  config.k_mode = spec.k.mode == KSpec::Mode::kUniform ? fjsim::KMode::kUniformInt
                                                       : fjsim::KMode::kFixed;
  config.k_fixed = spec.k.fixed;
  config.k_lo = spec.k.lo;
  config.k_hi = spec.k.hi;
  config.early_k = spec.k.mode == KSpec::Mode::kRedundant ? 1 : 0;
  config.draws = spec.requests;
  config.seed = spec.seed;
  config.engine = pick_engine(config);
  return config;
}

fjsim::HeterogeneousConfig to_heterogeneous_config(const ScenarioSpec& spec) {
  require_topology(spec, Topology::kHeterogeneous, "to_heterogeneous_config");
  fjsim::HeterogeneousConfig config;
  config.services = make_services(spec);
  config.lambda = fjsim::lambda_for_max_load(config.services, spec.load);
  config.num_requests = spec.requests;
  config.warmup_fraction = spec.warmup_fraction;
  config.seed = spec.seed;
  config.max_parallelism = spec.max_parallelism;
  config.batch = spec.batch;
  config.engine = pick_engine(config);
  return config;
}

fjsim::ConsolidatedConfig to_consolidated_config(const ScenarioSpec& spec) {
  require_topology(spec, Topology::kConsolidated, "to_consolidated_config");
  trace::FacebookWorkload::Params params;
  params.min_mean_ms = spec.workload.min_mean_ms;
  params.max_mean_ms = spec.workload.max_mean_ms;
  params.target_fraction = spec.workload.target_fraction;
  params.target_tasks = spec.workload.target_tasks;
  params.target_mean_ms = spec.workload.target_mean_ms;
  params.max_tasks = static_cast<std::uint32_t>(spec.nodes);
  const trace::FacebookWorkload workload(params);

  fjsim::ConsolidatedConfig config;
  static_cast<fjsim::NodeGroupConfig&>(config) = spec.group;
  config.num_nodes = spec.nodes;
  config.load = spec.load;
  config.generator = workload.generator();
  config.mean_work_per_job = workload.estimate_mean_work(spec.workload.service_floor);
  config.num_jobs = spec.requests;
  config.warmup_fraction = spec.warmup_fraction;
  config.seed = spec.seed;
  config.service_floor = spec.workload.service_floor;
  return config;
}

fjsim::PipelineConfig to_pipeline_config(const ScenarioSpec& spec) {
  require_topology(spec, Topology::kPipeline, "to_pipeline_config");
  fjsim::PipelineConfig config;
  for (const StageSpec& stage : spec.stages) {
    fjsim::PipelineStageConfig s;
    s.num_nodes = stage.nodes;
    s.service = make_service(stage.service);
    config.stages.push_back(std::move(s));
  }
  config.load = spec.load;
  config.num_requests = spec.requests;
  config.warmup_fraction = spec.warmup_fraction;
  config.seed = spec.seed;
  config.max_parallelism = spec.max_parallelism;
  config.batch = spec.batch;
  config.engine = pick_engine(config);
  return config;
}

}  // namespace forktail::scenario
