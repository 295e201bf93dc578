#include "scenario/spec.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

#include "dist/basic.hpp"
#include "dist/factory.hpp"
#include "dist/transforms.hpp"
#include "fjsim/vector_engine.hpp"
#include "trace/facebook.hpp"
#include "util/rng.hpp"

namespace forktail::scenario {

using fjsim::ConfigError;

// ---------------------------------------------------------- document format
//
// The forktail.scenario.v1 document is declared once, here: every enum in it
// has one name table, every struct lists its fields as (key, member) pairs,
// and one reader and one writer walk those lists (what the reader rejects is
// listed at parse_scenario() in spec.hpp).  A section groups members of the
// enclosing struct under a key of its own ("samples", "execution").

namespace {

constexpr std::pair<Topology, const char*> kTopologyNames[] = {
    {Topology::kHomogeneous, "homogeneous"},
    {Topology::kHeterogeneous, "heterogeneous"},
    {Topology::kSubset, "subset"},
    {Topology::kConsolidated, "consolidated"},
    {Topology::kPipeline, "pipeline"},
};
constexpr std::pair<Sampler, const char*> kSamplerNames[] = {
    {Sampler::kReplay, "replay"},
    {Sampler::kPerfect, "perfect"},
};
constexpr std::pair<fjsim::Policy, const char*> kPolicyNames[] = {
    {fjsim::Policy::kSingle, "single"},
    {fjsim::Policy::kRoundRobin, "round-robin"},
    {fjsim::Policy::kRedundant, "redundant"},
};
constexpr std::pair<KSpec::Mode, const char*> kKModeNames[] = {
    {KSpec::Mode::kAll, "all"},
    {KSpec::Mode::kFixed, "fixed"},
    {KSpec::Mode::kUniform, "uniform"},
    {KSpec::Mode::kRedundant, "redundancy-d"},
};

template <typename E>
using NameTable = std::span<const std::pair<E, const char*>>;

NameTable<Topology> names(Topology) { return kTopologyNames; }
NameTable<Sampler> names(Sampler) { return kSamplerNames; }
NameTable<fjsim::Policy> names(fjsim::Policy) { return kPolicyNames; }
NameTable<KSpec::Mode> names(KSpec::Mode) { return kKModeNames; }

template <typename E>
const char* name_of(E value) {
  for (const auto& [v, name] : names(value)) {
    if (v == value) return name;
  }
  throw std::invalid_argument("enum value outside its name table");
}

template <typename E>
E from_name(const std::string& name, const std::string& where) {
  std::string want;
  for (const auto& [v, n] : names(E{})) {
    if (name == n) return v;
    want += (want.empty() ? "" : " | ") + std::string(n);
  }
  throw ConfigError(where, "unknown name: " + name + " (want " + want + ")");
}

template <typename S, typename M>
struct Field {
  const char* key;
  M S::*member;
};

template <typename... Entries>
struct Section {
  const char* key;
  std::tuple<Entries...> entries;
};

constexpr auto fields(std::type_identity<ServiceSpec>) {
  using S = ServiceSpec;
  return std::tuple{Field{"dist", &S::dist}, Field{"mean", &S::mean},
                    Field{"tail", &S::tail}};
}

constexpr auto fields(std::type_identity<fjsim::NodeGroupConfig>) {
  using S = fjsim::NodeGroupConfig;
  return std::tuple{Field{"replicas", &S::replicas},
                    Field{"policy", &S::policy},
                    Field{"redundant_delay", &S::redundant_delay}};
}

constexpr auto fields(std::type_identity<HeterogeneitySpec>) {
  using S = HeterogeneitySpec;
  return std::tuple{Field{"spread", &S::spread}, Field{"seed", &S::seed}};
}

/// The "d" sugar key is read by hand (see read()).
constexpr auto fields(std::type_identity<KSpec>) {
  using S = KSpec;
  return std::tuple{Field{"mode", &S::mode}, Field{"fixed", &S::fixed},
                    Field{"lo", &S::lo}, Field{"hi", &S::hi}};
}

constexpr auto fields(std::type_identity<WorkloadSpec>) {
  using S = WorkloadSpec;
  return std::tuple{Field{"min_mean_ms", &S::min_mean_ms},
                    Field{"max_mean_ms", &S::max_mean_ms},
                    Field{"target_fraction", &S::target_fraction},
                    Field{"target_tasks", &S::target_tasks},
                    Field{"target_mean_ms", &S::target_mean_ms},
                    Field{"service_floor", &S::service_floor}};
}

constexpr auto fields(std::type_identity<StageSpec>) {
  using S = StageSpec;
  return std::tuple{Field{"nodes", &S::nodes}, Field{"service", &S::service}};
}

constexpr auto fields(std::type_identity<fault::FaultProcess>) {
  using S = fault::FaultProcess;
  return std::tuple{Field{"crash_rate", &S::crash_rate},
                    Field{"crash_mean_duration", &S::crash_mean_duration},
                    Field{"slowdown_rate", &S::slowdown_rate},
                    Field{"slowdown_mean_duration", &S::slowdown_mean_duration},
                    Field{"slowdown_factor", &S::slowdown_factor},
                    Field{"blip_rate", &S::blip_rate},
                    Field{"blip_duration", &S::blip_duration}};
}

constexpr auto fields(std::type_identity<fault::MitigationPolicy>) {
  using S = fault::MitigationPolicy;
  return std::tuple{Field{"timeout", &S::timeout},
                    Field{"max_retries", &S::max_retries},
                    Field{"backoff_base", &S::backoff_base},
                    Field{"backoff_mult", &S::backoff_mult},
                    Field{"hedge_quantile", &S::hedge_quantile},
                    Field{"early_k", &S::early_k}};
}

constexpr auto fields(std::type_identity<fault::FaultPlan>) {
  using S = fault::FaultPlan;
  return std::tuple{Field{"inject", &S::inject},
                    Field{"mitigation", &S::mitigation}};
}

constexpr auto fields(std::type_identity<ServeSpec>) {
  using S = ServeSpec;
  return std::tuple{Field{"udp_port", &S::udp_port},
                    Field{"tcp_port", &S::tcp_port},
                    Field{"service", &S::service},
                    Field{"shards", &S::shards},
                    Field{"window_seconds", &S::window_seconds},
                    Field{"min_samples", &S::min_samples},
                    Field{"skew_tolerance", &S::skew_tolerance},
                    Field{"ring_capacity", &S::ring_capacity},
                    Field{"liveness_timeout", &S::liveness_timeout},
                    Field{"sweep_interval", &S::sweep_interval},
                    Field{"stall_threshold", &S::stall_threshold}};
}

/// The "schema" tag and the required "topology" are checked by hand (see
/// parse_scenario()).
constexpr auto fields(std::type_identity<ScenarioSpec>) {
  using S = ScenarioSpec;
  return std::tuple{
      Field{"name", &S::name},
      Field{"topology", &S::topology},
      Field{"nodes", &S::nodes},
      Field{"group", &S::group},
      Field{"service", &S::service},
      Field{"services", &S::services},
      Field{"heterogeneity", &S::heterogeneity},
      Field{"k", &S::k},
      Field{"load", &S::load},
      Field{"workload", &S::workload},
      Field{"stages", &S::stages},
      Section{"samples",
              std::tuple{Field{"requests", &S::requests},
                         Field{"warmup_fraction", &S::warmup_fraction}}},
      Field{"sampler", &S::sampler},
      Field{"seed", &S::seed},
      Section{"execution",
              std::tuple{Field{"max_parallelism", &S::max_parallelism},
                         Field{"batch", &S::batch}}},
      Field{"group_by_k", &S::group_by_k},
      Field{"faults", &S::faults},
      Field{"serve", &S::serve}};
}

/// Dotted name of `key` inside the section `where` ("" = document root).
std::string field_name(const std::string& where, const std::string& key) {
  return where.empty() ? key : where + "." + key;
}

// ----------------------------------------------------------------- reader

template <typename T>
void read(const util::Json& j, T& out, const std::string& where);

/// Reads the listed entries of `obj` into `s`; `extra_keys` are accepted
/// but left to the caller.
template <typename S, typename Entries>
void read_entries(const util::Json& obj, S& s, const std::string& where,
                  const Entries& entries,
                  std::initializer_list<const char*> extra_keys = {}) {
  if (!obj.is_object()) throw ConfigError(where, "must be an object");
  for (const auto& [key, value] : obj.fields()) {
    const bool listed =
        std::apply([&](const auto&... e) { return ((key == e.key) || ...); },
                   entries) ||
        std::ranges::find(extra_keys, key) != extra_keys.end();
    if (!listed) {
      throw ConfigError(field_name(where, key),
                        "unknown key in scenario document");
    }
  }
  const auto read_one = [&](const auto& e) {
    if (!obj.contains(e.key)) return;
    const std::string path = field_name(where, e.key);
    if constexpr (requires { e.member; }) {
      read(obj.at(e.key), s.*e.member, path);
    } else {
      read_entries(obj.at(e.key), s, path, e.entries);
    }
  };
  std::apply([&](const auto&... e) { (read_one(e), ...); }, entries);
}

template <typename T>
void read(const util::Json& j, T& out, const std::string& where) {
  if constexpr (std::is_same_v<T, double>) {
    if (!j.is_number()) throw ConfigError(where, "must be a number");
    out = j.as_number();
  } else if constexpr (std::is_same_v<T, bool>) {
    if (!j.is_bool()) throw ConfigError(where, "must be true or false");
    out = j.as_bool();
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!j.is_string()) throw ConfigError(where, "must be a string");
    out = j.as_string();
  } else if constexpr (std::is_enum_v<T>) {
    std::string name;
    read(j, name, where);
    out = from_name<T>(name, where);
  } else if constexpr (std::is_integral_v<T>) {
    // Converting a double the type cannot hold is undefined, so the range
    // comes from the member's type: 2^digits is exact in a double and one
    // past the type's maximum.
    static_assert(std::is_unsigned_v<T> || std::is_same_v<T, int>);
    constexpr bool kUnsigned = std::is_unsigned_v<T>;
    constexpr int kDigits = std::numeric_limits<T>::digits;
    const char* kind =
        kUnsigned ? "must be a non-negative integer" : "must be an integer";
    if (!j.is_number()) throw ConfigError(where, kind);
    const double v = j.as_number();
    if (v != std::floor(v) || (kUnsigned && v < 0.0)) {
      throw ConfigError(where, kind);
    }
    const double limit = std::ldexp(1.0, kDigits);
    if (!(v < limit && v >= (kUnsigned ? 0.0 : -limit))) {
      throw ConfigError(where, kUnsigned ? "must be below 2^" +
                                               std::to_string(kDigits)
                                         : std::string("must fit in an int"));
    }
    out = static_cast<T>(v);
  } else if constexpr (requires { out.emplace_back(); }) {  // std::vector
    if (!j.is_array()) throw ConfigError(where, "must be an array");
    out.assign(j.items().size(), {});
    for (std::size_t i = 0; i < out.size(); ++i) {
      read(j.items()[i], out[i], where + "[" + std::to_string(i) + "]");
    }
  } else if constexpr (std::is_same_v<T, KSpec>) {
    read_entries(j, out, where, fields(std::type_identity<KSpec>{}), {"d"});
    if (j.contains("d")) {
      // "d" is redundancy-mode sugar for "fixed" (the replica count).
      const std::string path = field_name(where, "d");
      int d = 0;
      read(j.at("d"), d, path);
      if (out.fixed != 0 && out.fixed != d) {
        throw ConfigError(path, "conflicts with k.fixed (" + std::to_string(d) +
                                    " vs " + std::to_string(out.fixed) +
                                    "); give one of the two");
      }
      out.fixed = d;
    }
  } else {
    read_entries(j, out, where, fields(std::type_identity<T>{}));
  }
}

// ----------------------------------------------------------------- writer

template <typename T>
util::Json write(const T& value);

template <typename S, typename Entries>
util::Json write_entries(const S& s, const Entries& entries) {
  util::Json obj = util::Json::object();
  const auto write_one = [&](const auto& e) {
    if constexpr (requires { e.member; }) {
      obj.set(e.key, write(s.*e.member));
    } else {
      obj.set(e.key, write_entries(s, e.entries));
    }
  };
  std::apply([&](const auto&... e) { (write_one(e), ...); }, entries);
  return obj;
}

template <typename T>
util::Json write(const T& value) {
  if constexpr (std::is_same_v<T, double> || std::is_same_v<T, bool> ||
                std::is_same_v<T, std::string>) {
    return util::Json(value);
  } else if constexpr (std::is_enum_v<T>) {
    return util::Json(name_of(value));
  } else if constexpr (std::is_integral_v<T>) {
    return util::Json(static_cast<double>(value));
  } else if constexpr (requires { value.begin(); }) {  // std::vector
    util::Json items = util::Json::array();
    for (const auto& item : value) items.push_back(write(item));
    return items;
  } else {
    return write_entries(value, fields(std::type_identity<T>{}));
  }
}

}  // namespace

std::string topology_name(Topology topology) { return name_of(topology); }

Topology topology_from_name(const std::string& name) {
  return from_name<Topology>(name, "topology");
}

std::string sampler_name(Sampler sampler) { return name_of(sampler); }

Sampler sampler_from_name(const std::string& name) {
  return from_name<Sampler>(name, "sampler");
}

// ------------------------------------------------------------- serialize

util::Json to_json(const ScenarioSpec& spec) {
  util::Json doc = write(spec);
  doc.set("schema", kScenarioSchema);
  return doc;
}

// ----------------------------------------------------------------- parse

ScenarioSpec parse_scenario(const util::Json& doc) {
  if (!doc.is_object()) {
    throw ConfigError("scenario", "document must be a JSON object");
  }
  if (doc.contains("schema")) {
    std::string schema;
    read(doc.at("schema"), schema, "schema");
    if (schema != kScenarioSchema) {
      throw ConfigError("schema", "unsupported schema: " + schema + " (want " +
                                      kScenarioSchema + ")");
    }
  }
  ScenarioSpec spec;
  read_entries(doc, spec, "", fields(std::type_identity<ScenarioSpec>{}),
               {"schema"});
  if (!doc.contains("topology")) {
    throw ConfigError("topology", "required key missing");
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
