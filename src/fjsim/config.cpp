#include "fjsim/config.hpp"

#include "fjsim/consolidated.hpp"
#include "fjsim/homogeneous.hpp"
#include "fjsim/subset.hpp"

namespace forktail::fjsim {

const char* engine_name(Engine engine) {
  return engine == Engine::kVector ? "vector" : "legacy";
}

void validate_node_group(const NodeGroupConfig& group, const std::string& where) {
  if (group.replicas < 1) {
    throw ConfigError(where + ".replicas", "must be >= 1");
  }
  if (group.policy == Policy::kSingle && group.replicas != 1) {
    throw ConfigError(where + ".replicas",
                      "Policy::kSingle requires exactly 1 replica");
  }
  if (group.policy == Policy::kRedundant && !(group.redundant_delay > 0.0)) {
    throw ConfigError(where + ".redundant_delay",
                      "must be > 0 under Policy::kRedundant");
  }
}

namespace {

void validate_sampling(std::uint64_t num_requests, double warmup_fraction,
                       const std::string& where) {
  if (num_requests == 0) {
    throw ConfigError(where + ".num_requests", "must be >= 1");
  }
  if (!(warmup_fraction >= 0.0 && warmup_fraction < 1.0)) {
    throw ConfigError(where + ".warmup_fraction", "must be in [0, 1)");
  }
}

void validate_load(double load, const std::string& where) {
  if (!(load > 0.0 && load < 1.0)) {
    throw ConfigError(where + ".load", "utilization must be in (0, 1)");
  }
}

}  // namespace

void validate(const HomogeneousConfig& config) {
  const std::string where = "HomogeneousConfig";
  if (config.num_nodes == 0) throw ConfigError(where + ".num_nodes", "must be >= 1");
  if (!config.service) throw ConfigError(where + ".service", "null service distribution");
  validate_load(config.load, where);
  validate_node_group(config, where);
  validate_sampling(config.num_requests, config.warmup_fraction, where);
}

void validate(const SubsetConfig& config) {
  const std::string where = "SubsetConfig";
  if (config.num_nodes == 0) throw ConfigError(where + ".num_nodes", "must be >= 1");
  if (!config.service) throw ConfigError(where + ".service", "null service distribution");
  validate_load(config.load, where);
  validate_node_group(config, where);
  validate_sampling(config.num_requests, config.warmup_fraction, where);
  // k-bounds, checked up front: the defaults (k_lo = k_hi = 0) are NOT a
  // runnable configuration under KMode::kUniformInt and must be rejected
  // loudly rather than silently simulating k = 0 requests.
  if (config.k_mode == KMode::kFixed) {
    if (config.k_fixed < 1) {
      throw ConfigError(where + ".k_fixed", "must be >= 1");
    }
    if (static_cast<std::size_t>(config.k_fixed) > config.num_nodes) {
      throw ConfigError(where + ".k_fixed",
                        "must be <= num_nodes (cannot fork more tasks than nodes)");
    }
  } else {
    if (config.k_lo < 1) {
      throw ConfigError(where + ".k_lo",
                        "must be >= 1 under KMode::kUniformInt (the default 0 "
                        "is not a runnable range)");
    }
    if (config.k_hi < config.k_lo) {
      throw ConfigError(where + ".k_hi", "must be >= k_lo");
    }
    if (static_cast<std::size_t>(config.k_hi) > config.num_nodes) {
      throw ConfigError(where + ".k_hi", "must be <= num_nodes");
    }
  }
  if (config.early_k < 0) {
    throw ConfigError(where + ".early_k", "must be >= 0 (0 = wait for all)");
  }
  if (config.early_k > 0) {
    // Every request must fork at least early_k tasks, or it could never
    // return: bound by the smallest possible fan-out.
    const int min_k = config.k_mode == KMode::kFixed ? config.k_fixed : config.k_lo;
    if (config.early_k > min_k) {
      throw ConfigError(where + ".early_k",
                        "must be <= the smallest request fan-out (" +
                            std::to_string(min_k) + ")");
    }
  }
}

void validate(const ConsolidatedConfig& config) {
  const std::string where = "ConsolidatedConfig";
  if (config.num_nodes == 0) throw ConfigError(where + ".num_nodes", "must be >= 1");
  if (!config.generator) throw ConfigError(where + ".generator", "null job generator");
  validate_load(config.load, where);
  validate_node_group(config, where);
  if (config.policy == Policy::kRedundant) {
    throw ConfigError(where + ".policy",
                      "redundant-issue is not supported by the trace-driven "
                      "simulator (jobs carry explicit per-task demands)");
  }
  validate_sampling(config.num_jobs, config.warmup_fraction, where);
  if (!(config.mean_work_per_job > 0.0)) {
    throw ConfigError(where + ".mean_work_per_job", "must be > 0");
  }
  if (!(config.service_floor >= 0.0)) {
    throw ConfigError(where + ".service_floor", "must be >= 0");
  }
}

}  // namespace forktail::fjsim
