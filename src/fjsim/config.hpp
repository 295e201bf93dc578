// Shared fork-node group configuration and typed configuration errors.
//
// Before this header existed, the (replicas, policy, redundant_delay)
// triple was duplicated verbatim across HomogeneousConfig, SubsetConfig,
// and ConsolidatedConfig -- a drift hazard (a new field or a changed
// default had to be applied three times).  The simulator configs now derive
// from NodeGroupConfig so the per-node-group knobs are defined exactly
// once, and invalid configurations surface as ConfigError (which names the
// offending field) from an up-front validate() pass instead of a bare
// std::invalid_argument thrown mid-construction.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "fjsim/node.hpp"

namespace forktail::fjsim {

/// Which replay implementation a simulator config selects.
///
///  * kLegacy -- the tiled Lindley engines.  Bit-identical for any batch
///    size; the default of a config built by hand (direct fjsim::run_*
///    callers and their goldens), and the only engine for the configs the
///    vector engine rejects (redundant policy, subset replicas != 1 or
///    early_k > 0, subset-mode perfect sampling) and for the fault and
///    consolidated simulators.
///  * kVector -- the SIMD engine (fjsim/vector_engine.hpp): lockstep
///    xoshiro lanes, batched inverse-CDF sampling, sharded whole-replay
///    execution.  The scenario layer (and so `forktail run` and the bench
///    sweeps) selects it for every config fjsim::vector_supports() accepts.
///    Internally deterministic (bit-identical for any thread count, batch
///    size, and dispatch ISA level) but NOT bit-identical to kLegacy -- its
///    polynomial log/exp kernels differ from libm in the last ulp.  Every
///    deviation is documented in docs/performance.md.
enum class Engine : std::uint8_t {
  kLegacy = 0,
  kVector = 1,
};

/// "legacy" or "vector": the engine's name in reports and CLI output.
const char* engine_name(Engine engine);

/// How one fork node's servers are organised: how many replica servers it
/// has, how tasks are dispatched to them, and (for the redundant-issue
/// policy) how long to wait before hedging a copy.
struct NodeGroupConfig {
  int replicas = 1;
  Policy policy = Policy::kSingle;
  /// Redundant-issue hedge delay (same time unit as the service times);
  /// only meaningful under Policy::kRedundant.
  double redundant_delay = 10.0;

  bool operator==(const NodeGroupConfig&) const = default;
};

/// Typed configuration error: carries the name of the offending field so
/// callers (CLI, scenario loader, tests) can report or assert on it
/// precisely.  Derives from std::invalid_argument so existing catch sites
/// keep working.
class ConfigError : public std::invalid_argument {
 public:
  ConfigError(std::string field, const std::string& message)
      : std::invalid_argument(field + ": " + message), field_(std::move(field)) {}

  const std::string& field() const noexcept { return field_; }

 private:
  std::string field_;
};

/// Validate the node-group knobs shared by every simulator; `where` names
/// the owning config in the error message.  Throws ConfigError.
void validate_node_group(const NodeGroupConfig& group, const std::string& where);

struct HomogeneousConfig;
struct SubsetConfig;
struct ConsolidatedConfig;

/// Up-front validation for the simulator configs.  Each throws ConfigError
/// naming the offending field; run_*() calls these before touching any
/// state, and the scenario layer calls them when materialising a spec.
void validate(const HomogeneousConfig& config);
void validate(const SubsetConfig& config);
void validate(const ConsolidatedConfig& config);

}  // namespace forktail::fjsim
