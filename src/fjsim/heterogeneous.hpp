// Fast simulator for inhomogeneous clusters: k = N fork-join where every
// node has its OWN service-time distribution (heterogeneous hardware,
// uneven background load -- the conditions Section 3 of the paper gives
// for the fine-grained inhomogeneous expression, Eq. 4/5).
//
// Same node-major Lindley replay as the homogeneous runner, but with
// per-node distributions and per-node black-box statistics in the result,
// which is exactly what the inhomogeneous predictor consumes.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/distribution.hpp"
#include "fjsim/config.hpp"
#include "fjsim/node.hpp"
#include "stats/welford.hpp"

namespace forktail::fjsim {

struct HeterogeneousConfig {
  /// One service distribution per fork node (size = N).
  std::vector<dist::DistPtr> services;
  /// Request arrival rate.  Unlike the homogeneous config this is given
  /// directly (a single "load" is ill-defined across unequal nodes); use
  /// `lambda_for_max_load` to target the bottleneck utilization.
  double lambda = 1.0;
  std::uint64_t num_requests = 10000;  ///< measured (post warm-up)
  double warmup_fraction = 0.25;
  std::uint64_t seed = 1;
  /// Upper bound on worker parallelism for the node replay; 0 = pool width,
  /// 1 = inline on the calling thread (safe inside a pool task).  Results
  /// are bit-identical for every value (see HomogeneousConfig).
  std::size_t max_parallelism = 0;
  /// Service-demand tile size: 0 = default, else an explicit tile size
  /// (see HomogeneousConfig::batch).  Bit-identical for every value.
  std::size_t batch = 0;
  /// Replay implementation (see fjsim/config.hpp::Engine).
  Engine engine = Engine::kLegacy;
};

struct HeterogeneousResult {
  std::vector<double> responses;          ///< measured request responses
  std::vector<stats::Welford> node_stats; ///< per-node task responses
  double lambda = 0.0;
  double max_utilization = 0.0;           ///< bottleneck rho
};

HeterogeneousResult run_heterogeneous(const HeterogeneousConfig& config);

/// Checks `config` for both engines (at least one node, lambda > 0, no null
/// service, every node stable) and returns the bottleneck utilization.
/// Throws std::invalid_argument.
double checked_max_utilization(const HeterogeneousConfig& config);

/// Arrival rate at which the SLOWEST node reaches `rho` utilization
/// (every node sees the full request stream when k = N).
double lambda_for_max_load(const std::vector<dist::DistPtr>& services, double rho);

}  // namespace forktail::fjsim
