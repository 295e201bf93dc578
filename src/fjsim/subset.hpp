// Fast simulator for Case 2 (k <= N): each request forks k tasks to k
// randomly chosen distinct nodes, with k fixed or uniformly distributed
// (Section 4.2 of the paper).
//
// Processed request-major in arrival order: each request samples its node
// subset by partial Fisher-Yates over a persistent permutation and pushes
// one task into each chosen node's Lindley state.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "dist/distribution.hpp"
#include "fjsim/config.hpp"
#include "fjsim/node.hpp"
#include "stats/welford.hpp"

namespace forktail::fjsim {

enum class KMode : std::uint8_t { kFixed, kUniformInt };

/// Node-group knobs (replicas / policy / redundant_delay) come from the
/// shared NodeGroupConfig base; see fjsim/config.hpp.
struct SubsetConfig : NodeGroupConfig {
  std::size_t num_nodes = 1000;
  dist::DistPtr service;
  /// Nominal per-server utilization; lambda = rho * N * replicas / (E[k] E[S]).
  double load = 0.8;
  KMode k_mode = KMode::kFixed;
  int k_fixed = 100;
  int k_lo = 0;
  int k_hi = 0;
  std::uint64_t num_requests = 10000;
  double warmup_fraction = 0.25;
  std::uint64_t seed = 1;
  /// Also bucket measured responses by the request's k (Table 3).
  bool group_by_k = false;
  /// Per-node service-demand prefetch size: 0 = default, 1 = scalar
  /// reference path (see HomogeneousConfig::batch).  The request-major loop
  /// draws at unpredictable nodes, so batching here buffers ahead inside
  /// each node rather than tiling the replay; the consumed stream -- and
  /// therefore every result -- is bit-identical for every value.
  std::size_t batch = 0;
  /// Early return at k: a request's response is its early_k-th task
  /// completion instead of its last (partial fork-join, the tail-mitigation
  /// layer's k-of-n policy).  0 = wait for every task.  Must be <= k_fixed
  /// (or <= k_lo under KMode::kUniformInt).  Aggregation-only: per-node
  /// replay state and every RNG stream are untouched, so early_k = 0 is
  /// bit-identical to the pre-knob engine.
  int early_k = 0;
  /// Replay implementation (see fjsim/config.hpp::Engine).  kVector
  /// accepts what vector_supports() does: replicas == 1, early_k == 0.
  Engine engine = Engine::kLegacy;
  /// Accepted for API uniformity with the other simulators: the vector
  /// subset engine replays request-major over shared node state, which is
  /// inherently sequential, so this knob does not change the execution
  /// schedule — results are (trivially) bit-identical for every value.
  std::size_t max_parallelism = 0;
};

struct SubsetResult {
  std::vector<double> responses;           ///< measured request responses
  stats::Welford task_stats;               ///< pooled task responses
  std::map<int, std::vector<double>> responses_by_k;  ///< when group_by_k
  double lambda = 0.0;
  double mean_k = 0.0;
  std::uint64_t total_tasks = 0;
};

SubsetResult run_subset(const SubsetConfig& config);

}  // namespace forktail::fjsim
