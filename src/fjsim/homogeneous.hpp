// Fast simulator for Case 1 (k = N): every request forks one task to every
// node.
//
// Because all nodes see the *same* arrival epochs (the defining correlation
// of fork-join systems) but independent service draws, the system can be
// simulated node-major: generate the shared arrival sequence once, then
// replay it through each fork node independently with the Lindley
// recursion, reducing the request response to the per-request max across
// nodes.  This is exact -- not an approximation -- and makes paper-scale
// sweeps (1000 nodes x 1e5 requests) run in seconds.  Node replays are
// independent, so they are distributed over the thread pool.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/distribution.hpp"
#include "fjsim/config.hpp"
#include "fjsim/node.hpp"
#include "stats/welford.hpp"

namespace forktail::fjsim {

/// Node-group knobs (replicas / policy / redundant_delay) come from the
/// shared NodeGroupConfig base; see fjsim/config.hpp.
struct HomogeneousConfig : NodeGroupConfig {
  std::size_t num_nodes = 10;
  dist::DistPtr service;
  /// Nominal per-server utilization rho in (0,1); the request arrival rate
  /// is derived as lambda = rho * replicas / E[S].
  double load = 0.8;
  std::uint64_t num_requests = 10000;  ///< measured (post warm-up)
  double warmup_fraction = 0.25;
  std::uint64_t seed = 1;
  /// Upper bound on worker parallelism for the node replay.  0 uses the
  /// global pool's full width; 1 runs inline on the calling thread without
  /// touching the pool at all — required when the simulation itself executes
  /// as a task on that pool (e.g. one cell of a parallel sweep), since
  /// nested `wait_idle` from inside a pool task would deadlock.
  /// Results are bit-identical for every value of this knob.
  std::size_t max_parallelism = 0;
  /// Service-demand tile size of the replay: 0 = default
  /// (kDefaultReplayBatch), else an explicit tile size (1 is a tile of one
  /// task).  Under kRedundant it sizes the node's demand buffer instead.
  /// Results are bit-identical for every value.
  std::size_t batch = 0;
  /// Replay implementation: kLegacy (tiled, all historical goldens) or
  /// kVector (SIMD engine; see fjsim/config.hpp::Engine and
  /// docs/performance.md).  kVector accepts what vector_supports() does.
  Engine engine = Engine::kLegacy;
};

struct HomogeneousResult {
  std::vector<double> responses;  ///< measured request response times
  stats::Welford task_stats;      ///< pooled measured task response times
  double lambda = 0.0;
  std::uint64_t redundant_issues = 0;
  std::uint64_t total_tasks = 0;
};

HomogeneousResult run_homogeneous(const HomogeneousConfig& config);

}  // namespace forktail::fjsim
