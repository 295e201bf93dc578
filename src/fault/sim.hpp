// Mitigated homogeneous fork-join simulation under an active FaultPlan.
//
// The plain node-major replay (fjsim/homogeneous.hpp) assumes every task
// runs to completion on a healthy server; this engine simulates the same
// system -- identical arrival epochs, identical per-node service streams --
// with fault windows injected per node and the plan's mitigation policy
// executed on the request path: per-attempt timeouts with bounded
// backed-off retries, one hedged duplicate per task on a per-node hedge
// lane with cancel-on-first-complete, and k-of-n early return.
//
// Determinism: every random draw comes from a deterministic Rng::split
// stream of the config seed (arrivals: split(0); node n primary service:
// split(100+n); fault timelines: split((1<<32)+n) primary and
// split((2<<32)+n) hedge lane; retry resampling: split((3<<32)+n); hedge
// service: split((4<<32)+n)).  Same seed + same plan => bit-identical
// outcomes.  The engine is strictly opt-in: inert plans never reach it
// (the scenario layer routes them to the unmodified fjsim engines), so
// pre-existing goldens are bit-identical by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/plan.hpp"
#include "fjsim/homogeneous.hpp"
#include "stats/welford.hpp"

namespace forktail::fault {

/// What the injection and mitigation machinery actually did, for obs
/// counters and CI assertions.  "Injected" counters use first-hit
/// semantics: a fault window counts once it affects at least one attempt.
struct FaultCounters {
  std::uint64_t crashes = 0;
  std::uint64_t slowdowns = 0;
  std::uint64_t blips = 0;
  std::uint64_t hedges_launched = 0;
  std::uint64_t hedges_won = 0;  ///< hedge strictly beat the primary lane
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;          ///< attempt cancellations
  std::uint64_t dropped_requests = 0;  ///< measured requests that never completed
};

struct MitigatedResult {
  /// Measured request responses; dropped requests (a task lost to a crash
  /// with no surviving attempt) are excluded here and counted in
  /// `counters.dropped_requests`.
  std::vector<double> responses;
  /// Measured *mitigated* task responses (completion - arrival, after
  /// retries/hedging resolved; finite only).
  stats::Welford task_stats;
  /// Counterfactual first-attempt latencies on the primary lane (what the
  /// attempt would have taken with no timeout/hedge cancellation) -- the
  /// black-box measurement the degraded-mode predictor fits its GE to.
  /// Recording the counterfactual even for cancelled attempts keeps the
  /// sample uncensored (no survivor bias toward fast attempts).
  stats::Welford attempt_stats;
  /// Counterfactual hedge latencies measured from hedge launch.
  stats::Welford hedge_stats;
  double lambda = 0.0;
  /// Hedge launch delay actually used (service quantile at
  /// mitigation.hedge_quantile); 0 when hedging is off.
  double hedge_delay = 0.0;
  std::uint64_t total_tasks = 0;
  FaultCounters counters;
};

/// Run the homogeneous scenario under `plan`.  Requires the single-server
/// node policy (replicas == 1, Policy::kSingle); throws fjsim::ConfigError
/// otherwise.  Publishes the fault counters to the obs registry
/// ("fault.*") on completion.
MitigatedResult run_mitigated_homogeneous(const fjsim::HomogeneousConfig& config,
                                          const FaultPlan& plan);

/// Invert a service distribution's CDF at quantile q in [0, 1) by bisection
/// (Distribution exposes only cdf()).  Used for the hedge launch delay.
double dist_quantile(const dist::Distribution& d, double q);

}  // namespace forktail::fault
