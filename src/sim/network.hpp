// Complete fork-join system assembled on the event engine: Poisson request
// source, task dispatcher (k = N, fixed k <= N, or uniform random k), N
// fork nodes, join barrier, and metrics collection.
//
// This is the reference ("model-based") simulator; the Lindley fast path in
// src/fjsim produces statistically identical results orders of magnitude
// faster and is used for the large paper-scale sweeps.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/distribution.hpp"
#include "sim/forknode.hpp"
#include "stats/log2_histogram.hpp"
#include "stats/welford.hpp"

namespace forktail::sim {

enum class TaskCountMode : std::uint8_t {
  kAllNodes,   ///< k = N (Case 1 of the paper)
  kFixed,      ///< fixed k <= N, random node subset (Case 2, Scenario 1)
  kUniform,    ///< k ~ U[k_lo, k_hi], random node subset (Case 2, Scenario 2)
};

struct FjConfig {
  std::size_t num_nodes = 10;
  int replicas = 1;
  DispatchPolicy policy = DispatchPolicy::kSingle;
  double redundant_delay = 10.0;
  dist::DistPtr service;            ///< per-task service time distribution
  double lambda = 1.0;              ///< request arrival rate
  TaskCountMode k_mode = TaskCountMode::kAllNodes;
  int k_fixed = 0;
  int k_lo = 0;
  int k_hi = 0;
  std::uint64_t num_requests = 10000;   ///< measured requests (post warm-up)
  double warmup_fraction = 0.2;         ///< extra requests run before measuring
  std::uint64_t seed = 1;
  /// Keep the per-request response vector (true, the default, preserves the
  /// historical result shape).  Cluster-scale runs (10M+ requests) set this
  /// false and read the pooled stats / histogram instead, so memory stays
  /// bounded by the number of *in-flight* requests, not the request count.
  bool record_responses = true;
};

struct FjResult {
  std::vector<double> request_responses;     ///< one per measured request
                                             ///< (empty if !record_responses)
  stats::Welford pooled_task_stats;          ///< task response times, pooled
  std::vector<stats::Welford> node_task_stats;  ///< per fork node
  /// Request response times pooled into the fixed log2-linear histogram
  /// (tail percentiles without keeping every sample).  Measured requests
  /// only; filled whether or not responses are recorded.
  stats::LatencyHistogram response_histogram;
  double sim_end_time = 0.0;
  std::uint64_t total_tasks = 0;
  std::uint64_t redundant_issues = 0;
  std::uint64_t measured_requests = 0;
  std::uint64_t events_processed = 0;
};

/// Run the system to completion (all requests joined).
FjResult run_fj_simulation(const FjConfig& config);

/// Nominal per-server utilization implied by a config (ignores redundant
/// replicas): rho = lambda * E[k]/N * E[S] / replicas.
double nominal_load(const FjConfig& config);

/// Request arrival rate that produces the target nominal load.
double lambda_for_nominal_load(const FjConfig& config, double rho);

}  // namespace forktail::sim
