// Closed-loop tail-latency-SLO-guaranteed job scheduling (Section 6 of the
// paper, developed into a working system -- the paper's stated future
// work).
//
// The loop couples the three ForkTail ingredients end to end on a
// simulated cluster:
//   1. every fork node measures its task response-time mean/variance over
//      a sliding window (distributed measurement, Fig. 14);
//   2. nodes report to the central NodeStatsRegistry on a fixed interval;
//   3. each arriving request is admitted only if the AdmissionController
//      finds k fork nodes whose predicted tail (Eq. 5) meets the SLO; the
//      tasks are then dispatched to exactly those nodes.
//
// The key observable: the violation rate among ADMITTED requests stays
// near the SLO's tail mass (1 - p/100) even when the offered load exceeds
// what the SLO can support, because excess work is rejected up front --
// the "guarantee by design" the paper contrasts with reactive approaches.
#pragma once

#include <cstdint>
#include <vector>

#include "core/forktail.hpp"
#include "dist/distribution.hpp"
#include "stats/log2_histogram.hpp"
#include "stats/welford.hpp"

namespace forktail::sched {

struct ClosedLoopConfig {
  std::size_t num_nodes = 64;
  dist::DistPtr service;       ///< per-task service time distribution
  double lambda = 1.0;         ///< offered request arrival rate
  std::size_t tasks_per_request = 16;  ///< k
  core::TailSlo slo{99.0, 0.0};
  double window_seconds = 20.0;    ///< per-node measurement window
  double report_interval = 1.0;    ///< registry refresh period
  std::size_t min_window_samples = 50;
  std::uint64_t num_requests = 50000;  ///< offered requests (incl. warm-up)
  double warmup_fraction = 0.2;  ///< initial fraction admitted unconditionally
                                 ///< and excluded from the statistics
  std::uint64_t seed = 1;
  bool admission_enabled = true;  ///< false = admit everything (baseline)
  /// Keep the per-request response vector (the historical result shape).
  /// Cluster-scale runs (>= 10M requests) set this false and read the
  /// response histogram instead; every other output is unchanged.
  bool record_responses = true;
};

struct ClosedLoopResult {
  std::uint64_t offered = 0;    ///< measured (post warm-up) requests
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::vector<double> admitted_responses;
  std::uint64_t violations = 0;  ///< admitted responses exceeding the SLO
  double violation_rate = 0.0;   ///< violations / admitted
  double admit_rate = 0.0;       ///< admitted / offered
  /// Average Eq. 5 value over the requests admitted on a prediction
  /// (bootstrap requests admitted blind are excluded); 0 if there were none.
  double mean_predicted_latency = 0.0;
  /// Admitted (measured) responses pooled into the fixed log2-linear grid:
  /// tail percentiles without keeping every sample.
  stats::LatencyHistogram response_histogram;
  /// Exact per-node task response-time moments (measured tasks only).
  std::vector<stats::Welford> node_task_stats;
  stats::Welford pooled_task_stats;  ///< node-order merge of node_task_stats
};

ClosedLoopResult run_closed_loop(const ClosedLoopConfig& config);

}  // namespace forktail::sched
