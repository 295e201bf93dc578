// Trace-driven consolidated-workload simulator (Case 3, Section 4.3).
//
// A single cluster of N fork nodes (3 replica servers each, round-robin)
// shared by a diverse background workload (Facebook-2010-like trace jobs)
// and a statistically-uniform target application whose tail latency is
// being predicted.  Jobs arrive Poisson; each job forks `tasks` tasks to
// that many randomly chosen distinct nodes; per-task service times are
// Normal(m, (2m)^2) truncated below, following Hawk [15].
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fjsim/config.hpp"
#include "fjsim/node.hpp"
#include "stats/special_functions.hpp"
#include "stats/welford.hpp"
#include "util/vec_math.hpp"
#include "util/vec_rng.hpp"

namespace forktail::fjsim {

/// One job drawn from the workload generator.
struct JobSpec {
  bool target = false;
  std::uint32_t tasks = 1;
  double mean_task_time = 1.0;  ///< per-job mean m; tasks ~ TruncNormal(m, 2m)
};

/// Produces the job stream (trace playback or synthesis).
using JobGenerator = std::function<JobSpec(util::Rng&)>;

/// The task times of one job with mean task time m: Normal(m, (2m)^2)
/// truncated below at `floor` (Hawk [15]), by inversion of one raw u64 per
/// task.  u maps into the retained mass, p = Phi(a) + u (1 - Phi(a)) with
/// a = (floor - m) / 2m, and x = m + 2m z(p): z is Acklam's central
/// rational up to 1 - 0.02425 and stats::normal_quantile above.  p never
/// falls below the central region, because a >= -1/2 for any floor >= 0.
/// The final clamp only absorbs the central rational's ~1e-9 error at
/// u ~ 0 (and a retained mass that rounds to zero).  Built once per job:
/// Phi(a) is the only per-job libm work.
class HawkTaskTimes {
 public:
  HawkTaskTimes(double mean, double floor)
      : mean_(mean),
        sigma_(2.0 * mean),
        floor_(floor),
        phi_a_(stats::normal_cdf((floor - mean) / sigma_)),
        mass_(1.0 - phi_a_) {}

  double operator()(std::uint64_t raw) const {
    constexpr double kCentralHigh = 1.0 - util::kNormalCentralLow;
    constexpr double kBelowOne = 0x1.fffffffffffffp-1;
    const double p = phi_a_ + util::bits_to_unit(raw) * mass_;
    const double z = p <= kCentralHigh
                         ? util::normal_quantile_central(p)
                         : stats::normal_quantile(p < kBelowOne ? p : kBelowOne);
    const double x = mean_ + sigma_ * z;
    return x < floor_ ? floor_ : x;
  }

 private:
  double mean_;
  double sigma_;
  double floor_;
  double phi_a_;
  double mass_;
};

/// Node-group knobs (replicas / policy / redundant_delay) come from the
/// shared NodeGroupConfig base; the consolidated cluster defaults to the
/// paper's three round-robin replica servers per node.  The redundant-issue
/// policy is rejected by validate(): jobs carry explicit per-task demands,
/// which the hedging node cannot replay.
struct ConsolidatedConfig : NodeGroupConfig {
  ConsolidatedConfig() {
    replicas = 3;
    policy = Policy::kRoundRobin;
  }

  std::size_t num_nodes = 100;
  double load = 0.8;  ///< per-server utilization target
  JobGenerator generator;
  /// E[tasks * E[task time]] per job, used to derive the job arrival rate:
  /// lambda = load * N * replicas / mean_work_per_job.
  double mean_work_per_job = 1.0;
  std::uint64_t num_jobs = 100000;  ///< measured jobs
  double warmup_fraction = 0.2;
  std::uint64_t seed = 1;
  double service_floor = 0.05;  ///< truncation floor for task times
};

struct ConsolidatedResult {
  std::vector<double> target_responses;  ///< measured target-job responses
  std::vector<int> target_ks;            ///< task count of each measured target job
  stats::Welford target_task_stats;      ///< pooled target task responses
  stats::Welford background_task_stats;  ///< pooled background task responses
  double lambda = 0.0;
  std::uint64_t total_tasks = 0;
};

ConsolidatedResult run_consolidated(const ConsolidatedConfig& config);

}  // namespace forktail::fjsim
