// Synthesis of a Facebook-2010-like workload (Section 4.3 of the paper).
//
// The paper generates its trace from published descriptions rather than raw
// data, and we do the same:
//   - job sizes (number of forked tasks) follow the nine-bin histogram
//     published with delay scheduling [43], uniform within each bin;
//   - each job gets a mean task service time spanning the wide range
//     reported for MapReduce workloads [13] (log-uniform across
//     [min_mean_ms, max_mean_ms]);
//   - individual task times are Normal(m, (2m)^2) truncated below, as in
//     Hawk [15].
// Target jobs (the application whose tail is predicted) are injected with a
// given probability and are statistically uniform: fixed task count and
// fixed mean task time.
#pragma once

#include <array>
#include <cstdint>

#include "fjsim/consolidated.hpp"
#include "util/rng.hpp"

namespace forktail::trace {

/// One bin of the job-size histogram: tasks uniform on [lo, hi] with
/// probability `probability`.
struct JobSizeBin {
  std::uint32_t lo = 1;
  std::uint32_t hi = 1;
  double probability = 0.0;
};

/// The nine Facebook bins from the delay-scheduling paper [43].
const std::array<JobSizeBin, 9>& facebook_job_size_bins();

class FacebookWorkload {
 public:
  struct Params {
    double min_mean_ms = 1.0;     ///< per-job mean task time, log-uniform low
    double max_mean_ms = 1000.0;  ///< ... high
    double target_fraction = 0.1; ///< fraction of jobs that are target jobs
    std::uint32_t target_tasks = 100;   ///< fixed k of target jobs
    double target_mean_ms = 50.0;       ///< fixed mean task time of target jobs
    std::uint32_t max_tasks = 0;  ///< clamp background k (0 = no clamp)
  };

  explicit FacebookWorkload(Params params);

  /// Sample a background job size from the bins (clamped to max_tasks).
  std::uint32_t sample_background_tasks(util::Rng& rng) const;

  /// Sample a background per-job mean task time (log-uniform).
  double sample_background_mean(util::Rng& rng) const;

  /// One job (target with probability target_fraction).
  fjsim::JobSpec sample_job(util::Rng& rng) const;

  /// Adapter for the consolidated simulator.
  fjsim::JobGenerator generator() const;

  /// E[tasks * E[task time]] per job (the quantity the simulator needs to
  /// hit a load target), with the truncation floor applied, in closed form:
  ///   f k_t mu(m_t) + (1 - f) E[min(K, max_tasks)] E_m[mu(m)],
  /// where mu(m) is the mean of TruncNormal(m, 2m) above the floor,
  /// E[min(K, max_tasks)] is summed exactly over the nine bins, and E_m
  /// (m log-uniform) is a Gauss-Legendre rule over log m.
  double estimate_mean_work(double service_floor) const;

  /// Expected number of tasks of a background job (analytic, unclamped).
  double mean_background_tasks() const;

  const Params& params() const noexcept { return params_; }

 private:
  Params params_;
};

}  // namespace forktail::trace
