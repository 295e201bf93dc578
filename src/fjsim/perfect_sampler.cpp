#include "fjsim/perfect_sampler.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "dist/transforms.hpp"
#include "fjsim/telemetry.hpp"
#include "fjsim/vector_engine.hpp"
#include "util/rng.hpp"

namespace forktail::fjsim {

namespace {

void validate(const PerfectSamplerConfig& config) {
  if (config.num_nodes == 0) {
    throw ConfigError("num_nodes", "must be >= 1");
  }
  if (!config.service) {
    throw ConfigError("service", "perfect sampler requires a service");
  }
  if (const dist::Capabilities caps = config.service->capabilities();
      !caps.has_mgf) {
    throw ConfigError(
        "service",
        "perfect sampling needs a Lundberg certificate, which requires a "
        "service with a finite MGF; " + config.service->name() +
            " declares a " + dist::tail_class_name(caps.tail) +
            " tail with no MGF capability (use the replay engine instead)");
  }
  if (!(config.load > 0.0 && config.load < 1.0)) {
    throw ConfigError("load", "must be in (0, 1)");
  }
  const auto n = static_cast<int>(config.num_nodes);
  int min_k = static_cast<int>(config.num_nodes);
  if (config.subset) {
    if (config.k_mode == KMode::kFixed) {
      if (config.k_fixed < 1 || config.k_fixed > n) {
        throw ConfigError("k_fixed", "must be in [1, num_nodes]");
      }
      min_k = config.k_fixed;
    } else {
      if (config.k_lo < 1 || config.k_hi < config.k_lo || config.k_hi > n) {
        throw ConfigError("k", "need 1 <= k_lo <= k_hi <= num_nodes");
      }
      min_k = config.k_lo;
    }
  }
  if (config.early_k < 0 || config.early_k > min_k) {
    throw ConfigError("early_k",
                      "must be in [0, min fan-out] (0 = full barrier)");
  }
  if (config.draws == 0) {
    throw ConfigError("draws", "must be >= 1");
  }
  if (!(config.epsilon > 0.0 && config.epsilon < 1.0)) {
    throw ConfigError("epsilon", "must be in (0, 1)");
  }
  if (!(config.theta_safety > 0.0 && config.theta_safety <= 1.0)) {
    throw ConfigError("theta_safety", "must be in (0, 1]");
  }
  if (config.check_interval == 0) {
    throw ConfigError("check_interval", "must be >= 1");
  }
}

}  // namespace

PerfectWalkParams perfect_walk_params(const PerfectSamplerConfig& config) {
  validate(config);
  const std::size_t n = config.num_nodes;
  const double es = config.service->moment(1);

  PerfectWalkParams params;
  params.mean_k = static_cast<double>(n);
  if (config.subset) {
    params.mean_k = config.k_mode == KMode::kFixed
                        ? static_cast<double>(config.k_fixed)
                        : 0.5 * static_cast<double>(config.k_lo + config.k_hi);
  }
  params.lambda = config.subset ? config.load * static_cast<double>(n) /
                                      (params.mean_k * es)
                                : config.load / es;
  const double mark_prob = params.mean_k / static_cast<double>(n);

  // The certificate exponent.  theta <= theta* keeps E[e^{theta inc}] <= 1
  // (h is convex with h(0) = 1), so Lundberg's inequality applies.
  params.theta = config.theta_safety *
                 dist::lundberg_root(*config.service, params.lambda, mark_prob);
  return params;
}

PerfectSampleResult run_perfect(const PerfectSamplerConfig& config) {
  if (config.engine == Engine::kVector) return run_perfect_vector(config);
  const PerfectWalkParams params = perfect_walk_params(config);
  const std::size_t n = config.num_nodes;
  const dist::Distribution& service = *config.service;
  const double theta = params.theta;

  PerfectSampleResult result;
  result.lambda = params.lambda;
  result.mean_k = params.mean_k;
  result.theta = theta;
  result.responses.reserve(static_cast<std::size_t>(config.draws));
  result.batch_task_stats.resize(kPerfectBatches);

  PerfectMetrics& metrics = PerfectMetrics::get();
  const util::Rng master(config.seed);
  // Per-draw scratch, reused across draws.
  std::vector<double> prefix(n);  // s_i: accumulated service mass
  std::vector<double> peak(n);    // M_i: running max of prefix - gap_sum
  std::vector<std::size_t> perm(n);
  std::vector<double> sojourns;
  sojourns.reserve(n);

  const double mean_gap = 1.0 / params.lambda;
  std::uint64_t total_steps = 0;
  std::uint64_t deepest = 0;

  for (std::uint64_t d = 0; d < config.draws; ++d) {
    util::Rng rng = master.split(d);
    std::fill(prefix.begin(), prefix.end(), 0.0);
    std::fill(peak.begin(), peak.end(), 0.0);
    if (config.subset) std::iota(perm.begin(), perm.end(), std::size_t{0});
    // Invariant: node i's reversed-walk prefix is prefix[i] - gap_sum and
    // its running max is peak[i] (>= 0, the empty prefix).  peak[i] only
    // moves when node i receives a service increment, so it is updated at
    // marks and read everywhere else.
    double gap_sum = 0.0;
    std::uint64_t steps = 0;
    for (;;) {
      for (std::uint64_t c = 0; c < config.check_interval; ++c) {
        gap_sum += rng.exponential(mean_gap);
        ++steps;
        if (!config.subset) {
          for (std::size_t i = 0; i < n; ++i) {
            prefix[i] += service.sample(rng);
            peak[i] = std::max(peak[i], prefix[i] - gap_sum);
          }
        } else {
          const int k =
              config.k_mode == KMode::kFixed
                  ? config.k_fixed
                  : static_cast<int>(rng.uniform_int(
                        static_cast<std::int64_t>(config.k_lo),
                        static_cast<std::int64_t>(config.k_hi)));
          for (int j = 0; j < k; ++j) {
            const std::size_t pick =
                static_cast<std::size_t>(j) +
                static_cast<std::size_t>(
                    rng.uniform_int(static_cast<std::uint64_t>(n - j)));
            std::swap(perm[static_cast<std::size_t>(j)], perm[pick]);
            const std::size_t node = perm[static_cast<std::size_t>(j)];
            prefix[node] += service.sample(rng);
            peak[node] = std::max(peak[node], prefix[node] - gap_sum);
          }
        }
      }
      // Certified stopping rule: P(any peak still grows) <= sum of
      // e^{-theta gap_i} over the per-node Lundberg bounds.
      double failure = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        failure += std::exp(-theta * (peak[i] - (prefix[i] - gap_sum)));
        if (failure > config.epsilon) break;
      }
      if (failure <= config.epsilon) break;
      if (steps >= config.max_steps) {
        throw std::runtime_error(
            "perfect sampler: coupling certificate did not coalesce within " +
            std::to_string(config.max_steps) +
            " reversed steps (load too close to 1?)");
      }
    }
    total_steps += steps;
    deepest = std::max(deepest, steps);
    metrics.depth.record(static_cast<double>(steps));

    // The tagged request observes the stationary workloads (PASTA) and
    // adds fresh service draws on its chosen nodes.
    sojourns.clear();
    stats::Welford& batch =
        result.batch_task_stats[perfect_batch(d, config.draws)];
    int join = config.early_k;
    if (!config.subset) {
      if (join == 0) join = static_cast<int>(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double t = peak[i] + service.sample(rng);
        result.task_stats.add(t);
        batch.add(t);
        sojourns.push_back(t);
      }
    } else {
      const int k = config.k_mode == KMode::kFixed
                        ? config.k_fixed
                        : static_cast<int>(rng.uniform_int(
                              static_cast<std::int64_t>(config.k_lo),
                              static_cast<std::int64_t>(config.k_hi)));
      if (join == 0) join = k;
      for (int j = 0; j < k; ++j) {
        const std::size_t pick =
            static_cast<std::size_t>(j) +
            static_cast<std::size_t>(
                rng.uniform_int(static_cast<std::uint64_t>(n - j)));
        std::swap(perm[static_cast<std::size_t>(j)], perm[pick]);
        const std::size_t node = perm[static_cast<std::size_t>(j)];
        const double t = peak[node] + service.sample(rng);
        result.task_stats.add(t);
        batch.add(t);
        sojourns.push_back(t);
      }
    }
    result.total_tasks += sojourns.size();
    auto nth = sojourns.begin() + (join - 1);
    std::nth_element(sojourns.begin(), nth, sojourns.end());
    result.responses.push_back(*nth);
  }

  metrics.draws.add(config.draws);
  metrics.steps.add(total_steps);
  result.mean_depth =
      static_cast<double>(total_steps) / static_cast<double>(config.draws);
  result.max_depth = deepest;
  return result;
}

}  // namespace forktail::fjsim
