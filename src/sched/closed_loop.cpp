#include "sched/closed_loop.hpp"

#include <algorithm>
#include <stdexcept>

#include "fjsim/node.hpp"
#include "util/rng.hpp"

namespace forktail::sched {

namespace {

/// Uniform random placement: append k distinct nodes to `out` by a partial
/// Fisher-Yates shuffle of `perm`, which stays a permutation of the nodes
/// between draws.
void draw_random_nodes(std::size_t k, std::vector<std::size_t>& perm,
                       util::Rng& rng, std::vector<std::size_t>& out) {
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t pick =
        i + static_cast<std::size_t>(rng.uniform_int(perm.size() - i));
    std::swap(perm[i], perm[pick]);
    out.push_back(perm[i]);
  }
}

}  // namespace

ClosedLoopResult run_closed_loop(const ClosedLoopConfig& config) {
  if (config.num_nodes == 0) {
    throw std::invalid_argument("run_closed_loop: no nodes");
  }
  if (!config.service) throw std::invalid_argument("run_closed_loop: null service");
  if (!(config.lambda > 0.0)) {
    throw std::invalid_argument("run_closed_loop: lambda <= 0");
  }
  if (config.tasks_per_request == 0 ||
      config.tasks_per_request > config.num_nodes) {
    throw std::invalid_argument("run_closed_loop: bad tasks_per_request");
  }
  if (!(config.slo.latency > 0.0)) {
    throw std::invalid_argument("run_closed_loop: SLO latency must be set");
  }

  util::Rng master(config.seed);
  util::Rng arrival_rng = master.split(0);
  util::Rng pick_rng = master.split(1);

  std::vector<fjsim::FastNode> nodes;
  nodes.reserve(config.num_nodes);
  for (std::size_t n = 0; n < config.num_nodes; ++n) {
    nodes.emplace_back(config.service.get(), 1, fjsim::Policy::kSingle,
                       master.split(100 + n));
  }

  core::OnlineTailPredictor monitors(config.num_nodes, config.window_seconds,
                                     config.min_window_samples);
  core::NodeStatsRegistry registry(config.num_nodes,
                                   /*staleness_limit=*/4.0 * config.report_interval);
  const core::AdmissionController controller(registry);

  const auto warmup = static_cast<std::uint64_t>(
      config.warmup_fraction * static_cast<double>(config.num_requests));

  ClosedLoopResult result;
  result.node_task_stats.resize(config.num_nodes);
  double predicted_acc = 0.0;
  std::uint64_t predicted_admissions = 0;  // excludes blind bootstrap admits

  // Scratch permutation for random placement.
  std::vector<std::size_t> perm(config.num_nodes);
  for (std::size_t i = 0; i < config.num_nodes; ++i) perm[i] = i;

  // Per-request scratch, hoisted out of the loop: at cluster scale
  // (1k nodes, 10M+ requests) per-request vector churn dominated the
  // admission path.
  std::vector<std::size_t> candidate;
  candidate.reserve(config.tasks_per_request);
  std::vector<core::TaskStats> candidate_stats;
  candidate_stats.reserve(config.tasks_per_request);
  std::vector<std::size_t> chosen;
  chosen.reserve(config.num_nodes);

  double t = 0.0;
  double next_report = config.report_interval;
  const double mean_interarrival = 1.0 / config.lambda;

  for (std::uint64_t j = 0; j < config.num_requests; ++j) {
    t += arrival_rng.exponential(mean_interarrival);

    // Periodic distributed reporting (Fig. 14): each node pushes its
    // current windowed moments to the central registry.
    while (t >= next_report) {
      for (std::size_t n = 0; n < config.num_nodes; ++n) {
        // Evict stale samples first: a node the scheduler routed around
        // must not keep reporting its last congested window forever.
        monitors.advance(n, next_report);
        if (const auto s = monitors.node_stats(n)) {
          registry.report(n, next_report, *s);
        }
      }
      next_report += config.report_interval;
    }

    const bool measured = j >= warmup;
    chosen.clear();
    bool admitted = true;
    if (config.admission_enabled && measured) {
      // Stage 1: RANDOM placement checked against the SLO (Eq. 5 on the
      // sampled subset).  Random-first placement is essential: always
      // routing to the currently-best k nodes herds the whole offered load
      // onto them between registry refreshes and saturates them.
      candidate.clear();
      draw_random_nodes(config.tasks_per_request, perm, pick_rng, candidate);
      candidate_stats.clear();
      bool have_stats = true;
      for (std::size_t n : candidate) {
        if (const auto s = registry.fresh_stats(n, t)) {
          candidate_stats.push_back(*s);
        } else {
          have_stats = false;
          break;
        }
      }
      if (!have_stats) {
        // Bootstrap: statistics not primed yet; admit blindly on the
        // random subset so the measurement loop can start.
        chosen = candidate;
      } else {
        const double predicted = core::inhomogeneous_quantile(
            candidate_stats, config.slo.percentile);
        if (predicted <= config.slo.latency) {
          chosen = candidate;
          predicted_acc += predicted;
          ++predicted_admissions;
        } else {
          // Stage 2: the random subset cannot meet the SLO -- ask the
          // controller for the best-k selection ("which k Fork nodes
          // should be used such that the tail-latency SLO can be met").
          const auto decision =
              controller.admit(config.tasks_per_request, config.slo, t);
          if (decision.admitted) {
            chosen = decision.chosen_nodes;
            predicted_acc += decision.predicted_latency;
            ++predicted_admissions;
          } else {
            admitted = false;  // even the best subset violates: reject
          }
        }
      }
    }

    if (measured) {
      ++result.offered;
      if (!admitted) {
        ++result.rejected;
        continue;
      }
      ++result.admitted;
    }

    if (chosen.empty()) {
      // Uniform random placement when the controller did not pick nodes
      // (warm-up or admission disabled).
      draw_random_nodes(config.tasks_per_request, perm, pick_rng, chosen);
    }

    double completion_max = 0.0;
    for (std::size_t node_id : chosen) {
      nodes[node_id].submit_task(
          t, j, [&](std::uint64_t, double arrival, double completion) {
            completion_max = std::max(completion_max, completion);
            monitors.record(node_id, completion, completion - arrival);
            if (measured) {
              result.node_task_stats[node_id].add(completion - arrival);
            }
          });
    }
    if (measured) {
      const double response = completion_max - t;
      if (config.record_responses) {
        result.admitted_responses.push_back(response);
      }
      result.response_histogram.record(response);
      if (response > config.slo.latency) ++result.violations;
    }
  }

  if (result.admitted > 0) {
    result.violation_rate = static_cast<double>(result.violations) /
                            static_cast<double>(result.admitted);
  }
  if (predicted_admissions > 0) {
    result.mean_predicted_latency =
        predicted_acc / static_cast<double>(predicted_admissions);
  }
  if (result.offered > 0) {
    result.admit_rate = static_cast<double>(result.admitted) /
                        static_cast<double>(result.offered);
  }
  for (const stats::Welford& node : result.node_task_stats) {
    result.pooled_task_stats.merge(node);
  }
  return result;
}

}  // namespace forktail::sched
