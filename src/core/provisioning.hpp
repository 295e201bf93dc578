// Resource-provisioning support (Section 6 of the paper).
//
// Step (a): translate a tail-latency SLO into a platform-independent
// per-task performance budget -- the (mean, variance) pair of task response
// times that just meets the SLO through Eq. 9.
//
// Step (b): given a measurable fork-node prototype (anything that can
// report task stats at a given arrival rate), find the maximum sustainable
// task arrival rate whose measured stats stay within the budget.
#pragma once

#include <functional>

#include "core/predictor.hpp"

namespace forktail::core {

/// A tail-latency service level objective: the p-th percentile of request
/// response time must not exceed `latency`.
struct TailSlo {
  double percentile = 99.0;  ///< p, in (0, 100)
  double latency = 0.0;      ///< x_p bound, same unit as task times
};

/// Platform-independent task performance budget (Section 6, step (a)).
struct TaskBudget {
  double mean = 0.0;
  double variance = 0.0;

  TaskStats as_stats() const { return {mean, variance}; }
};

/// Derive the task budget for a service whose requests spawn K ~ mixture
/// tasks.  The single SLO constrains one degree of freedom; the second is
/// fixed by the task response-time squared-CV `scv_hint` (measure it on any
/// prototype, or use 1.0 -- the heavy-traffic exponential -- as the
/// conservative default).  The returned budget is the largest (mean,
/// variance) pair with V = scv_hint * E^2 satisfying the SLO with equality.
TaskBudget derive_task_budget(const TailSlo& slo, const TaskCountMixture& mixture,
                              double scv_hint = 1.0);

/// Fixed-k convenience.
TaskBudget derive_task_budget(const TailSlo& slo, double k, double scv_hint = 1.0);

/// A fork-node prototype: report measured task stats when driven at task
/// arrival rate lambda (step (b)'s "run tasks at increasing arrival rate").
using NodeProbe = std::function<TaskStats(double lambda)>;

struct ProvisioningResult {
  double max_lambda = 0.0;    ///< highest sustainable task arrival rate
  TaskStats stats_at_max{};   ///< measured stats at that rate
  bool feasible = false;      ///< false if even lambda_lo violates the budget
};

/// Binary-search the largest lambda in [lambda_lo, lambda_hi] whose probed
/// stats satisfy mean <= budget.mean and variance <= budget.variance.
/// Assumes stats grow with lambda (true for any work-conserving queue).
/// Bisects until the bracket is within tolerance * lambda_hi; throws
/// std::invalid_argument unless 0 < lambda_lo < lambda_hi and
/// tolerance > 0.
///
/// Caveat (and the reason max_lambda_for_slo exists): a budget derived
/// under an assumed SCV only guarantees the SLO along that shape.  If the
/// measured stats satisfy both moment bounds but with a much heavier CV,
/// the predicted quantile can still exceed the SLO.
ProvisioningResult max_sustainable_lambda(const NodeProbe& probe,
                                          const TaskBudget& budget,
                                          double lambda_lo, double lambda_hi,
                                          double tolerance = 1e-3);

/// Binary-search the largest lambda whose probed stats yield a PREDICTED
/// tail latency (Eq. 9 with the measured moments) within the SLO -- the
/// shape-robust version of step (b): no SCV assumption enters; the
/// measured mean AND variance both feed the check at every probe point.
/// Searches and validates as max_sustainable_lambda, and throws
/// std::invalid_argument unless slo.latency > 0.
ProvisioningResult max_lambda_for_slo(const NodeProbe& probe, const TailSlo& slo,
                                      const TaskCountMixture& mixture,
                                      double lambda_lo, double lambda_hi,
                                      double tolerance = 1e-3);

/// Sensitivity helper (Section 5): given a monotone simulated tail-vs-load
/// curve sampled at `loads` (percent) with values `latencies`, find the load
/// at which the curve reaches `latency` -- used to express a prediction
/// error as an equivalent over/under-provisioning margin.
double equivalent_load(std::span<const double> loads,
                       std::span<const double> latencies, double latency);

}  // namespace forktail::core
