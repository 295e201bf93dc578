#include "core/provisioning.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "stats/roots.hpp"

namespace forktail::core {

TaskBudget derive_task_budget(const TailSlo& slo, const TaskCountMixture& mixture,
                              double scv_hint) {
  if (!(slo.latency > 0.0)) {
    throw std::invalid_argument("derive_task_budget: SLO latency must be > 0");
  }
  if (!(scv_hint > 0.0)) {
    throw std::invalid_argument("derive_task_budget: scv_hint must be > 0");
  }
  // The GE family is scale-invariant: fixing the task SCV fixes alpha, and
  // every quantile scales linearly in the task mean.  Evaluate the mixture
  // quantile at unit mean, then scale to hit the SLO with equality.
  const TaskStats unit{1.0, scv_hint};
  const double x_unit = mixture_quantile(unit, mixture, slo.percentile);
  const double scale = slo.latency / x_unit;
  return TaskBudget{scale, scale * scale * scv_hint};
}

TaskBudget derive_task_budget(const TailSlo& slo, double k, double scv_hint) {
  return derive_task_budget(slo, TaskCountMixture::fixed(k), scv_hint);
}

namespace {

/// The search behind both provisioning entry points: the largest lambda in
/// [lambda_lo, lambda_hi] whose probed stats satisfy `within`, bisected to
/// tolerance * lambda_hi.  `who` names the entry point in errors.
template <typename Within>
ProvisioningResult max_lambda_within(const char* who, const NodeProbe& probe,
                                     Within&& within, double lambda_lo,
                                     double lambda_hi, double tolerance) {
  if (!(lambda_lo > 0.0 && lambda_hi > lambda_lo)) {
    throw std::invalid_argument(std::string(who) + ": bad lambda range");
  }
  // A zero tolerance asks for adjacent doubles, ~50 probes that are each
  // typically a simulation; a NaN one would skip the search and report
  // lambda_lo as the answer.
  if (!(tolerance > 0.0)) {
    throw std::invalid_argument(std::string(who) + ": tolerance must be > 0");
  }
  ProvisioningResult result;
  result.stats_at_max = probe(lambda_lo);
  if (!within(result.stats_at_max)) return result;  // infeasible
  result.feasible = true;
  // If even lambda_hi fits, report it directly.
  const TaskStats hi_stats = probe(lambda_hi);
  if (within(hi_stats)) {
    result.max_lambda = lambda_hi;
    result.stats_at_max = hi_stats;
    return result;
  }
  const auto fits = [&](double lambda) {
    const TaskStats s = probe(lambda);
    if (!within(s)) return false;
    result.stats_at_max = s;
    return true;
  };
  result.max_lambda =
      stats::bisect(fits, lambda_lo, lambda_hi, tolerance * lambda_hi).lo;
  return result;
}

}  // namespace

ProvisioningResult max_sustainable_lambda(const NodeProbe& probe,
                                          const TaskBudget& budget,
                                          double lambda_lo, double lambda_hi,
                                          double tolerance) {
  return max_lambda_within(
      "max_sustainable_lambda", probe,
      [&](const TaskStats& s) {
        return s.mean <= budget.mean && s.variance <= budget.variance;
      },
      lambda_lo, lambda_hi, tolerance);
}

ProvisioningResult max_lambda_for_slo(const NodeProbe& probe, const TailSlo& slo,
                                      const TaskCountMixture& mixture,
                                      double lambda_lo, double lambda_hi,
                                      double tolerance) {
  if (!(slo.latency > 0.0)) {
    throw std::invalid_argument("max_lambda_for_slo: SLO latency must be > 0");
  }
  return max_lambda_within(
      "max_lambda_for_slo", probe,
      [&](const TaskStats& s) {
        return mixture_quantile(s, mixture, slo.percentile) <= slo.latency;
      },
      lambda_lo, lambda_hi, tolerance);
}

double equivalent_load(std::span<const double> loads,
                       std::span<const double> latencies, double latency) {
  if (loads.size() != latencies.size() || loads.size() < 2) {
    throw std::invalid_argument("equivalent_load: need matching curves, >= 2 points");
  }
  // The curve is increasing in load; clamp outside the sampled range.
  if (latency <= latencies.front()) return loads.front();
  if (latency >= latencies.back()) return loads.back();
  for (std::size_t i = 1; i < loads.size(); ++i) {
    if (latency <= latencies[i]) {
      const double f =
          (latency - latencies[i - 1]) / (latencies[i] - latencies[i - 1]);
      return loads[i - 1] + f * (loads[i] - loads[i - 1]);
    }
  }
  return loads.back();
}

}  // namespace forktail::core
