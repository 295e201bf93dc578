#include "fault/predict.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "core/genexp.hpp"
#include "obs/metrics.hpp"
#include "stats/roots.hpp"

namespace forktail::fault {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fit a GE to measured moments, degrading (not aborting) on bad
/// telemetry: a non-positive variance falls back to the exponential
/// moment relation V = E^2, and a thin sample is flagged but still used.
/// Returns nullopt only when the mean itself is unusable.
std::optional<core::GenExp> fit_or_degrade(double mean, double variance,
                                           std::uint64_t count,
                                           const std::string& what,
                                           DegradedPrediction& out) {
  if (!(mean > 0.0) || !std::isfinite(mean)) {
    out.degraded = true;
    out.reasons.push_back(what + " mean is unusable (" +
                          std::to_string(mean) + ")");
    return std::nullopt;
  }
  if (count < kMinMomentSamples) {
    out.degraded = true;
    out.reasons.push_back(what + " telemetry thin (" + std::to_string(count) +
                          " samples < " + std::to_string(kMinMomentSamples) +
                          ")");
  }
  if (!(variance > 0.0) || !std::isfinite(variance)) {
    out.degraded = true;
    out.reasons.push_back(what +
                          " variance non-positive; assuming exponential");
    variance = mean * mean;
  }
  return core::GenExp::fit_moments(mean, variance);
}

/// The mitigated task completion law N(t) (possibly defective).
class TaskLaw {
 public:
  TaskLaw(const core::GenExp& primary, const core::GenExp& hedge,
          const MitigationPolicy& policy, double hedge_delay)
      : primary_(primary),
        hedge_(hedge),
        policy_(policy),
        hedge_delay_(hedge_delay),
        timeout_(policy.timeout > 0.0 ? policy.timeout : kInf) {}

  /// Geometric retry mixture G(t) over the primary lane.
  double primary_cdf(double t) const {
    if (!std::isfinite(timeout_)) return t > 0.0 ? primary_.cdf(t) : 0.0;
    const double p_timeout = 1.0 - primary_.cdf(timeout_);
    double mass = 0.0;
    double survive = 1.0;  // P(all earlier attempts timed out)
    double offset = 0.0;
    for (int r = 0; r <= policy_.max_retries; ++r) {
      const double local = t - offset;
      if (local > 0.0) {
        mass += survive * primary_.cdf(std::min(local, timeout_));
      }
      survive *= p_timeout;
      offset +=
          timeout_ + policy_.backoff_base * std::pow(policy_.backoff_mult, r);
    }
    return mass;
  }

  /// Min-of-two hedge transform N(t).
  double cdf(double t) const {
    const double g = primary_cdf(t);
    if (policy_.hedge_quantile <= 0.0) return g;
    const double th = t - hedge_delay_;
    if (th <= 0.0) return g;
    return 1.0 - (1.0 - g) * (1.0 - hedge_.cdf(th));
  }

  /// Limiting completion mass (1 unless every attempt can be exhausted).
  double limit_mass() const {
    if (policy_.hedge_quantile > 0.0) return 1.0;
    if (!std::isfinite(timeout_)) return 1.0;
    const double p_timeout = 1.0 - primary_.cdf(timeout_);
    return 1.0 - std::pow(p_timeout, policy_.max_retries + 1);
  }

 private:
  const core::GenExp& primary_;
  const core::GenExp& hedge_;
  const MitigationPolicy& policy_;
  double hedge_delay_;
  double timeout_;
};

/// P(at least k of n iid tasks with per-task CDF value `p` are done):
/// binomial upper tail, summed in log space so n in the thousands stays
/// finite.
double binomial_tail(double p, int n, int k) {
  if (k <= 0) return 1.0;
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  if (k == n) return std::pow(p, n);
  const double log_p = std::log(p);
  const double log_1p = std::log1p(-p);
  const double log_n_fact = std::lgamma(static_cast<double>(n) + 1.0);
  double sum = 0.0;
  for (int i = k; i <= n; ++i) {
    const double log_term =
        log_n_fact - std::lgamma(static_cast<double>(i) + 1.0) -
        std::lgamma(static_cast<double>(n - i) + 1.0) +
        static_cast<double>(i) * log_p + static_cast<double>(n - i) * log_1p;
    sum += std::exp(log_term);
  }
  return std::min(sum, 1.0);
}

}  // namespace

DegradedPrediction predict_mitigated(const MitigatedStats& stats,
                                     const MitigationPolicy& policy,
                                     int fanout, double percentile) {
  DegradedPrediction out;
  out.value = std::numeric_limits<double>::quiet_NaN();
  if (fanout < 1 || !(percentile > 0.0 && percentile < 1.0)) {
    out.degraded = true;
    out.reasons.push_back("invalid fanout/percentile request");
    return out;
  }

  const auto primary = fit_or_degrade(stats.attempt_mean,
                                      stats.attempt_variance,
                                      stats.attempt_count, "attempt", out);
  if (!primary) return out;

  // Hedge-lane law: fit its own moments when available, otherwise fall
  // back to the primary law (degraded -- the lanes see different queues).
  std::optional<core::GenExp> hedge;
  if (policy.hedge_quantile > 0.0) {
    if (stats.hedge_count == 0) {
      out.degraded = true;
      out.reasons.push_back(
          "hedge telemetry missing; assuming the primary-lane law");
    } else {
      hedge = fit_or_degrade(stats.hedge_mean, stats.hedge_variance,
                             stats.hedge_count, "hedge", out);
    }
  }

  const TaskLaw law(*primary, hedge ? *hedge : *primary, policy,
                    stats.hedge_delay);
  const int k = policy.early_k > 0 ? std::min(policy.early_k, fanout) : fanout;

  // Defective completion law: a timeout policy with bounded retries (and
  // no hedge) leaves mass unfinished forever.  The simulator reports
  // percentiles over *completed* requests, so condition on completion.
  const double task_mass = law.limit_mass();
  const double request_mass = binomial_tail(task_mass, fanout, k);
  double target = percentile;
  if (request_mass < 1.0 - 1e-9) {
    out.degraded = true;
    out.reasons.push_back("completion mass " + std::to_string(request_mass) +
                          " < 1; conditioning on completed requests");
    target = percentile * request_mass;
  }
  if (!(target > 0.0)) {
    out.reasons.push_back("no request ever completes under this policy");
    out.degraded = true;
    return out;
  }

  // Quantile by bisection with a doubling upper bracket.
  const auto request_cdf = [&](double t) {
    return binomial_tail(law.cdf(t), fanout, k);
  };
  double hi = std::max({stats.attempt_mean, stats.hedge_delay, 1e-9});
  int doublings = 0;
  while (request_cdf(hi) < target && doublings < 200) {
    hi *= 2.0;
    ++doublings;
  }
  if (doublings == 200) {
    out.degraded = true;
    out.reasons.push_back("target percentile unreachable numerically");
    return out;
  }
  out.value = stats::bisect([&](double t) { return request_cdf(t) < target; },
                            0.0, hi, 0.0, 1e-12)
                  .mid();
  obs::Registry::global().gauge("predict.degraded").set(out.degraded ? 1.0
                                                                     : 0.0);
  return out;
}

}  // namespace forktail::fault
