#include "fault/plan.hpp"

#include <cmath>

namespace forktail::fault {

using fjsim::ConfigError;

namespace {

void require_finite_nonneg(double v, const std::string& field) {
  if (!(v >= 0.0) || !std::isfinite(v)) {
    throw ConfigError(field, "must be finite and >= 0");
  }
}

}  // namespace

void validate(const FaultPlan& plan, const std::string& where) {
  const FaultProcess& f = plan.inject;
  require_finite_nonneg(f.crash_rate, where + ".inject.crash_rate");
  require_finite_nonneg(f.crash_mean_duration,
                        where + ".inject.crash_mean_duration");
  require_finite_nonneg(f.slowdown_rate, where + ".inject.slowdown_rate");
  require_finite_nonneg(f.slowdown_mean_duration,
                        where + ".inject.slowdown_mean_duration");
  require_finite_nonneg(f.blip_rate, where + ".inject.blip_rate");
  require_finite_nonneg(f.blip_duration, where + ".inject.blip_duration");
  if (f.crash_rate > 0.0 && !(f.crash_mean_duration > 0.0)) {
    throw ConfigError(where + ".inject.crash_mean_duration",
                      "must be > 0 when crash_rate > 0");
  }
  if (f.slowdown_rate > 0.0 && !(f.slowdown_mean_duration > 0.0)) {
    throw ConfigError(where + ".inject.slowdown_mean_duration",
                      "must be > 0 when slowdown_rate > 0");
  }
  if (!(f.slowdown_factor >= 1.0)) {
    throw ConfigError(where + ".inject.slowdown_factor",
                      "must be >= 1 (a factor below 1 is a speedup)");
  }
  if (f.blip_rate > 0.0 && !(f.blip_duration > 0.0)) {
    throw ConfigError(where + ".inject.blip_duration",
                      "must be > 0 when blip_rate > 0");
  }

  const MitigationPolicy& m = plan.mitigation;
  require_finite_nonneg(m.timeout, where + ".mitigation.timeout");
  if (m.max_retries < 0) {
    throw ConfigError(where + ".mitigation.max_retries", "must be >= 0");
  }
  if (m.max_retries > 0 && !(m.timeout > 0.0)) {
    throw ConfigError(where + ".mitigation.max_retries",
                      "retries need a timeout > 0 to trigger them");
  }
  require_finite_nonneg(m.backoff_base, where + ".mitigation.backoff_base");
  if (!(m.backoff_mult >= 1.0)) {
    throw ConfigError(where + ".mitigation.backoff_mult", "must be >= 1");
  }
  if (!(m.hedge_quantile >= 0.0 && m.hedge_quantile < 1.0)) {
    throw ConfigError(where + ".mitigation.hedge_quantile",
                      "must be in [0, 1) (0 = hedging off)");
  }
  if (m.early_k < 0) {
    throw ConfigError(where + ".mitigation.early_k",
                      "must be >= 0 (0 = wait for every task)");
  }
}

}  // namespace forktail::fault
