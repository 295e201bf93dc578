// FaultPlan: declarative fault injection + tail mitigation for a scenario.
//
// Real fork-join services meet their SLOs through tail-mitigation
// mechanisms -- per-task timeouts with bounded retries, hedged duplicate
// requests, and partial (k-of-n) completion -- and they do so while nodes
// crash, run slow, and stall.  A FaultPlan is the value type that describes
// both halves for one node group: the fault processes injected into every
// node (crash / slowdown / blip windows, each an independent renewal
// process driven by its own util::Rng stream) and the mitigation policy the
// request path uses against them.  It extends the forktail.scenario.v1
// document under a "faults" key; scenario/spec.cpp declares its fields and
// reads and writes them with the rest of the document.
//
// The default-constructed plan is inert: every rate is zero and every
// mitigation knob is off, and an inert plan routes scenarios through the
// unmodified fjsim engines, bit-identical to a spec with no "faults" key.
#pragma once

#include <string>

#include "fjsim/config.hpp"

namespace forktail::fault {

/// Per-node fault injection: three independent renewal processes of fault
/// windows.  Rates are events per unit time (the service-time unit);
/// windows never overlap within one process.  An attempt is affected by the
/// window (if any) covering its start instant: a crash loses the attempt
/// and holds the server down until the window ends, a slowdown multiplies
/// its service demand, a blip adds a fixed stall (a GC-pause model).
struct FaultProcess {
  double crash_rate = 0.0;
  double crash_mean_duration = 0.0;  ///< exponential window length
  double slowdown_rate = 0.0;
  double slowdown_mean_duration = 0.0;  ///< exponential window length
  double slowdown_factor = 2.0;         ///< service multiplier (>= 1)
  double blip_rate = 0.0;
  double blip_duration = 0.0;  ///< fixed window length = added stall

  bool inert() const noexcept {
    return crash_rate == 0.0 && slowdown_rate == 0.0 && blip_rate == 0.0;
  }
  bool operator==(const FaultProcess&) const = default;
};

/// Tail-mitigation policy applied by the request path.
struct MitigationPolicy {
  /// Per-attempt timeout measured from the attempt's dispatch; 0 = off.
  /// A timed-out attempt frees its server at the deadline (cancellation).
  double timeout = 0.0;
  /// Retries after a timed-out attempt (requires timeout > 0).  Retry r is
  /// dispatched at deadline + backoff_base * backoff_mult^r with a freshly
  /// resampled service demand (an independent Rng::split stream, so results
  /// stay bit-reproducible).
  int max_retries = 0;
  double backoff_base = 0.0;
  double backoff_mult = 2.0;
  /// Launch one hedged duplicate per task once the task has been
  /// outstanding for the service distribution's q-quantile (0 = off).  The
  /// duplicate runs on the node's hedge lane; first completion wins and
  /// cancels the loser (cancel-on-first-complete).
  double hedge_quantile = 0.0;
  /// Early return once `early_k` of the request's tasks have completed
  /// (k-of-n fork-join); 0 = wait for all of them.
  int early_k = 0;

  bool inert() const noexcept {
    return timeout == 0.0 && hedge_quantile == 0.0 && early_k == 0;
  }
  bool operator==(const MitigationPolicy&) const = default;
};

struct FaultPlan {
  FaultProcess inject;
  MitigationPolicy mitigation;

  /// True when the plan changes nothing: no injection, no mitigation.
  /// Inert plans run on the unmodified engines (golden bit-identity).
  bool inert() const noexcept { return inject.inert() && mitigation.inert(); }
  bool operator==(const FaultPlan&) const = default;
};

/// Field-typed validation (throws fjsim::ConfigError); `where` prefixes the
/// offending field ("faults" from the scenario parser).
void validate(const FaultPlan& plan, const std::string& where);

}  // namespace forktail::fault
