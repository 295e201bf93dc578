// Certified [lower, upper] brackets for (n, k) fork-join latency, after
// the linear-transformation approach of Wang, Li, Shen & Zhou
// (arXiv 1707.08860).
//
// The repository's fork-join engines all reduce to an (n, k) system: a
// request forks n = `fanout` tasks onto single-server FIFO queues fed by
// common Poisson arrivals (possibly thinned over a larger cluster, the
// subset topology) and completes at its k = `join`-th task completion.
// The bracket on the p-th response-time quantile combines two provable
// bounds:
//
//   * Upper: Boole/Markov on the exceedance count -- P(X_(k:n) > t)
//     <= n P(T > t) / (n - k + 1) under ANY dependence among the task
//     sojourns, where T is the single-node M/G/1 sojourn at the thinned
//     node arrival rate.  For the homogeneous engine (every request forks
//     to all n nodes) the sojourns are additionally associated
//     (Esary-Proschan: increasing functions of the independent family of
//     negated interarrivals and service draws), which tightens the k = n
//     corner to q_p <= F_T^{-1}(p^{1/n}); the subset engine's thinning
//     marks are negatively dependent across nodes, so only the
//     dependence-free bound is claimed there.  F_T is exact for
//     exponential service, recovered by Pollaczek-Khinchine inversion when
//     the service has an LST, and replaced by the optimized Chernoff bound
//     on the PK transform otherwise (any service with an MGF; see
//     dist/transforms.hpp).
//   * Lower: a task's sojourn dominates its own service draw pathwise, and
//     order statistics are monotone, so q_p >= the p-quantile of the
//     join-th order statistic of `fanout` iid service draws -- the
//     regularized incomplete beta applied through the service CDF.  At
//     join == fanout the single-sojourn bound F_T^{-1}(p) tightens it.
//
// Both bounds hold for the non-purging engines the repository runs; a
// purging variant (tasks past the join are killed) only removes work, so
// it is dominated pathwise and the same interval contains it too.
#pragma once

#include "baselines/baseline.hpp"

namespace forktail::baselines {

/// Whether a certified bracket exists for `in`: a clean (n, k) system of
/// single-server FIFO nodes, a feasible join index, a stable node queue and
/// a service with an exact sojourn law, an LST or an MGF.
bool linear_bounds_applicable(const BaselineInput& in);

/// Certified [lower, upper] containing the true stationary `percentile`
/// (in (0, 100)) of the request response time.  The "linear-bounds"
/// predictor reports the upper edge, the SLO-safe one.  Requires
/// linear_bounds_applicable(in); otherwise returns the uncertified
/// [0, +inf] sentinel.
Bracket linear_bounds_bracket(const BaselineInput& in, double percentile);

}  // namespace forktail::baselines
