// The two value types the certified brackets trade in: the normalised
// (n, k) fork-join input the linear-transformation bounds consume, and
// the [lower, upper] Bracket they produce.
//
// The baselines themselves -- the exponential fit, EAT and the linear
// bounds -- are entries of the scenario PredictorRegistry like every other
// model; the benches that need one model call its function directly.
//
// A Bracket is a [lower, upper] interval around the true stationary
// percentile.  `certified` marks a provable bound (the interval contains
// the true value by theorem, up to documented numerical-inversion
// tolerances); an uncertified bracket claims nothing.
#pragma once

#include <cmath>
#include <cstddef>

#include "dist/distribution.hpp"

namespace forktail::baselines {

/// Interval around a predicted percentile.  For certified brackets the
/// true stationary value lies in [lower, upper] by construction.
struct Bracket {
  double lower = 0.0;
  double upper = 0.0;
  bool certified = false;

  // Membership up to the documented numerical-inversion tolerance: a
  // predictor that evaluates the same transform as the bound through a
  // different quadrature can land a few ulps past the edge, and that must
  // not read as "provably wrong".
  bool contains(double x) const {
    const double slack = 1e-9 * (std::abs(lower) + std::abs(upper));
    return x >= lower - slack && x <= upper + slack;
  }
  double width() const { return upper - lower; }
};

/// What the linear-transformation bounds consume, normalised across
/// topologies.  The scenario layer adapts its Outcome into this shape.
struct BaselineInput {
  // (n, k) fork-join structure: each request forks `fanout` tasks and
  // completes at the `join`-th task completion (join == fanout is the full
  // barrier).  For mixture fan-outs (K ~ U[k_lo, k_hi]) fanout/join carry
  // the mean and k_lo/k_hi the range.
  int fanout = 1;
  int join = 1;
  int k_lo = 0;  ///< 0 unless the fan-out is a uniform mixture
  int k_hi = 0;
  double mean_fanout = 1.0;        ///< E[K] (the homogeneous-model k)
  std::size_t cluster_nodes = 1;   ///< N >= fanout (subset thinning)

  double lambda = 0.0;  ///< request arrival rate (per cluster)

  dist::DistPtr service;  ///< white-box service (nullptr = black-box)

  /// True when each fork node is a single-server FIFO queue (replicas == 1,
  /// policy "single") -- the M/G/1 structure the bounds need.
  bool single_server_fifo = false;
  /// True for the k = N homogeneous topology, whose task sojourns are
  /// associated (the tighter k = n upper bound).
  bool homogeneous_topology = false;
  /// True when the outcome came from a clean (n, k) fork-join system: the
  /// homogeneous or subset engines with an inert fault plan.  Certified
  /// brackets are only claimed for these.
  bool nk_clean = false;

  /// Per-node task arrival rate implied by the thinning (lambda E[K] / N).
  double node_lambda() const {
    return cluster_nodes == 0
               ? 0.0
               : lambda * mean_fanout / static_cast<double>(cluster_nodes);
  }
};

}  // namespace forktail::baselines
