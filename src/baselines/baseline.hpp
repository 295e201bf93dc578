// Common interface over the prediction baselines: direct measurement,
// the exponential fit, EAT, and the certified linear-transformation
// bounds.
//
// Before this interface existed every bench sweep and the scenario
// predictor registry special-cased baseline dispatch: fig3 hand-built an
// EatPredictor, the ablation table hard-coded the "needs an LST" rule for
// its n/a cells, and the registry re-implemented each applicability gate.
// A Baseline is the normalised contract: it consumes one BaselineInput --
// the black-box measurements plus whatever white-box structure the
// scenario exposes -- decides applicability itself, and produces a point
// prediction and (optionally) a Bracket.
//
// A Bracket is a [lower, upper] interval around the true stationary
// percentile.  `certified` distinguishes provable bounds (the
// linear-transformation baseline: the interval contains the true value by
// theorem, up to documented numerical-inversion tolerances) from merely
// statistical intervals (the direct baseline's order-statistics CI, which
// holds only with confidence).
#pragma once

#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/predictor.hpp"
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

/// Everything any baseline consumes, normalised across topologies.  The
/// scenario layer adapts its Outcome into this shape; benches fill it
/// directly.
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
  double load = 0.0;    ///< nominal per-server utilization rho

  core::TaskStats task_stats;  ///< pooled black-box task moments
  dist::DistPtr service;       ///< white-box service (nullptr = black-box)
  std::span<const double> responses;  ///< measured responses (direct)

  /// True when each fork node is a single-server FIFO queue (replicas == 1,
  /// policy "single") -- the M/G/1 structure the white-box baselines need.
  bool single_server_fifo = false;
  /// True for the k = N homogeneous topology (EAT's calibration assumes it).
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

/// One baseline model: applicability gate + point prediction + bracket.
class Baseline {
 public:
  virtual ~Baseline() = default;
  virtual std::string name() const = 0;
  virtual bool applicable(const BaselineInput& in) const = 0;
  /// Predicted p-th percentile (ms), p in (0, 100).
  virtual double predict(const BaselineInput& in, double percentile) const = 0;
  /// predict() at each of `percentiles`, in order.  Default: one predict()
  /// per percentile; a baseline with a costly per-input setup overrides it
  /// to set up once.
  virtual std::vector<double> predict_many(
      const BaselineInput& in, std::span<const double> percentiles) const {
    std::vector<double> out;
    out.reserve(percentiles.size());
    for (const double p : percentiles) out.push_back(predict(in, p));
    return out;
  }
  /// [lower, upper] around the p-th percentile.  Default: the degenerate
  /// uncertified point bracket.
  virtual Bracket bracket(const BaselineInput& in, double percentile) const {
    const double point = predict(in, percentile);
    return Bracket{point, point, false};
  }
};

/// Name -> baseline dispatch, mirroring the scenario PredictorRegistry.
class BaselineRegistry {
 public:
  /// Process-wide registry of the fixed roster: direct / expfit / eat /
  /// linear-bounds.
  static BaselineRegistry& global();

  /// nullptr when unknown.
  const Baseline* find(const std::string& name) const;

 private:
  BaselineRegistry();

  std::vector<std::unique_ptr<Baseline>> baselines_;
};

}  // namespace forktail::baselines
