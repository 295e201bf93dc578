// EAT-style baseline: "Efficient Approximation for response-time Tails"
// in homogeneous fork-join networks, after Qiu, Pérez & Harrison [33].
//
// The original EAT combines the exact per-node response-time distribution
// of a MAP/PH/1 queue with corrections derived from analytically solved
// one- and two-node systems, at a computational cost controlled by a
// constant C.  The authors' implementation is unavailable, so this is a
// structural reimplementation with the same three ingredients:
//
//   1. exact marginal: the M/PH/1 response-time CDF recovered by numerical
//      inversion (Abate-Whitt Euler) of the Pollaczek-Khinchine transform;
//   2. two-node correction: the pairwise response-time dependence of two
//      fork-join siblings, obtained from a deterministic two-node Lindley
//      computation (playing the role of EAT's exactly-solved 2-node system)
//      and expressed as a Gaussian-copula correlation via Spearman's rho;
//   3. N-node combination: P(max <= x) under the exchangeable Gaussian
//      copula, evaluated by one-dimensional quadrature.
//
// `accuracy` scales both the inversion terms and the quadrature density,
// reproducing EAT's accuracy-vs-runtime trade-off (seconds at high C
// versus ForkTail's < 5 ms).
#pragma once

#include <cstdint>
#include <vector>

#include "dist/distribution.hpp"
#include "queueing/laplace.hpp"

namespace forktail::baselines {

struct EatConfig {
  int accuracy = 100;               ///< EAT's "C" knob
  std::uint64_t calibration_samples = 200000;  ///< two-node calibration length
  std::uint64_t calibration_seed = 98765;
};

/// Responses of the two-node calibration run behind EatPredictor's
/// correlation: two sibling M/G/1 queues fed by the same Poisson arrival
/// epochs with independent service draws -- the exactly-simulable two-node
/// fork-join that anchors the dependence correction.  The seed is fixed by
/// `config`, so the sample is a pure function of the inputs; the transient
/// fifth of `calibration_samples` is discarded.
struct SiblingResponses {
  std::vector<double> first;
  std::vector<double> second;
};
SiblingResponses eat_calibration_sample(double lambda,
                                        const dist::Distribution& service,
                                        const EatConfig& config);

class EatPredictor {
 public:
  /// Homogeneous fork-join of `num_nodes` M/G/1 nodes at task arrival rate
  /// `lambda`; the service distribution must expose an LST.
  EatPredictor(double lambda, dist::DistPtr service, std::size_t num_nodes,
               EatConfig config = {});

  /// Exact single-node response-time CDF (numerical inversion).
  double marginal_cdf(double x) const;

  /// Approximate request response-time CDF P(max over nodes <= x).
  double request_cdf(double x) const;

  /// p-th percentile of the request response time, p in (0, 100).
  double quantile(double p) const;

  /// Calibrated pairwise Gaussian-copula correlation: Spearman's rho of
  /// eat_calibration_sample(), mapped by 2 sin(pi rho / 6) into [0, 0.999].
  double copula_correlation() const noexcept { return correlation_; }

 private:
  double lambda_;
  dist::DistPtr service_;
  std::size_t num_nodes_;
  EatConfig config_;
  queueing::LaplaceInverter inverter_;
  double correlation_ = 0.0;
  int quad_points_ = 0;
  double mean_response_ = 0.0;

  void calibrate_correlation();
};

}  // namespace forktail::baselines
