// M/M/1 exact results: closed forms the tests use as ground truth for the
// simulators, the M/G/1 moments, the Laplace inversion and EAT.
#pragma once

namespace forktail::queueing {

struct Mm1 {
  double lambda = 0.0;
  double mu = 0.0;

  Mm1(double lambda_, double mu_);

  double utilization() const { return lambda / mu; }
  double mean_wait() const;
  double mean_response() const;
  /// Response time of M/M/1 FCFS is Exp(mu - lambda): variance is the
  /// squared mean.
  double response_variance() const;
  /// P(T > x) = e^{-(mu-lambda)x}.
  double response_ccdf(double x) const;
  /// p-th percentile (p in [0,100)) of response time.
  double response_percentile(double p) const;
};

}  // namespace forktail::queueing
