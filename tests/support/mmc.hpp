// M/M/c queue: Erlang-C delay probability and response moments, the
// pooled-server closed form next to Mm1.
#pragma once

namespace forktail::queueing {

struct Mmc {
  double lambda = 0.0;
  double mu = 0.0;  ///< per-server service rate
  int servers = 1;

  Mmc(double lambda_, double mu_, int servers_);

  double utilization() const {
    return lambda / (mu * static_cast<double>(servers));
  }

  /// Erlang-C: probability an arrival must wait.
  double prob_wait() const;

  double mean_wait() const;
  double mean_response() const;

  /// Variance of response time (waiting time is 0 w.p. 1-C, else
  /// Exp(c*mu - lambda); service Exp(mu) independent).
  double response_variance() const;
};

}  // namespace forktail::queueing
