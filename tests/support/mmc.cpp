#include "support/mmc.hpp"

#include <cmath>
#include <stdexcept>

namespace forktail::queueing {

Mmc::Mmc(double lambda_, double mu_, int servers_)
    : lambda(lambda_), mu(mu_), servers(servers_) {
  if (!(lambda > 0.0 && mu > 0.0) || servers < 1) {
    throw std::invalid_argument("Mmc: invalid parameters");
  }
  if (!(utilization() < 1.0)) throw std::invalid_argument("Mmc: unstable");
}

double Mmc::prob_wait() const {
  const double a = lambda / mu;  // offered load in Erlangs
  const int c = servers;
  // Compute Erlang-C via the numerically stable iterative Erlang-B formula:
  // B(0) = 1; B(k) = a B(k-1) / (k + a B(k-1)); C = B(c) / (1 - rho (1 - B(c))).
  double b = 1.0;
  for (int k = 1; k <= c; ++k) {
    b = a * b / (static_cast<double>(k) + a * b);
  }
  const double rho = utilization();
  return b / (1.0 - rho * (1.0 - b));
}

double Mmc::mean_wait() const {
  const double c_mu = static_cast<double>(servers) * mu;
  return prob_wait() / (c_mu - lambda);
}

double Mmc::mean_response() const { return mean_wait() + 1.0 / mu; }

double Mmc::response_variance() const {
  // W = 0 with prob 1-Pw, else Exp(theta) with theta = c*mu - lambda.
  const double pw = prob_wait();
  const double theta = static_cast<double>(servers) * mu - lambda;
  const double ew = pw / theta;
  const double ew2 = 2.0 * pw / (theta * theta);
  const double var_wait = ew2 - ew * ew;
  const double var_service = 1.0 / (mu * mu);
  return var_wait + var_service;
}

}  // namespace forktail::queueing
