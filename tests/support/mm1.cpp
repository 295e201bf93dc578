#include "support/mm1.hpp"

#include <cmath>
#include <stdexcept>

namespace forktail::queueing {

Mm1::Mm1(double lambda_, double mu_) : lambda(lambda_), mu(mu_) {
  if (!(lambda > 0.0 && mu > 0.0)) {
    throw std::invalid_argument("Mm1: rates must be > 0");
  }
  if (!(lambda < mu)) throw std::invalid_argument("Mm1: unstable (lambda >= mu)");
}

double Mm1::mean_wait() const {
  const double rho = utilization();
  return rho / (mu - lambda);
}

double Mm1::mean_response() const { return 1.0 / (mu - lambda); }

double Mm1::response_variance() const {
  const double m = mean_response();
  return m * m;
}

double Mm1::response_ccdf(double x) const {
  return x <= 0.0 ? 1.0 : std::exp(-(mu - lambda) * x);
}

double Mm1::response_percentile(double p) const {
  if (!(p >= 0.0 && p < 100.0)) {
    throw std::invalid_argument("Mm1: p must be in [0,100)");
  }
  return -std::log(1.0 - p / 100.0) / (mu - lambda);
}

}  // namespace forktail::queueing
