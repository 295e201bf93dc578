#include "baselines/eat.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "dist/heavy.hpp"
#include "queueing/mg1.hpp"
#include "stats/roots.hpp"
#include "stats/spearman.hpp"
#include "util/rng.hpp"

namespace forktail::baselines {

namespace {
constexpr double kPi = 3.14159265358979323846;
}  // namespace

EatPredictor::EatPredictor(double lambda, dist::DistPtr service,
                           std::size_t num_nodes, EatConfig config)
    : lambda_(lambda),
      service_(std::move(service)),
      num_nodes_(num_nodes),
      config_(config),
      inverter_(std::max(20, config.accuracy / 2), 12, 18.4) {
  if (!service_) throw std::invalid_argument("EatPredictor: null service");
  if (!service_->has_lst()) {
    throw std::invalid_argument(
        "EatPredictor: requires a phase-type service distribution (LST)");
  }
  if (num_nodes_ == 0) throw std::invalid_argument("EatPredictor: no nodes");
  if (config_.accuracy < 10) {
    throw std::invalid_argument("EatPredictor: accuracy must be >= 10");
  }
  // Spearman's rho needs two responses; fewer give a NaN correlation.
  if (config_.calibration_samples < 2) {
    throw std::invalid_argument(
        "EatPredictor: calibration_samples must be >= 2");
  }
  quad_points_ = std::max(40, config_.accuracy);
  mean_response_ = queueing::mg1_response(lambda_, *service_).mean;
  calibrate_correlation();
}

SiblingResponses eat_calibration_sample(double lambda,
                                        const dist::Distribution& service,
                                        const EatConfig& config) {
  util::Rng rng(config.calibration_seed);
  util::Rng s1 = rng.split(1);
  util::Rng s2 = rng.split(2);
  const std::uint64_t n = config.calibration_samples;
  const std::uint64_t cut = n / 5;  // the transient fifth is discarded
  std::vector<double> r1(n - cut);
  std::vector<double> r2(n - cut);
  double t = 0.0;
  double free1 = 0.0;
  double free2 = 0.0;
  const double mean_ia = 1.0 / lambda;
  for (std::uint64_t i = 0; i < n; ++i) {
    t += rng.exponential(mean_ia);
    const double d1 = std::max(t, free1) + service.sample(s1);
    const double d2 = std::max(t, free2) + service.sample(s2);
    free1 = d1;
    free2 = d2;
    if (i >= cut) {
      r1[i - cut] = d1 - t;
      r2[i - cut] = d2 - t;
    }
  }
  return {std::move(r1), std::move(r2)};
}

void EatPredictor::calibrate_correlation() {
  const SiblingResponses sample =
      eat_calibration_sample(lambda_, *service_, config_);
  const double rho_s = stats::spearman(sample.first, sample.second);
  // Spearman -> Gaussian copula correlation.
  correlation_ = std::clamp(2.0 * std::sin(kPi * rho_s / 6.0), 0.0, 0.999);
}

double EatPredictor::marginal_cdf(double x) const {
  return queueing::mg1_response_cdf(lambda_, *service_, x, inverter_);
}

double EatPredictor::request_cdf(double x) const {
  const double f = marginal_cdf(x);
  if (f <= 0.0) return 0.0;
  if (f >= 1.0) return 1.0;
  if (num_nodes_ == 1) return f;
  const double r = correlation_;
  if (r <= 1e-6) {
    return std::exp(static_cast<double>(num_nodes_) * std::log(f));
  }
  // Exchangeable Gaussian copula: conditioned on the shared factor z,
  // the nodes are independent:
  //   P(max <= x) = Int phi(z) * Phi((q - sqrt(r) z)/sqrt(1-r))^N dz,
  // with q = Phi^{-1}(F(x)).
  const double q = dist::normal_quantile(std::clamp(f, 1e-15, 1.0 - 1e-15));
  const double sr = std::sqrt(r);
  const double s1r = std::sqrt(1.0 - r);
  const int m = quad_points_;
  const double zlo = -8.0;
  const double zhi = 8.0;
  const double dz = (zhi - zlo) / m;
  double acc = 0.0;
  for (int i = 0; i <= m; ++i) {
    const double z = zlo + dz * i;
    const double w = (i == 0 || i == m) ? 0.5 : 1.0;  // trapezoid
    const double cond = dist::normal_cdf((q - sr * z) / s1r);
    double term;
    if (cond <= 0.0) {
      term = 0.0;
    } else {
      term = std::exp(static_cast<double>(num_nodes_) * std::log(cond));
    }
    acc += w * dist::normal_pdf(z) * term;
  }
  return std::clamp(acc * dz, 0.0, 1.0);
}

double EatPredictor::quantile(double p) const {
  if (!(p > 0.0 && p < 100.0)) {
    throw std::invalid_argument("EatPredictor: p must be in (0,100)");
  }
  const double q = p / 100.0;
  // Bracket from the mean response upward; the request tail exceeds the
  // single-node mean for any q of interest.
  const double lo = 1e-9 * mean_response_;
  const double hi0 = mean_response_ * (4.0 + std::log(static_cast<double>(num_nodes_) + 1.0));
  return stats::brent_expand_upper(
      [&](double x) { return request_cdf(x) - q; }, lo, hi0,
      {.x_tolerance = 1e-9 * mean_response_, .f_tolerance = 0.0,
       .max_iterations = 300});
}

}  // namespace forktail::baselines
