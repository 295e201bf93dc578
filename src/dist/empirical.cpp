#include "dist/empirical.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dist/transforms.hpp"
#include "util/kahan.hpp"

namespace forktail::dist {

Empirical::Empirical(std::vector<double> probs, std::vector<double> values,
                     std::string label)
    : probs_(std::move(probs)), values_(std::move(values)), label_(std::move(label)) {
  if (probs_.size() != values_.size() || probs_.size() < 2) {
    throw std::invalid_argument("Empirical: need matching knot arrays, >= 2 knots");
  }
  if (probs_.front() != 0.0 || probs_.back() != 1.0) {
    throw std::invalid_argument("Empirical: probs must span [0, 1]");
  }
  for (std::size_t i = 1; i < probs_.size(); ++i) {
    if (!(probs_[i] > probs_[i - 1])) {
      throw std::invalid_argument("Empirical: probs must be strictly increasing");
    }
    if (values_[i] < values_[i - 1]) {
      throw std::invalid_argument("Empirical: values must be non-decreasing");
    }
  }
  if (values_.front() < 0.0) {
    throw std::invalid_argument("Empirical: negative values");
  }
  compute_moments();
}

void Empirical::compute_moments() {
  // Piecewise-linear quantile => mixture of uniforms over segments:
  // E[X^k] = sum_i w_i * (v_{i+1}^{k+1} - v_i^{k+1}) / ((k+1)(v_{i+1} - v_i)).
  for (int k = 1; k <= 3; ++k) {
    util::KahanSum acc;
    for (std::size_t i = 0; i + 1 < probs_.size(); ++i) {
      const double w = probs_[i + 1] - probs_[i];
      const double a = values_[i];
      const double b = values_[i + 1];
      double seg;
      if (b - a < 1e-300) {
        seg = std::pow(a, k);
      } else {
        seg = (std::pow(b, k + 1) - std::pow(a, k + 1)) /
              (static_cast<double>(k + 1) * (b - a));
      }
      acc.add(w * seg);
    }
    moments_[k - 1] = acc.value();
  }
}

double Empirical::quantile(double u) const {
  if (u <= 0.0) return values_.front();
  if (u >= 1.0) return values_.back();
  const auto it = std::upper_bound(probs_.begin(), probs_.end(), u);
  const auto hi = static_cast<std::size_t>(it - probs_.begin());
  const std::size_t lo = hi - 1;
  const double frac = (u - probs_[lo]) / (probs_[hi] - probs_[lo]);
  return values_[lo] + frac * (values_[hi] - values_[lo]);
}

double Empirical::sample(util::Rng& rng) const { return quantile(rng.uniform()); }

void Empirical::sample_n(util::Rng& rng, std::span<double> out) const {
  for (double& x : out) x = quantile(rng.uniform());
}

double Empirical::moment(int k) const {
  check_moment_order(k);
  return moments_[k - 1];
}

double Empirical::cdf(double x) const {
  if (x <= values_.front()) return 0.0;
  if (x >= values_.back()) return 1.0;
  // Find the segment containing x.  Values may repeat (flat segments);
  // upper_bound gives the right-most matching knot.
  const auto it = std::upper_bound(values_.begin(), values_.end(), x);
  const auto hi = static_cast<std::size_t>(it - values_.begin());
  const std::size_t lo = hi - 1;
  const double a = values_[lo];
  const double b = values_[hi];
  if (b - a < 1e-300) return probs_[hi];
  const double frac = (x - a) / (b - a);
  return probs_[lo] + frac * (probs_[hi] - probs_[lo]);
}

Capabilities Empirical::capabilities() const {
  Capabilities caps;
  caps.tail = TailClass::kLight;
  caps.has_mgf = true;
  caps.support_lo = values_.front();
  caps.support_hi = values_.back();
  return caps;
}

double Empirical::mgf(double theta) const {
  // Inverse-transform sampling over a piecewise-linear quantile table is a
  // mixture of uniforms over the knot segments: the MGF is the exact
  // probability-weighted sum of segment MGFs.
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < probs_.size(); ++i) {
    const double mass = probs_[i + 1] - probs_[i];
    if (mass <= 0.0) continue;
    total += mass * uniform_segment_mgf(theta, values_[i], values_[i + 1]);
  }
  return std::isfinite(total) ? total
                              : std::numeric_limits<double>::infinity();
}

Empirical Empirical::scaled(double factor) const {
  if (!(factor > 0.0)) throw std::invalid_argument("Empirical::scaled: factor <= 0");
  std::vector<double> values = values_;
  for (double& v : values) v *= factor;
  return Empirical(probs_, std::move(values), label_);
}

}  // namespace forktail::dist
