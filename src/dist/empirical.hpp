// Tabulated empirical distribution: piecewise-linear quantile function over
// (probability, value) knots.
//
// Sampling by inverse transform with linear interpolation makes the
// distribution a mixture of uniforms over the knot segments, so all raw
// moments have closed forms -- which the white-box M/G/1 analysis needs.
#pragma once

#include <span>
#include <vector>

#include "dist/distribution.hpp"

namespace forktail::dist {

class Empirical final : public Distribution {
 public:
  /// `probs` strictly increasing from 0 to 1; `values` non-decreasing and
  /// non-negative; both the same length (>= 2).
  Empirical(std::vector<double> probs, std::vector<double> values,
            std::string label = "Empirical");

  double sample(util::Rng& rng) const override;
  void sample_n(util::Rng& rng, std::span<double> out) const override;
  double moment(int k) const override;
  double cdf(double x) const override;
  std::string name() const override { return label_; }
  Capabilities capabilities() const override;
  double mgf(double theta) const override;

  double quantile(double u) const;
  double min() const { return values_.front(); }
  double max() const { return values_.back(); }
  std::size_t num_knots() const noexcept { return probs_.size(); }

  /// Knot arrays (read-only).  The batched sampler builds an O(1) bucket
  /// lookup table over these instead of binary-searching per draw.
  std::span<const double> knot_probs() const noexcept { return probs_; }
  std::span<const double> knot_values() const noexcept { return values_; }

  /// Return a copy with all values multiplied by `factor` (moment
  /// calibration helper).
  Empirical scaled(double factor) const;

 private:
  std::vector<double> probs_;
  std::vector<double> values_;
  std::string label_;
  double moments_[3] = {0, 0, 0};

  void compute_moments();
};

}  // namespace forktail::dist
