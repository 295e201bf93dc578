#include "baselines/direct.hpp"

#include <cmath>
#include <stdexcept>

namespace forktail::baselines {

std::uint64_t required_samples(double percentile, double expected_exceedances) {
  if (!(percentile > 0.0 && percentile < 100.0)) {
    throw std::invalid_argument("required_samples: percentile must be in (0,100)");
  }
  if (!(expected_exceedances > 0.0)) {
    throw std::invalid_argument("required_samples: exceedances must be > 0");
  }
  const double tail = 1.0 - percentile / 100.0;
  // Tolerate floating-point residue (e.g. 100/0.001 = 100000.0000000001)
  // before taking the ceiling.
  return static_cast<std::uint64_t>(std::ceil(expected_exceedances / tail - 1e-6));
}

double measurement_time_seconds(double percentile, double lambda,
                                double expected_exceedances) {
  if (!(lambda > 0.0)) {
    throw std::invalid_argument("measurement_time_seconds: lambda must be > 0");
  }
  return static_cast<double>(required_samples(percentile, expected_exceedances)) /
         lambda;
}

}  // namespace forktail::baselines
