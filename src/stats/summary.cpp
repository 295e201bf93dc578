#include "stats/summary.hpp"

#include <stdexcept>

namespace forktail::stats {

double relative_error_pct(double predicted, double measured) {
  if (measured == 0.0) throw std::invalid_argument("relative error: measured == 0");
  return 100.0 * (predicted - measured) / measured;
}

}  // namespace forktail::stats
