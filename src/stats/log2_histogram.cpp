#include "stats/log2_histogram.hpp"

namespace forktail::stats {

double LatencyHistogram::percentile(double pct) const noexcept {
  const std::uint64_t n = total();
  if (n == 0) return 0.0;
  if (pct < 0.0) pct = 0.0;
  if (pct > 100.0) pct = 100.0;
  // Rank on the nearest-rank definition: the smallest bucket whose
  // cumulative count reaches ceil(pct/100 * n).
  std::uint64_t target =
      static_cast<std::uint64_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  if (target == 0) target = 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cum += counts_[i];
    if (cum >= target) return bucket_upper_edge(i);
  }
  return bucket_upper_edge(kBuckets - 1);
}

}  // namespace forktail::stats
