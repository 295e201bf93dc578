// Percentile estimation: exact order statistics on retained samples.
//
// Simulated "ground truth" tails use these estimators; bounded-memory
// streaming tails use the log2-linear histogram (stats/log2_histogram.hpp).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace forktail::stats {

/// Exact percentile of a sample using linear interpolation between order
/// statistics (type-7 / the numpy default).  `p` in [0, 100].  Sorts a copy.
double percentile(std::span<const double> samples, double p);

/// As above but for several percentiles, sorting once.  Every `p` is
/// validated (and an empty `ps` rejected) before the O(n log n) sort.
std::vector<double> percentiles(std::span<const double> samples,
                                std::span<const double> ps);

/// In-place variant: partially sorts `samples` (cheaper for single use).
double percentile_inplace(std::span<double> samples, double p);

/// Multi-percentile selection without a full sort: one pass of partitioned
/// `nth_element` calls, processed in ascending-p order so each selection is
/// restricted to the still-unpartitioned suffix.  O(n + m log n) expected
/// vs O(n log n) for sorting, and bit-identical to `percentiles()` on the
/// same data.  Reorders `samples`; `out[i]` corresponds to `ps[i]` in the
/// caller's original order.
std::vector<double> percentiles_inplace(std::span<double> samples,
                                        std::span<const double> ps);

}  // namespace forktail::stats
