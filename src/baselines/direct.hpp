// Direct tail-latency measurement: the alternative ForkTail argues against
// (Section 2's 33-minute example).  Provides the sample-size arithmetic the
// online-prediction example and the sample-count ablation use to contrast
// measurement cost.
#pragma once

#include <cstdint>

namespace forktail::baselines {

/// Samples needed so that the expected number of observations beyond the
/// p-th percentile is `expected_exceedances` (the paper uses 100 for the
/// 99.9th percentile => 100k samples).
std::uint64_t required_samples(double percentile, double expected_exceedances = 100.0);

/// Wall-clock measurement time at the given request rate.
double measurement_time_seconds(double percentile, double lambda,
                                double expected_exceedances = 100.0);

}  // namespace forktail::baselines
