// The one log2-linear latency histogram layout.
//
// 64 binades [2^-32, 2^32) of 8 linear sub-buckets each, plus an underflow
// bucket (v <= 0, NaN, and everything below 2^-32) and an overflow bucket:
// 514 buckets with a per-bucket relative width of at most 1/8.  The range
// spans ~0.2 ns..136 years when recording seconds and 1..4e9 when
// recording counts.  Indices come straight off the IEEE-754 exponent field
// and the top three mantissa bits, so recording costs no libm call.
//
// Two front ends share the grid:
//   * stats::LatencyHistogram (below) -- plain integer counts.  Merges are
//     exact and order-independent.
//   * obs::Histogram -- relaxed-atomic counts plus sum/min/max, recorded
//     concurrently by runtime instrumentation.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

namespace forktail::stats {

struct Log2Grid {
  static constexpr int kMinBinade = -32;
  static constexpr int kMaxBinade = 31;  ///< last covered binade
  static constexpr std::size_t kSubBuckets = 8;
  static constexpr std::size_t kMajors = kMaxBinade - kMinBinade + 1;
  static constexpr std::size_t kBuckets = kMajors * kSubBuckets + 2;
  static_assert(kSubBuckets == 8, "bucket_index reads exactly 3 mantissa bits");

  /// Bucket 0 catches v <= 0, NaN, subnormals and underflow; the last
  /// bucket catches +inf and overflow; the rest split each binade
  /// [2^e, 2^(e+1)) into kSubBuckets linear slices.
  static std::size_t bucket_index(double v) noexcept {
    if (!(v > 0.0)) return 0;
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    const int biased = static_cast<int>((bits >> 52) & 0x7ff);
    if (biased == 0x7ff) return kBuckets - 1;  // +inf (NaN handled above)
    const int binade = biased - 1023;  // v in [2^binade, 2^(binade+1))
    if (biased == 0 || binade < kMinBinade) return 0;
    if (binade > kMaxBinade) return kBuckets - 1;
    const auto major = static_cast<std::size_t>(binade - kMinBinade);
    const std::size_t sub = (bits >> 49) & (kSubBuckets - 1);
    return 1 + major * kSubBuckets + sub;
  }

  /// Exclusive upper edge of bucket `i` (+inf for the overflow bucket).
  static double bucket_upper_edge(std::size_t i) noexcept {
    if (i == 0) return std::ldexp(1.0, kMinBinade);
    if (i >= kBuckets - 1) return std::numeric_limits<double>::infinity();
    const std::size_t major = (i - 1) / kSubBuckets;
    const std::size_t sub = (i - 1) % kSubBuckets;
    const double lo = std::ldexp(1.0, static_cast<int>(major) + kMinBinade);
    return lo * (1.0 + static_cast<double>(sub + 1) /
                           static_cast<double>(kSubBuckets));
  }

  /// Inclusive lower edge of bucket `i` (0 for the underflow bucket).
  static double bucket_lower_edge(std::size_t i) noexcept {
    return i == 0 ? 0.0 : bucket_upper_edge(i - 1);
  }
};

/// Plain-count front end of the grid.
class LatencyHistogram : public Log2Grid {
 public:
  void record(double v) noexcept { ++counts_[bucket_index(v)]; }

  void merge(const LatencyHistogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  }

  std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (const std::uint64_t c : counts_) t += c;
    return t;
  }

  /// Smallest value v such that at least `pct`% of samples are <= the upper
  /// edge of v's bucket (upper-edge rule: a conservative tail estimate).
  /// Returns 0 when empty.
  double percentile(double pct) const noexcept;

  const std::uint64_t* counts() const noexcept { return counts_; }

 private:
  std::uint64_t counts_[kBuckets] = {};
};

}  // namespace forktail::stats
