// Streaming first/second moment estimation.
//
// This is the measurement primitive of the black-box model: each fork node
// only ever reports (count, mean, variance) of its task response times.
// MomentSketch is the one mergeable form of that triple; every pooled
// estimate in the library (Welford accumulators, per-node cluster stats,
// online-predictor windows, the serve daemon's shard merge) combines
// through its merge() so none of them re-derives the combine law.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>

namespace forktail::stats {

/// Mergeable (count, mean, M2) summary, where M2 is the sum of squared
/// deviations from the mean.  add() is Welford's update and merge() the
/// Chan et al. parallel combine, and add_block() merges a block's two-pass
/// moments: all stay exact in exact arithmetic and avoid the
/// E[X^2] - E[X]^2 cancellation of raw power sums.
struct MomentSketch {
  std::uint64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;

  /// The sketch of `n` samples with population mean and variance given.
  static MomentSketch of(std::uint64_t n, double mean,
                         double variance) noexcept {
    if (n == 0) return {};
    return {n, mean, variance * static_cast<double>(n)};
  }

  void add(double x) noexcept {
    ++count;
    const double delta = x - mean;
    mean += delta / static_cast<double>(count);
    const double delta2 = x - mean;
    m2 += delta * delta2;
  }

  /// Add a block of samples: the block's two-pass (count, mean, M2), merged
  /// in.  Each pass sums into four accumulators in a fixed order, so the
  /// result does not depend on the compiler reassociating anything.  A
  /// one-sample block is exactly add().
  void add_block(std::span<const double> xs) noexcept {
    if (xs.size() <= 1) {
      if (!xs.empty()) add(xs[0]);
      return;
    }
    const std::size_t n = xs.size();
    const std::size_t n4 = n & ~std::size_t{3};
    double s[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n4; i += 4) {
      for (std::size_t j = 0; j < 4; ++j) s[j] += xs[i + j];
    }
    for (std::size_t i = n4; i < n; ++i) s[i - n4] += xs[i];
    const double m = ((s[0] + s[1]) + (s[2] + s[3])) / static_cast<double>(n);
    double q[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n4; i += 4) {
      for (std::size_t j = 0; j < 4; ++j) {
        const double d = xs[i + j] - m;
        q[j] += d * d;
      }
    }
    for (std::size_t i = n4; i < n; ++i) {
      const double d = xs[i] - m;
      q[i - n4] += d * d;
    }
    merge({n, m, (q[0] + q[1]) + (q[2] + q[3])});
  }

  void merge(const MomentSketch& other) noexcept {
    if (other.count == 0) return;
    if (count == 0) {
      *this = other;
      return;
    }
    const double na = static_cast<double>(count);
    const double nb = static_cast<double>(other.count);
    const double delta = other.mean - mean;
    const double total = na + nb;
    mean += delta * nb / total;
    m2 += other.m2 + delta * delta * na * nb / total;
    count += other.count;
  }

  /// Population variance (divides by n); matches the moment definitions the
  /// model equations use.  Cancellation can leave m2 a hair below zero for
  /// near-constant data; clamp so a stddev never goes NaN.
  double variance() const noexcept {
    if (count == 0) return 0.0;
    return clamp(m2 / static_cast<double>(count));
  }

  /// Unbiased sample variance (divides by n-1).
  double sample_variance() const {
    if (count < 2) throw std::logic_error("sample_variance requires n >= 2");
    return clamp(m2 / static_cast<double>(count - 1));
  }

 private:
  static double clamp(double v) noexcept {
    return v > 0.0 ? v : (v == v ? 0.0 : v);  // clamp negatives, keep NaN
  }
};

/// MomentSketch plus the exact observed extremes.
class Welford {
 public:
  void add(double x) noexcept {
    m_.add(x);
    // A NaN sample poisons mean/m2 through the arithmetic above; poison
    // min/max explicitly too (plain comparisons would silently drop it and
    // leave the extremes disagreeing with the moments).
    if (std::isnan(x) || x < min_ || m_.count == 1) min_ = x;
    if (std::isnan(x) || x > max_ || m_.count == 1) max_ = x;
  }

  /// Merge another accumulator (parallel reduction; Chan et al.).
  void merge(const Welford& other) noexcept {
    if (other.count() == 0) return;
    if (count() == 0) {
      *this = other;
      return;
    }
    m_.merge(other.m_);
    if (std::isnan(other.min_) || other.min_ < min_) min_ = other.min_;
    if (std::isnan(other.max_) || other.max_ > max_) max_ = other.max_;
  }

  std::uint64_t count() const noexcept { return m_.count; }
  double mean() const noexcept { return m_.mean; }
  double variance() const noexcept { return m_.variance(); }
  double sample_variance() const { return m_.sample_variance(); }
  double stddev() const noexcept { return std::sqrt(variance()); }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

  /// Squared coefficient of variation V/E^2.
  double scv() const noexcept {
    return mean() != 0.0 ? variance() / (mean() * mean()) : 0.0;
  }

  void reset() noexcept { *this = Welford{}; }

  /// Reconstitute an accumulator from externally maintained state.  The
  /// vector replay engine keeps (count, mean, m2, min, max) in SIMD lane
  /// arrays and folds the lanes back into Welford objects for the standard
  /// merge path; `from_parts(0, ...)` yields the default (empty) state so
  /// idle lanes merge as no-ops.
  static Welford from_parts(std::uint64_t n, double mean, double m2,
                            double min, double max) noexcept {
    Welford w;
    if (n == 0) return w;
    w.m_ = {n, mean, m2};
    w.min_ = min;
    w.max_ = max;
    return w;
  }

 private:
  MomentSketch m_;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace forktail::stats
