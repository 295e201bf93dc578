// Sliding-window moment estimation.
//
// Section 3 of the paper: "Using the same example ... with only 20 seconds
// of measurement time, one can collect 1000 task samples ... With moving
// average for a given time window, e.g., 20 seconds, these means and
// variances and hence, the tail latency prediction, can be updated every
// tens of milliseconds."  This module provides exactly that primitive:
// count/mean/variance over the trailing time window, updatable per sample.
//
// Variance is computed on SHIFTED data: incremental sums are kept of
// (v - shift) and (v - shift)^2 where `shift` is pinned near the window
// mean at each resync.  The naive E[X^2] - E[X]^2 form cancels
// catastrophically when mean >> stddev (millisecond-scale responses with
// microsecond jitter silently clamp to zero variance, corrupting the GE
// moment fit downstream); shifting makes the subtraction operate on
// same-magnitude quantities.
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>

#include "stats/welford.hpp"
#include "util/kahan.hpp"

namespace forktail::stats {

/// Running sums of (v - shift) and (v - shift)^2: the shifted-data core of
/// the time-window estimator below.  The shift is pinned at the first value
/// of a fresh window and re-pinned at the window mean on every resync
/// (each kResyncInterval add/remove operations), which re-sums the window
/// exactly (Kahan) to bound the drift of the add/subtract pattern.
class ShiftedSums {
 public:
  /// Start a fresh window whose first value is `first`.
  void restart(double first) noexcept {
    shift_ = first;
    sum_ = 0.0;
    sum_sq_ = 0.0;
  }
  void add(double v) noexcept {
    const double c = v - shift_;
    sum_ += c;
    sum_sq_ += c * c;
    ++ops_;
  }
  void remove(double v) noexcept {
    const double c = v - shift_;
    sum_ -= c;
    sum_sq_ -= c * c;
    ++ops_;
  }
  void clear() noexcept {
    sum_ = 0.0;
    sum_sq_ = 0.0;
  }
  /// Resync from `window` (values via `value_of`) once the drift budget is
  /// spent.
  template <typename Window, typename ValueOf>
  void maybe_resync(const Window& window, ValueOf value_of);

  double mean(double n) const noexcept { return shift_ + sum_ / n; }
  double variance(double n) const noexcept {
    const double m = sum_ / n;
    const double v = sum_sq_ / n - m * m;
    return v > 0.0 ? v : 0.0;
  }

 private:
  static constexpr std::uint64_t kResyncInterval = 1u << 16;

  double shift_ = 0.0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  std::uint64_t ops_ = 0;
};

template <typename Window, typename ValueOf>
void ShiftedSums::maybe_resync(const Window& window, ValueOf value_of) {
  if (ops_ < kResyncInterval) return;
  util::KahanSum raw;
  for (const auto& item : window) raw.add(value_of(item));
  shift_ = window.empty() ? 0.0
                          : raw.value() / static_cast<double>(window.size());
  util::KahanSum s;
  util::KahanSum s2;
  for (const auto& item : window) {
    const double c = value_of(item) - shift_;
    s.add(c);
    s2.add(c * c);
  }
  sum_ = s.value();
  sum_sq_ = s2.value();
  ops_ = 0;
}

/// Moments over a sliding *time* window.  Samples are (timestamp, value)
/// with non-decreasing timestamps; samples older than `window` relative to
/// the most recent insertion (or an explicit advance) are evicted.
class WindowedMoments {
 public:
  explicit WindowedMoments(double window_seconds);

  void add(double timestamp, double value);

  /// Evict samples older than `now - window` without adding a sample.
  void advance(double now);

  std::uint64_t count() const noexcept { return samples_.size(); }
  double mean() const noexcept;
  double variance() const noexcept;
  double window() const noexcept { return window_; }

  /// The window's (count, mean, variance) as a mergeable sketch.
  MomentSketch moments() const noexcept {
    return MomentSketch::of(count(), mean(), variance());
  }

 private:
  struct Sample {
    double t;
    double v;
  };

  void evict(double now);
  void maybe_resync();

  double window_;
  std::deque<Sample> samples_;
  ShiftedSums sums_;
};

}  // namespace forktail::stats
