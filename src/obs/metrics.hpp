// Runtime observability: a lock-cheap metrics registry.
//
// The paper's operating point is *online* prediction -- microsecond
// latencies trusted at the 99th percentile -- which means the runtime
// itself has to be measurable: where do events, samples, and time go
// inside a sweep or a replay?  This header provides the three classic
// primitives plus scoped wall-clock spans:
//
//   * Counter   -- monotonically increasing u64, relaxed atomic add.
//   * Gauge     -- last-written / maximum double, CAS-based.
//   * Histogram -- the library's log2-linear bucket grid
//                  (stats/log2_histogram.hpp) with tail-quantile estimation
//                  (p50/p95/p99/...); every recording is a handful of
//                  relaxed atomics.
//   * ScopedSpan / SpanTimer -- RAII wall-clock duration into a Histogram.
//
// Instrumented call sites cache the metric reference once:
//
//   static obs::Counter& tasks = obs::Registry::global().counter("fjsim.tasks");
//   tasks.add(n);
//
// so the registry's mutex is only touched at first use per call site.
//
// Determinism note: metrics observe, they never feed back into simulation
// state or RNG streams, so the bit-identity contracts (batched vs scalar
// replay, --threads invariance) are unaffected by construction.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "stats/log2_histogram.hpp"

namespace forktail::obs {

/// Point-in-time copy of one histogram (see Histogram::snapshot).
struct HistogramSnapshot {
  struct Bucket {
    double lo = 0.0;  ///< inclusive lower bound
    double hi = 0.0;  ///< exclusive upper bound (+inf for overflow)
    std::uint64_t count = 0;
  };
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< exact observed extrema (not bucket bounds)
  double max = 0.0;
  /// Non-empty buckets only, ascending.
  std::vector<Bucket> buckets;

  /// Quantile estimate from the bucket counts: locate the bucket holding
  /// the rank and interpolate linearly inside it.  `q` in [0, 1].
  double quantile(double q) const;
  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};


class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  /// Raise the gauge to `v` if larger (high-water-mark semantics).
  void set_max(double v) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void add(double v) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  void record(double v) noexcept;
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  HistogramSnapshot snapshot() const;
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> counts_[stats::Log2Grid::kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Name -> metric directory.  Lookups take a mutex; returned references
/// stay valid for the registry's lifetime, so call sites cache them in
/// function-local statics and the hot path never sees the lock.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  };
  /// Sorted-by-name copy of every registered metric's current value.
  Snapshot snapshot() const;

  /// Zero every metric (handles stay valid).  Test / multi-run support.
  void reset();

  /// The process-wide registry all built-in instrumentation records into.
  static Registry& global();

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  struct Impl;
  Impl* impl_;
};

/// RAII wall-clock span: records elapsed SECONDS into `hist` on destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(Histogram& hist) noexcept
      : hist_(&hist), start_(std::chrono::steady_clock::now()) {}
  ~ScopedSpan() {
    const auto end = std::chrono::steady_clock::now();
    hist_->record(std::chrono::duration<double>(end - start_).count());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace forktail::obs
