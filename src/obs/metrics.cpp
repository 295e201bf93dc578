#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>

namespace forktail::obs {

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  double cum = 0.0;
  for (const Bucket& b : buckets) {
    const double next = cum + static_cast<double>(b.count);
    if (next >= target) {
      if (!std::isfinite(b.hi)) return max;  // overflow bucket
      const double frac =
          b.count > 0 ? (target - cum) / static_cast<double>(b.count) : 0.0;
      const double x = b.lo + frac * (b.hi - b.lo);
      return std::clamp(x, min, max);
    }
    cum = next;
  }
  return max;
}

namespace {
void atomic_add(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace

void Histogram::record(double v) noexcept {
  counts_[stats::Log2Grid::bucket_index(v)].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  atomic_min(min_, v);
  atomic_max(max_, v);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = s.count > 0 ? min_.load(std::memory_order_relaxed) : 0.0;
  s.max = s.count > 0 ? max_.load(std::memory_order_relaxed) : 0.0;
  for (std::size_t i = 0; i < stats::Log2Grid::kBuckets; ++i) {
    const std::uint64_t c = counts_[i].load(std::memory_order_relaxed);
    if (c > 0) {
      s.buckets.push_back({stats::Log2Grid::bucket_lower_edge(i),
                           stats::Log2Grid::bucket_upper_edge(i), c});
    }
  }
  return s;
}

void Histogram::reset() noexcept {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

// ------------------------------------------------------------------ Registry

// std::map keeps names sorted (stable snapshot/report order) and -- unlike
// unordered_map -- never invalidates references to mapped values, so the
// Counter&/Gauge&/Histogram& handed out stay valid as the maps grow.
struct Registry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, Counter, std::less<>> counters;
  std::map<std::string, Gauge, std::less<>> gauges;
  std::map<std::string, Histogram, std::less<>> histograms;
};

Registry::Registry() : impl_(new Impl) {}
Registry::~Registry() { delete impl_; }

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(impl_->mutex);
  const auto it = impl_->counters.find(name);
  if (it != impl_->counters.end()) return it->second;
  return impl_->counters[std::string(name)];
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(impl_->mutex);
  const auto it = impl_->gauges.find(name);
  if (it != impl_->gauges.end()) return it->second;
  return impl_->gauges[std::string(name)];
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard lock(impl_->mutex);
  const auto it = impl_->histograms.find(name);
  if (it != impl_->histograms.end()) return it->second;
  return impl_->histograms[std::string(name)];
}

Registry::Snapshot Registry::snapshot() const {
  std::lock_guard lock(impl_->mutex);
  Snapshot s;
  s.counters.reserve(impl_->counters.size());
  for (const auto& [name, c] : impl_->counters) {
    s.counters.emplace_back(name, c.value());
  }
  s.gauges.reserve(impl_->gauges.size());
  for (const auto& [name, g] : impl_->gauges) {
    s.gauges.emplace_back(name, g.value());
  }
  s.histograms.reserve(impl_->histograms.size());
  for (const auto& [name, h] : impl_->histograms) {
    s.histograms.emplace_back(name, h.snapshot());
  }
  return s;
}

void Registry::reset() {
  std::lock_guard lock(impl_->mutex);
  for (auto& [name, c] : impl_->counters) c.reset();
  for (auto& [name, g] : impl_->gauges) g.reset();
  for (auto& [name, h] : impl_->histograms) h.reset();
}

Registry& Registry::global() {
  // Leaked intentionally: instrumentation in other static objects
  // (e.g. the global thread pool's workers) may record during shutdown.
  static auto* registry = new Registry();
  return *registry;
}

}  // namespace forktail::obs
