#include "core/online.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace forktail::core {

namespace {
// Online-path telemetry: served vs declined predictions.  A declined
// prediction (underfilled) means some node window had fewer than
// min_samples samples or zero variance -- the measurement layer, not the
// model, is the bottleneck.
struct OnlineMetrics {
  obs::Counter& predictions =
      obs::Registry::global().counter("online.predictions");
  obs::Counter& underfilled =
      obs::Registry::global().counter("online.underfilled");
  // Clock-skew outcomes of record(): backwards timestamps absorbed by
  // clamping vs dropped as beyond the tolerance.  Either being nonzero
  // means some agent's clock is misbehaving.
  obs::Counter& clock_clamped =
      obs::Registry::global().counter("online.clock_clamped");
  obs::Counter& clock_rejected =
      obs::Registry::global().counter("online.clock_rejected");
  static OnlineMetrics& get() {
    static OnlineMetrics m;
    return m;
  }
};

std::optional<double> count_outcome(std::optional<double> value) {
  if (value) {
    OnlineMetrics::get().predictions.add(1);
  } else {
    OnlineMetrics::get().underfilled.add(1);
  }
  return value;
}
}  // namespace

OnlineTailPredictor::OnlineTailPredictor(std::size_t num_nodes,
                                         double window_seconds,
                                         std::size_t min_samples,
                                         double skew_tolerance)
    : min_samples_(min_samples), skew_tolerance_(skew_tolerance) {
  if (num_nodes == 0) {
    throw std::invalid_argument("OnlineTailPredictor: need at least one node");
  }
  if (!(skew_tolerance >= 0.0)) {
    throw std::invalid_argument(
        "OnlineTailPredictor: skew tolerance must be non-negative");
  }
  windows_.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    windows_.emplace_back(window_seconds);
  }
}

RecordOutcome OnlineTailPredictor::record(std::size_t node, double now,
                                          double response) {
  return record_batch(node, now, {&response, 1});
}

RecordOutcome OnlineTailPredictor::record_batch(
    std::size_t node, double now, std::span<const double> responses) {
  auto& window = windows_.at(node);
  if (responses.empty()) return RecordOutcome::kAccepted;
  if (!std::isfinite(now)) {
    // NaN slips past every comparison and an infinite clock would leave
    // every later finite sample "too old"; treat both as unbounded jumps.
    OnlineMetrics::get().clock_rejected.add(1);
    return RecordOutcome::kRejected;
  }
  RecordOutcome outcome = RecordOutcome::kAccepted;
  const double mark = window.now();
  if (now < mark) {
    if (mark - now <= skew_tolerance_) {
      now = mark;  // absorb the jump: record at the high-water mark
      outcome = RecordOutcome::kClamped;
      OnlineMetrics::get().clock_clamped.add(responses.size());
    } else {
      OnlineMetrics::get().clock_rejected.add(1);
      return RecordOutcome::kRejected;
    }
  }
  window.add_block(now, responses);
  return outcome;
}

void OnlineTailPredictor::advance(std::size_t node, double now) {
  windows_.at(node).advance(now);
}

std::optional<double> OnlineTailPredictor::last_timestamp(
    std::size_t node) const {
  const double mark = windows_.at(node).now();
  if (!std::isfinite(mark)) return std::nullopt;
  return mark;
}

std::optional<TaskStats> OnlineTailPredictor::node_stats(std::size_t node) const {
  const stats::MomentSketch m = windows_.at(node).moments();
  if (m.count < min_samples_ || !(m.variance() > 0.0)) return std::nullopt;
  return TaskStats{m.mean, m.variance()};
}

OnlineTailPredictor::PooledStats OnlineTailPredictor::pooled_stats() const {
  PooledStats pooled;
  pooled.total_nodes = windows_.size();
  stats::MomentSketch merged;
  for (const auto& w : windows_) {
    if (w.count() < min_samples_) continue;
    merged.merge(w.moments());
    ++pooled.filled_nodes;
  }
  pooled.count = static_cast<double>(merged.count);
  pooled.mean = merged.mean;
  pooled.variance = merged.variance();
  return pooled;
}

std::optional<TaskStats> OnlineTailPredictor::pooled_fit_input() const {
  const PooledStats pooled = pooled_stats();
  if (pooled.filled_nodes < pooled.total_nodes || !(pooled.variance > 0.0)) {
    return std::nullopt;
  }
  return TaskStats{pooled.mean, pooled.variance};
}

std::optional<double> OnlineTailPredictor::predict_homogeneous(double p,
                                                               double k) const {
  return count_outcome([&]() -> std::optional<double> {
    const auto stats = pooled_fit_input();
    if (!stats) return std::nullopt;
    const double kk = k > 0.0 ? k : static_cast<double>(windows_.size());
    return homogeneous_quantile(*stats, kk, p);
  }());
}

std::optional<double> OnlineTailPredictor::predict_inhomogeneous(double p) const {
  return count_outcome([&]() -> std::optional<double> {
    std::vector<TaskStats> stats;
    stats.reserve(windows_.size());
    for (std::size_t i = 0; i < windows_.size(); ++i) {
      const auto s = node_stats(i);
      if (!s) return std::nullopt;
      stats.push_back(*s);
    }
    return inhomogeneous_quantile(stats, p);
  }());
}

std::optional<double> OnlineTailPredictor::predict_subset(
    std::span<const std::size_t> nodes, double p) const {
  if (nodes.empty()) {
    throw std::invalid_argument("predict_subset: empty node set");
  }
  return count_outcome([&]() -> std::optional<double> {
    std::vector<TaskStats> stats;
    stats.reserve(nodes.size());
    for (std::size_t node : nodes) {
      const auto s = node_stats(node);
      if (!s) return std::nullopt;
      stats.push_back(*s);
    }
    return inhomogeneous_quantile(stats, p);
  }());
}

std::optional<double> OnlineTailPredictor::predict_mixture(
    const TaskCountMixture& mixture, double p) const {
  return count_outcome([&]() -> std::optional<double> {
    const auto stats = pooled_fit_input();
    if (!stats) return std::nullopt;
    return mixture_quantile(*stats, mixture, p);
  }());
}

}  // namespace forktail::core
