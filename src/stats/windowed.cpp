#include "stats/windowed.hpp"

namespace forktail::stats {

WindowedMoments::WindowedMoments(double window_seconds) : window_(window_seconds) {
  if (!(window_seconds > 0.0)) {
    throw std::invalid_argument("window must be positive");
  }
}

void WindowedMoments::add(double timestamp, double value) {
  if (!samples_.empty() && timestamp < samples_.back().t) {
    throw std::invalid_argument("timestamps must be non-decreasing");
  }
  if (samples_.empty()) sums_.restart(value);
  samples_.push_back({timestamp, value});
  sums_.add(value);
  evict(timestamp);
  maybe_resync();
}

void WindowedMoments::advance(double now) {
  evict(now);
  // Eviction churn drifts the incremental sums exactly like insertion does;
  // an advance()-heavy idle node must hit the resync threshold too.
  maybe_resync();
}

void WindowedMoments::evict(double now) {
  const double cutoff = now - window_;
  while (!samples_.empty() && samples_.front().t < cutoff) {
    sums_.remove(samples_.front().v);
    samples_.pop_front();
  }
  if (samples_.empty()) sums_.clear();
}

void WindowedMoments::maybe_resync() {
  sums_.maybe_resync(samples_, [](const Sample& s) { return s.v; });
}

double WindowedMoments::mean() const noexcept {
  return samples_.empty() ? 0.0
                          : sums_.mean(static_cast<double>(samples_.size()));
}

double WindowedMoments::variance() const noexcept {
  return samples_.empty()
             ? 0.0
             : sums_.variance(static_cast<double>(samples_.size()));
}

}  // namespace forktail::stats
