#include "stats/windowed.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace forktail::stats {

namespace {
// Bucket indices saturate at +-2^61 so the difference of any two fits in an
// int64; a clock that far out (in bucket widths) stops rolling instead of
// overflowing the float->int conversion.  The initial head sits below every
// clamped index, so the first add()/advance() rolls the whole ring.
constexpr double kIndexLimit = 0x1p61;
constexpr std::int64_t kNoHead = -(std::int64_t{1} << 62);
}  // namespace

WindowedMoments::WindowedMoments(double window_seconds)
    : head_(kNoHead), width_(window_seconds / kBuckets) {
  if (!(width_ > 0.0)) {
    throw std::invalid_argument("window must be positive");
  }
}

std::int64_t WindowedMoments::index(double t) const noexcept {
  return static_cast<std::int64_t>(
      std::clamp(std::floor(t / width_), -kIndexLimit, kIndexLimit));
}

void WindowedMoments::add(double timestamp, double value) {
  add_block(timestamp, {&value, 1});
}

void WindowedMoments::add_block(double timestamp,
                                std::span<const double> values) {
  if (!std::isfinite(timestamp) || timestamp < now_) {
    throw std::invalid_argument("timestamps must be finite and non-decreasing");
  }
  if (values.empty()) return;
  now_ = timestamp;
  roll(index(timestamp));
  open_.add_block(values);
}

void WindowedMoments::advance(double now) noexcept {
  if (!std::isfinite(now) || !(now > now_)) return;
  now_ = now;
  roll(index(now));
}

void WindowedMoments::roll(std::int64_t head) noexcept {
  if (head <= head_) return;
  // Close the old head bucket.  The slots of the new buckets head_+1 ..
  // head held buckets now older than head - 63 (the old head's own slot
  // too, once the clock jumps a whole window): clear them, then re-merge
  // the closed buckets.
  buckets_[slot(head_)] = open_;
  open_ = {};
  const std::int64_t fresh =
      std::min(head - head_, static_cast<std::int64_t>(kBuckets));
  for (std::int64_t i = 1; i <= fresh; ++i) buckets_[slot(head_ + i)] = {};
  head_ = head;
  closed_ = {};
  for (std::int64_t i = head - static_cast<std::int64_t>(kBuckets) + 1;
       i < head; ++i) {
    closed_.merge(buckets_[slot(i)]);
  }
}

}  // namespace forktail::stats
