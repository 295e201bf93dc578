// Sliding-window moment estimation.
//
// Section 3 of the paper: "Using the same example ... with only 20 seconds
// of measurement time, one can collect 1000 task samples ... With moving
// average for a given time window, e.g., 20 seconds, these means and
// variances and hence, the tail latency prediction, can be updated every
// tens of milliseconds."  This module provides exactly that primitive:
// count/mean/variance over the trailing time window, updatable per sample or
// per block of samples that share one timestamp (a datagram).
//
// Layout: a fixed ring of kBuckets = 64 MomentSketch buckets, each
// `window / 64` wide.  A sample at time t goes into bucket
// idx(t) = floor(t / width).  The window's clock `now` is the newest
// add()/advance() time, and the live buckets are idx(now) - 63 .. idx(now):
// exactly the buckets that start inside (now - window, now].
//
// Eviction policy ("evict early"): expiry drops whole buckets as the head
// rolls.  No sample older than `window` is ever counted; up to `window / 64`
// of the oldest samples leave the window before they are `window` old.  For
// a 2 s window that granularity is 31 ms, inside the paper's "tens of
// milliseconds".
//
// Nothing is ever subtracted.  The window's moments are the Chan merge
// (MomentSketch::merge) of the live buckets, so there are no running power
// sums whose differences cancel (millisecond means with microsecond jitter
// keep their variance) and no drift that needs a periodic re-sum.  The merge
// of the closed buckets is cached and recomputed only when the head rolls
// (at most 63 merges per bucket width).  add_block() pays the clock check,
// the bucket index and the roll check once per block, then merges the
// block's two-pass moments (MomentSketch::add_block) into the open head
// bucket; add() is a one-sample block, i.e. one Welford update.  A read is
// one merge.
//
// State: 66 MomentSketch of 24 B each (a ring of 64 bucket slots, the open
// head bucket and the closed-bucket merge) and three scalars, 1664 B with
// the cache-line padding.  There is no heap and no per-sample storage, so a
// node's footprint is the same at any ingest rate.  The two sketches a read
// needs share the object's first cache line with the clock, so a snapshot
// over many nodes touches one line per node.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "stats/welford.hpp"

namespace forktail::stats {

/// Moments over a sliding *time* window of (timestamp, value) samples with
/// non-decreasing timestamps (see the file comment for the bucket policy).
class alignas(64) WindowedMoments {
 public:
  static constexpr std::size_t kBuckets = 64;

  /// Throws std::invalid_argument unless `window_seconds / kBuckets` > 0.
  explicit WindowedMoments(double window_seconds);

  /// Add a sample at `timestamp`, which must be finite and no older than
  /// now(); otherwise throws std::invalid_argument.
  void add(double timestamp, double value);

  /// Add every value at the one `timestamp` (checked as by add()).  The
  /// same window as adding them one by one, up to rounding; an empty block
  /// changes nothing.
  void add_block(double timestamp, std::span<const double> values);

  /// Move the clock to `now` and expire buckets without adding a sample.
  /// A non-finite or older `now` is ignored.
  void advance(double now) noexcept;

  /// The newest add()/advance() time; -infinity before the first.
  double now() const noexcept { return now_; }

  std::uint64_t count() const noexcept {
    return closed_.count + open_.count;
  }
  double mean() const noexcept { return moments().mean; }
  double variance() const noexcept { return moments().variance(); }

  /// The window's (count, mean, M2) as a mergeable sketch.
  MomentSketch moments() const noexcept {
    MomentSketch m = closed_;
    m.merge(open_);
    return m;
  }

 private:
  static std::size_t slot(std::int64_t index) noexcept {
    return static_cast<std::size_t>(index) & (kBuckets - 1);
  }
  std::int64_t index(double t) const noexcept;
  void roll(std::int64_t head) noexcept;

  MomentSketch closed_;  ///< merge of the live buckets older than the head
  MomentSketch open_;    ///< the head bucket, idx(now())
  std::int64_t head_;
  double now_ = -std::numeric_limits<double>::infinity();
  double width_;
  /// Closed buckets by slot(index); slot(head_) is unused while open_ is.
  std::array<MomentSketch, kBuckets> buckets_{};
};

}  // namespace forktail::stats
