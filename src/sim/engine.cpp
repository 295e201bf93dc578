#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace forktail::sim {

void Engine::throw_bad_time(bool past) {
  if (past) {
    throw std::invalid_argument("Engine::schedule: time is in the past");
  }
  throw std::invalid_argument("Engine::schedule: time is not finite");
}

void Engine::push(const Event& ev) {
  ++size_;
  if (size_ > max_depth_) max_depth_ = size_;
  if (nbuckets_ != 0 && ev.time < window_end_) {
    // rel can be negative when an event is scheduled before the window
    // origin (legal after a partial run_until); clamp instead of casting a
    // negative double.  Bucket 0 / the batch still order it correctly
    // because extraction sorts by actual (time, seq).
    const double rel = (ev.time - origin_) * inv_width_;
    std::size_t idx = rel > 0.0 ? static_cast<std::size_t>(rel) : 0;
    if (idx >= nbuckets_) idx = nbuckets_ - 1;
    if (idx < scan_) {
      // The event lands in the already-drained part of the window, which is
      // only reachable for times >= now (check_time): sort-insert into the
      // live batch past the consumption cursor so (time, seq) order holds.
      const auto pos = std::upper_bound(batch_.begin() + batch_pos_,
                                        batch_.end(), ev, EarlierByTimeSeq{});
      batch_.insert(pos, ev);
    } else {
      buckets_[idx].push_back(ev);
    }
  } else {
    overflow_.push_back(ev);
  }
}

const Event* Engine::peek_live() {
  for (;;) {
    while (batch_pos_ < batch_.size()) {
      const Event& ev = batch_[batch_pos_];
      // A cancelled event is a tombstone: skip it without advancing now_ or
      // the processed count (cancellation must be observationally free).
      if ((ev.flags & kFlagCancellable) && !cancelled_.empty() &&
          cancelled_.erase(ev.seq) > 0) {
        ++batch_pos_;
        --size_;
        continue;
      }
      return &ev;
    }
    if (!refill_batch()) return nullptr;
  }
}

bool Engine::refill_batch() {
  batch_.clear();
  batch_pos_ = 0;
  for (;;) {
    while (scan_ < nbuckets_) {
      std::vector<Event>& bucket = buckets_[scan_++];
      if (bucket.empty()) continue;
      // Swap keeps the bucket's capacity circulating through the batch, so
      // a warm calendar schedules and drains without allocating.
      batch_.swap(bucket);
      sort_batch();
      return true;
    }
    if (overflow_.empty()) {
      nbuckets_ = 0;
      scan_ = 0;
      return false;
    }
    rebucket();
  }
}

void Engine::sort_batch() {
  // Buckets average ~2 events, so an inlined insertion sort beats the
  // std::sort dispatch overhead; large batches still get introsort.
  const std::size_t n = batch_.size();
  if (n < 2) return;
  if (n > 24) {
    std::sort(batch_.begin(), batch_.end(), EarlierByTimeSeq{});
    return;
  }
  const EarlierByTimeSeq earlier{};
  for (std::size_t i = 1; i < n; ++i) {
    const Event ev = batch_[i];
    std::size_t j = i;
    while (j > 0 && earlier(ev, batch_[j - 1])) {
      batch_[j] = batch_[j - 1];
      --j;
    }
    batch_[j] = ev;
  }
}

void Engine::rebucket() {
  double tmin = overflow_.front().time;
  double tmax = tmin;
  for (const Event& ev : overflow_) {
    if (ev.time < tmin) tmin = ev.time;
    if (ev.time > tmax) tmax = ev.time;
  }
  const std::size_t count = overflow_.size();
  // Aim for ~2 events per bucket; power-of-two count, clamped to keep the
  // per-window scan bounded for sparse queues and the array bounded for
  // dense ones.
  std::size_t nb = 16;
  while (nb < count / 2 && nb < 65536) nb <<= 1;
  const double span = tmax - tmin;
  double width = span > 0.0 ? span * 2.0 / static_cast<double>(count) : 1.0;
  if (!(width > 0.0) || !std::isfinite(width)) width = 1.0;
  // Guard against a width that underflows next to a large origin: the
  // window must strictly contain tmin or the drain loop would spin.
  while (tmin + width * static_cast<double>(nb) <= tmin) width *= 2.0;
  if (buckets_.size() < nb) buckets_.resize(nb);
  nbuckets_ = nb;
  scan_ = 0;
  origin_ = tmin;
  inv_width_ = 1.0 / width;
  window_end_ = tmin + width * static_cast<double>(nb);
  scratch_.clear();
  for (const Event& ev : overflow_) {
    if (ev.time < window_end_) {
      std::size_t idx =
          static_cast<std::size_t>((ev.time - origin_) * inv_width_);
      if (idx >= nbuckets_) idx = nbuckets_ - 1;
      buckets_[idx].push_back(ev);
    } else {
      scratch_.push_back(ev);
    }
  }
  overflow_.swap(scratch_);
}

void Engine::compact() {
  ++compactions_;
  // One pass per container: keep live events in place and retire the
  // tombstones of dead ones.  cancelled_ drains to empty because every
  // tombstone corresponds to exactly one queued event.
  const auto sweep = [this](std::vector<Event>& v, std::size_t begin) {
    std::size_t w = begin;
    for (std::size_t r = begin; r < v.size(); ++r) {
      const Event& ev = v[r];
      if ((ev.flags & kFlagCancellable) && cancelled_.erase(ev.seq) > 0) {
        --size_;
        continue;
      }
      v[w++] = ev;
    }
    v.resize(w);
  };
  sweep(batch_, batch_pos_);
  // Drop the consumed batch prefix too, so a long-lived batch does not pin
  // memory across compactions.
  batch_.erase(batch_.begin(),
               batch_.begin() + static_cast<std::ptrdiff_t>(batch_pos_));
  batch_pos_ = 0;
  for (std::size_t i = scan_; i < nbuckets_; ++i) sweep(buckets_[i], 0);
  sweep(overflow_, 0);
}

bool Engine::cancel(EventId id) {
  // Only a still-pending cancellable event can be cancelled; the id is
  // moved to the tombstone set so the calendar entry is skipped on pop.
  if (cancellable_.erase(id) == 0) return false;
  cancelled_.insert(id);
  ++cancelled_count_;
  static obs::Counter& cancelled =
      obs::Registry::global().counter("sim.engine.cancelled");
  cancelled.add(1);
  if (cancelled_.size() >= kCompactMinDead &&
      cancelled_.size() * 2 >= size_) {
    compact();
  }
  return true;
}

void Engine::publish_metrics(std::uint64_t events,
                             std::uint64_t compactions) const {
  // One registry touch per run() call, not per event: the run loop itself
  // stays untouched, so the engine's cost profile is identical with
  // observability on.
  static obs::Counter& processed =
      obs::Registry::global().counter("sim.events_processed");
  static obs::Gauge& depth = obs::Registry::global().gauge("sim.queue_depth");
  static obs::Counter& compacted =
      obs::Registry::global().counter("sim.compactions");
  processed.add(events);
  depth.set_max(static_cast<double>(max_depth_));
  compacted.add(compactions);
}

void Engine::run() {
  stopped_ = false;
  const std::uint64_t events_before = processed_;
  const std::uint64_t compactions_before = compactions_;
  while (!stopped_) {
    const Event* next = peek_live();
    if (next == nullptr) break;
    const Event ev = *next;  // copy: fired events may grow the batch
    ++batch_pos_;
    --size_;
    if (ev.flags & kFlagCancellable) cancellable_.erase(ev.seq);
    now_ = ev.time;
    ++processed_;
    fire(ev);
  }
  publish_metrics(processed_ - events_before,
                  compactions_ - compactions_before);
}

void Engine::run_until(double t_end) {
  stopped_ = false;
  const std::uint64_t events_before = processed_;
  const std::uint64_t compactions_before = compactions_;
  while (!stopped_) {
    const Event* next = peek_live();
    if (next == nullptr || next->time > t_end) break;
    const Event ev = *next;
    ++batch_pos_;
    --size_;
    if (ev.flags & kFlagCancellable) cancellable_.erase(ev.seq);
    now_ = ev.time;
    ++processed_;
    fire(ev);
  }
  if (now_ < t_end) now_ = t_end;
  publish_metrics(processed_ - events_before,
                  compactions_ - compactions_before);
}

}  // namespace forktail::sim
