#include "support/heap_engine.hpp"

#include <stdexcept>

namespace forktail::sim {

void HeapEngine::schedule(double time, Handler handler) {
  if (time < now_) {
    throw std::invalid_argument("HeapEngine::schedule: time is in the past");
  }
  queue_.push(Event{time, seq_++, std::move(handler)});
  if (queue_.size() > max_depth_) max_depth_ = queue_.size();
}

HeapEngine::EventId HeapEngine::schedule_cancellable(double time,
                                                     Handler handler) {
  if (time < now_) {
    throw std::invalid_argument(
        "HeapEngine::schedule_cancellable: time is in the past");
  }
  const EventId id = seq_;
  queue_.push(Event{time, seq_++, std::move(handler)});
  if (queue_.size() > max_depth_) max_depth_ = queue_.size();
  cancellable_.insert(id);
  return id;
}

bool HeapEngine::cancel(EventId id) {
  // Only a still-pending cancellable event can be cancelled; the id is
  // moved to the tombstone set so the heap entry is skipped on pop.
  if (cancellable_.erase(id) == 0) return false;
  cancelled_.insert(id);
  ++cancelled_count_;
  return true;
}

bool HeapEngine::consume_cancellation(const Event& ev) {
  if (cancelled_.empty()) return false;
  return cancelled_.erase(ev.seq) > 0;
}

void HeapEngine::run() {
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    // priority_queue::top returns const&; the handler must be moved out
    // before pop, so copy the POD fields and steal the handler.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    // A cancelled event is a tombstone: skip it without advancing now_ or
    // the processed count (cancellation must be observationally free).
    if (consume_cancellation(ev)) continue;
    cancellable_.erase(ev.seq);
    now_ = ev.time;
    ++processed_;
    ev.handler();
  }
}

void HeapEngine::run_until(double t_end) {
  stopped_ = false;
  while (!queue_.empty() && !stopped_ && queue_.top().time <= t_end) {
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    if (consume_cancellation(ev)) continue;
    cancellable_.erase(ev.seq);
    now_ = ev.time;
    ++processed_;
    ev.handler();
  }
  if (now_ < t_end) now_ = t_end;
}

}  // namespace forktail::sim
