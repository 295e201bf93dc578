#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "support/heap_engine.hpp"
#include "util/rng.hpp"

namespace forktail::sim {
namespace {

/// Tag of an event that a test cancels: firing it is a failure.
constexpr std::uint64_t kNeverFires = 999;

/// The engine's bound dispatcher for these tests: records every fired event
/// as (kind, payload.raw.a tag, now) and hands the tag to the test's
/// optional reaction, which may schedule, cancel or stop.
struct Recorder {
  std::vector<std::tuple<EventKind, std::uint64_t, double>> fired;
  std::function<void(std::uint64_t tag)> react;

  explicit Recorder(Engine& engine) {
    engine.bind(this, &Recorder::dispatch);
  }

  static void dispatch(void* ctx, Engine& engine, const Event& ev) {
    auto* self = static_cast<Recorder*>(ctx);
    const std::uint64_t tag = ev.payload.raw.a;
    if (tag == kNeverFires) ADD_FAILURE() << "a cancelled event fired";
    self->fired.emplace_back(ev.kind, tag, engine.now());
    if (self->react) self->react(tag);
  }

  /// Tags in firing order.
  std::vector<std::uint64_t> tags() const {
    std::vector<std::uint64_t> out;
    for (const auto& f : fired) out.push_back(std::get<1>(f));
    return out;
  }
};

EventPayload raw_payload(std::uint64_t a, std::uint64_t b = 0) {
  EventPayload p;
  p.raw = {a, b};
  return p;
}

/// A plain kTimer event carrying `tag`.
Engine::EventId at(Engine& e, double time, std::uint64_t tag) {
  return e.schedule_event(time, EventKind::kTimer, raw_payload(tag));
}

/// A cancellable kTimer event carrying `tag`.
Engine::EventId cancellable_at(Engine& e, double time, std::uint64_t tag) {
  return e.schedule_cancellable_event(time, EventKind::kTimer,
                                      raw_payload(tag));
}

using Tags = std::vector<std::uint64_t>;

TEST(Engine, ProcessesInTimeOrder) {
  Engine e;
  Recorder rec(e);
  at(e, 3.0, 3);
  at(e, 1.0, 1);
  at(e, 2.0, 2);
  e.run();
  EXPECT_EQ(rec.tags(), (Tags{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(Engine, FifoAtEqualTimes) {
  Engine e;
  Recorder rec(e);
  at(e, 1.0, 0);
  at(e, 1.0, 1);
  at(e, 1.0, 2);
  e.run();
  EXPECT_EQ(rec.tags(), (Tags{0, 1, 2}));
}

TEST(Engine, HandlersCanScheduleMore) {
  Engine e;
  Recorder rec(e);
  rec.react = [&](std::uint64_t) {
    if (rec.fired.size() < 5) {
      e.schedule_event_in(1.0, EventKind::kTimer, raw_payload(0));
    }
  };
  at(e, 0.0, 0);
  e.run();
  EXPECT_EQ(rec.fired.size(), 5u);
  EXPECT_DOUBLE_EQ(e.now(), 4.0);
}

TEST(Engine, RejectsPastScheduling) {
  Engine e;
  Recorder rec(e);
  rec.react = [&](std::uint64_t) {
    EXPECT_THROW(at(e, 1.0, 1), std::invalid_argument);
  };
  at(e, 5.0, 0);
  e.run();
  EXPECT_EQ(rec.fired.size(), 1u);
}

TEST(Engine, StopTerminatesEarly) {
  Engine e;
  Recorder rec(e);
  rec.react = [&](std::uint64_t tag) {
    if (tag == 1) e.stop();
  };
  at(e, 1.0, 1);
  at(e, 2.0, 2);
  e.run();
  EXPECT_EQ(rec.fired.size(), 1u);
  EXPECT_FALSE(e.empty());
}

TEST(Engine, RunUntilLeavesLaterEventsQueued) {
  Engine e;
  Recorder rec(e);
  at(e, 1.0, 1);
  at(e, 10.0, 2);
  e.run_until(5.0);
  EXPECT_EQ(rec.fired.size(), 1u);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
  e.run();
  EXPECT_EQ(rec.fired.size(), 2u);
}

TEST(Engine, ScheduleInIsRelative) {
  Engine e;
  Recorder rec(e);
  double seen = -1.0;
  rec.react = [&](std::uint64_t tag) {
    if (tag == 1) {
      e.schedule_event_in(3.0, EventKind::kTimer, raw_payload(2));
    } else {
      seen = e.now();
    }
  };
  at(e, 2.0, 1);
  e.run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(Engine, CancelledEventNeverFires) {
  Engine e;
  Recorder rec(e);
  const Engine::EventId id = cancellable_at(e, 2.0, kNeverFires);
  rec.react = [&](std::uint64_t tag) {
    if (tag == 1) {
      EXPECT_TRUE(e.cancel(id));
    }
  };
  at(e, 1.0, 1);
  at(e, 3.0, 3);
  e.run();
  EXPECT_EQ(rec.tags(), (Tags{1, 3}));
  EXPECT_EQ(e.events_cancelled(), 1u);
}

TEST(Engine, CancellationIsObservationallyFree) {
  // A cancelled tombstone must not advance simulated time or the processed
  // count: the run looks exactly like one where the event never existed.
  Engine e;
  Recorder rec(e);
  const Engine::EventId id = cancellable_at(e, 10.0, kNeverFires);
  rec.react = [&](std::uint64_t) { e.cancel(id); };
  at(e, 1.0, 1);
  e.run();
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
  EXPECT_EQ(e.events_processed(), 1u);
}

TEST(Engine, CancelAfterFireReturnsFalse) {
  Engine e;
  Recorder rec(e);
  const Engine::EventId id = cancellable_at(e, 1.0, 1);
  e.run();
  EXPECT_EQ(rec.fired.size(), 1u);
  EXPECT_FALSE(e.cancel(id));
  EXPECT_EQ(e.events_cancelled(), 0u);
}

TEST(Engine, DoubleCancelReturnsFalse) {
  Engine e;
  Recorder rec(e);
  const Engine::EventId id = cancellable_at(e, 5.0, kNeverFires);
  rec.react = [&](std::uint64_t) {
    EXPECT_TRUE(e.cancel(id));
    EXPECT_FALSE(e.cancel(id));
  };
  at(e, 1.0, 1);
  e.run();
  EXPECT_EQ(e.events_cancelled(), 1u);
}

TEST(Engine, CancelUnknownIdReturnsFalse) {
  Engine e;
  Recorder rec(e);
  EXPECT_FALSE(e.cancel(12345));
  // Plain schedule_event() events are not cancellable either.
  const Engine::EventId plain = at(e, 1.0, 0);
  EXPECT_FALSE(e.cancel(plain));
  e.run();
  EXPECT_EQ(e.events_processed(), 1u);
}

TEST(Engine, HedgeRacePattern) {
  // The cancel-on-first-complete pattern the fault layer uses: primary and
  // hedge race; whichever fires first cancels the other.
  constexpr std::uint64_t kPrimary = 1;
  constexpr std::uint64_t kHedge = 2;
  Engine e;
  Recorder rec(e);
  int primary = 0;
  int hedge = 0;
  const Engine::EventId primary_id = cancellable_at(e, 5.0, kPrimary);
  const Engine::EventId hedge_id = cancellable_at(e, 3.0, kHedge);
  rec.react = [&](std::uint64_t tag) {
    if (tag == kPrimary) {
      ++primary;
      e.cancel(hedge_id);
    } else {
      ++hedge;
      e.cancel(primary_id);
    }
  };
  e.run();
  EXPECT_EQ(hedge, 1);
  EXPECT_EQ(primary, 0);
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_EQ(e.events_cancelled(), 1u);
}

TEST(Engine, RunUntilSkipsCancelledTombstones) {
  Engine e;
  Recorder rec(e);
  const Engine::EventId id = cancellable_at(e, 2.0, kNeverFires);
  e.cancel(id);
  at(e, 4.0, 4);
  e.run_until(3.0);
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_EQ(e.events_processed(), 0u);
  e.run();
  EXPECT_EQ(e.events_processed(), 1u);
}

// ---------------------------------------------------------------------------
// Event kinds, payloads and equal-time ordering
// ---------------------------------------------------------------------------

TEST(Engine, TypedEventsDispatchThroughBoundSink) {
  Engine e;
  Recorder rec(e);
  e.schedule_event(2.0, EventKind::kTaskComplete, raw_payload(7));
  e.schedule_event(1.0, EventKind::kArrival, raw_payload(3));
  e.run();
  ASSERT_EQ(rec.fired.size(), 2u);
  EXPECT_EQ(std::get<0>(rec.fired[0]), EventKind::kArrival);
  EXPECT_EQ(std::get<1>(rec.fired[0]), 3u);
  EXPECT_DOUBLE_EQ(std::get<2>(rec.fired[0]), 1.0);
  EXPECT_EQ(std::get<0>(rec.fired[1]), EventKind::kTaskComplete);
  EXPECT_EQ(std::get<1>(rec.fired[1]), 7u);
}

TEST(Engine, EqualTimeFifoAcrossPlainAndCancellableEvents) {
  // KAT: events at the exact same timestamp fire strictly in scheduling
  // order, regardless of kind or of which call scheduled them -- seq is
  // assigned per schedule call across plain and cancellable events.
  Engine e;
  Recorder rec(e);
  e.schedule_event(1.0, EventKind::kTimer, raw_payload(0));
  e.schedule_cancellable_event(1.0, EventKind::kTaskComplete, raw_payload(1));
  e.schedule_event(1.0, EventKind::kArrival, raw_payload(2));
  e.schedule_cancellable_event(1.0, EventKind::kTimer, raw_payload(3));
  e.schedule_cancellable_event(1.0, EventKind::kReport, raw_payload(4));
  e.run();
  EXPECT_EQ(rec.tags(), (Tags{0, 1, 2, 3, 4}));
}

TEST(Engine, EqualTimeFifoSurvivesRescheduleIntoSameInstant) {
  // An event that schedules new work at the *current* time must see that
  // work fire after every already-queued same-time event (larger seq).
  Engine e;
  Recorder rec(e);
  rec.react = [&](std::uint64_t tag) {
    if (tag == 0) at(e, 1.0, 2);
  };
  at(e, 1.0, 0);
  at(e, 1.0, 1);
  e.run();
  EXPECT_EQ(rec.tags(), (Tags{0, 1, 2}));
}

TEST(Engine, TypedCancellableEventsCancel) {
  constexpr std::uint64_t kCancel = 2;
  Engine e;
  Recorder rec(e);
  const Engine::EventId id = e.schedule_cancellable_event(
      5.0, EventKind::kTimer, raw_payload(kNeverFires));
  e.schedule_event(1.0, EventKind::kArrival, raw_payload(1));
  e.schedule_event(2.0, EventKind::kReport, raw_payload(kCancel));
  rec.react = [&](std::uint64_t tag) {
    if (tag == kCancel) {
      EXPECT_TRUE(e.cancel(id));
    }
  };
  e.run();
  ASSERT_EQ(rec.fired.size(), 2u);
  EXPECT_EQ(std::get<0>(rec.fired[0]), EventKind::kArrival);
  EXPECT_EQ(std::get<0>(rec.fired[1]), EventKind::kReport);
  EXPECT_EQ(e.events_cancelled(), 1u);
}

TEST(Engine, EventLayoutStaysPod) {
  static_assert(std::is_trivially_copyable_v<Event>);
  static_assert(sizeof(EventPayload) == 16);
  static_assert(sizeof(Event) <= 40);
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Cancel / reschedule interleavings and tombstone compaction
// ---------------------------------------------------------------------------

TEST(Engine, CancelThenRescheduleSameInstant) {
  // Cancelling a pending event and immediately scheduling a replacement at
  // the same timestamp must fire exactly the replacement, in seq order
  // relative to other same-time events.
  constexpr std::uint64_t kReschedule = 7;
  Engine e;
  Recorder rec(e);
  const Engine::EventId id = cancellable_at(e, 5.0, kNeverFires);
  at(e, 5.0, 0);
  rec.react = [&](std::uint64_t tag) {
    if (tag != kReschedule) return;
    EXPECT_TRUE(e.cancel(id));
    at(e, 5.0, 1);
  };
  at(e, 1.0, kReschedule);
  e.run();
  EXPECT_EQ(rec.tags(), (Tags{kReschedule, 0, 1}));
  EXPECT_EQ(e.events_cancelled(), 1u);
}

TEST(Engine, RescheduleIntoDrainedRegionKeepsOrder) {
  // Fire at t=10 (deep into the window, 100 earlier events already
  // drained), then schedule three near-now events: they land in the
  // already-scanned region of the calendar (sort-inserted into the live
  // batch) and must still fire in FIFO order before t=11.
  constexpr std::uint64_t kFiller = 100;
  constexpr std::uint64_t kSpawn = 101;
  Engine e;
  Recorder rec(e);
  Tags order;
  rec.react = [&](std::uint64_t tag) {
    if (tag == kSpawn) {
      const double t = e.now() + 1e-9;
      at(e, t, 0);
      at(e, t, 1);
      at(e, t, 2);
    } else if (tag != kFiller) {
      order.push_back(tag);
    }
  };
  at(e, 10.0, kSpawn);
  for (int i = 0; i < 100; ++i) {
    at(e, 0.1 * i, kFiller);
  }
  at(e, 11.0, 3);
  e.run();
  EXPECT_EQ(order, (Tags{0, 1, 2, 3}));
}

TEST(Engine, CompactionReclaimsTombstonesAndCountsSweeps) {
  // Cancel until dead events dominate the queue: cancel() compacts, the
  // compactions() counter ticks, and queue_depth falls below the naive
  // live + tombstone count because the sweep reclaimed the dead entries.
  Engine e;
  Recorder rec(e);
  std::vector<Engine::EventId> ids;
  constexpr int kEvents = 1000;
  constexpr int kCancelled = 600;
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(cancellable_at(e, 1.0 + i, 0));
  }
  at(e, 0.5, 0);  // one live event so the run() below fires work
  EXPECT_EQ(e.queue_depth(), static_cast<std::size_t>(kEvents) + 1);
  for (int i = 0; i < kCancelled; ++i) EXPECT_TRUE(e.cancel(ids[i]));
  EXPECT_GE(e.compactions(), 1u);
  // At least one sweep reclaimed tombstones: depth is strictly below the
  // uncompacted live + dead total.
  EXPECT_LT(e.queue_depth(), static_cast<std::size_t>(kEvents) + 1);
  e.run();
  EXPECT_EQ(e.events_processed(),
            static_cast<std::uint64_t>(kEvents - kCancelled) + 1);
  EXPECT_EQ(e.events_cancelled(), static_cast<std::uint64_t>(kCancelled));
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.queue_depth(), 0u);
}

TEST(Engine, CancelAfterCompactionStillWorks) {
  // A compaction sweep must not invalidate the ids of surviving events.
  Engine e;
  Recorder rec(e);
  std::vector<Engine::EventId> ids;
  for (int i = 0; i < 600; ++i) {
    ids.push_back(cancellable_at(e, 10.0 + i, kNeverFires));
  }
  for (int i = 0; i < 400; ++i) EXPECT_TRUE(e.cancel(ids[i]));
  EXPECT_GE(e.compactions(), 1u);
  for (int i = 400; i < 600; ++i) EXPECT_TRUE(e.cancel(ids[i]));
  e.run();
  EXPECT_EQ(e.events_processed(), 0u);
  EXPECT_EQ(e.events_cancelled(), 600u);
}

TEST(Engine, QueueDepthTracksScheduleAndFire) {
  Engine e;
  Recorder rec(e);
  EXPECT_EQ(e.queue_depth(), 0u);
  at(e, 1.0, 0);
  at(e, 2.0, 0);
  EXPECT_EQ(e.queue_depth(), 2u);
  e.run_until(1.5);
  EXPECT_EQ(e.queue_depth(), 1u);
  e.run();
  EXPECT_EQ(e.queue_depth(), 0u);
  EXPECT_EQ(e.max_queue_depth(), 2u);
}

// ---------------------------------------------------------------------------
// Cross-validation against the frozen binary-heap reference engine
// ---------------------------------------------------------------------------

/// A randomized schedule/cancel script (timer chains that reschedule
/// themselves and cancel peers), written once against a per-engine port
/// with `schedule(time, tag, cancellable) -> id` and `cancel(id)`.
struct SpawnScript {
  std::vector<std::pair<double, int>> trace;
  util::Rng rng{1234};
  std::vector<std::uint64_t> pending;
  int spawned = 0;

  template <typename Port>
  void fire(Port& port, double now, int tag) {
    trace.emplace_back(now, tag);
    if (spawned >= 400) return;
    const double dt1 = rng.exponential(1.0);
    const double dt2 = rng.exponential(2.0);
    const int tag1 = ++spawned;
    const int tag2 = ++spawned;
    port.schedule(now + dt1, tag1, false);
    pending.push_back(port.schedule(now + dt2, tag2, true));
    if (pending.size() >= 3) port.cancel(pending[pending.size() - 3]);
  }
};

/// The calendar engine's port: tags ride in typed events that the bound
/// dispatcher hands back to the script.
struct CalendarPort {
  Engine engine;
  SpawnScript script;

  CalendarPort() { engine.bind(this, &CalendarPort::dispatch); }
  CalendarPort(const CalendarPort&) = delete;
  CalendarPort& operator=(const CalendarPort&) = delete;

  static void dispatch(void* ctx, Engine& e, const Event& ev) {
    auto* self = static_cast<CalendarPort*>(ctx);
    self->script.fire(*self, e.now(), static_cast<int>(ev.payload.raw.a));
  }
  std::uint64_t schedule(double time, int tag, bool cancellable) {
    const EventPayload p = raw_payload(static_cast<std::uint64_t>(tag));
    return cancellable
               ? engine.schedule_cancellable_event(time, EventKind::kTimer, p)
               : engine.schedule_event(time, EventKind::kTimer, p);
  }
  void cancel(std::uint64_t id) { engine.cancel(id); }
};

/// The frozen heap engine's port: its own closure-per-event API.
struct HeapPort {
  HeapEngine engine;
  SpawnScript script;

  std::uint64_t schedule(double time, int tag, bool cancellable) {
    HeapEngine::Handler fire = [this, tag] {
      script.fire(*this, engine.now(), tag);
    };
    if (cancellable) return engine.schedule_cancellable(time, std::move(fire));
    engine.schedule(time, std::move(fire));
    return 0;
  }
  void cancel(std::uint64_t id) { engine.cancel(id); }
};

TEST(Engine, MatchesHeapEngineOnRandomScheduleCancelSequence) {
  // Drive both engines through the identical script and require the firing
  // orders -- observed as (now, tag) traces -- to match exactly.  This is
  // the determinism contract the fork-join drivers and goldens rely on.
  CalendarPort calendar;
  calendar.schedule(0.0, 0, false);
  calendar.engine.run();
  HeapPort heap;
  heap.schedule(0.0, 0, false);
  heap.engine.run();

  const auto& trace_calendar = calendar.script.trace;
  const auto& trace_heap = heap.script.trace;
  ASSERT_EQ(trace_calendar.size(), trace_heap.size());
  for (std::size_t i = 0; i < trace_calendar.size(); ++i) {
    // Bitwise-equal times, identical firing order.
    EXPECT_EQ(trace_calendar[i].first, trace_heap[i].first) << "event " << i;
    EXPECT_EQ(trace_calendar[i].second, trace_heap[i].second) << "event " << i;
  }
  EXPECT_EQ(calendar.engine.events_processed(), heap.engine.events_processed());
  EXPECT_EQ(calendar.engine.events_cancelled(), heap.engine.events_cancelled());
}

}  // namespace
}  // namespace forktail::sim
