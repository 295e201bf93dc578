#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "support/heap_engine.hpp"
#include "util/rng.hpp"

namespace forktail::sim {
namespace {

TEST(Engine, ProcessesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(3.0, [&] { order.push_back(3); });
  e.schedule(1.0, [&] { order.push_back(1); });
  e.schedule(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(Engine, FifoAtEqualTimes) {
  Engine e;
  std::vector<int> order;
  e.schedule(1.0, [&] { order.push_back(0); });
  e.schedule(1.0, [&] { order.push_back(1); });
  e.schedule(1.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, HandlersCanScheduleMore) {
  Engine e;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) e.schedule_in(1.0, chain);
  };
  e.schedule(0.0, chain);
  e.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(e.now(), 4.0);
}

TEST(Engine, RejectsPastScheduling) {
  Engine e;
  e.schedule(5.0, [&] {
    EXPECT_THROW(e.schedule(1.0, [] {}), std::invalid_argument);
  });
  e.run();
}

TEST(Engine, StopTerminatesEarly) {
  Engine e;
  int fired = 0;
  e.schedule(1.0, [&] {
    ++fired;
    e.stop();
  });
  e.schedule(2.0, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(e.empty());
}

TEST(Engine, RunUntilLeavesLaterEventsQueued) {
  Engine e;
  int fired = 0;
  e.schedule(1.0, [&] { ++fired; });
  e.schedule(10.0, [&] { ++fired; });
  e.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, ScheduleInIsRelative) {
  Engine e;
  double seen = -1.0;
  e.schedule(2.0, [&] { e.schedule_in(3.0, [&] { seen = e.now(); }); });
  e.run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(Engine, CancelledEventNeverFires) {
  Engine e;
  int fired = 0;
  const Engine::EventId id = e.schedule_cancellable(2.0, [&] { ++fired; });
  e.schedule(1.0, [&] { EXPECT_TRUE(e.cancel(id)); });
  e.schedule(3.0, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.events_cancelled(), 1u);
}

TEST(Engine, CancellationIsObservationallyFree) {
  // A cancelled tombstone must not advance simulated time or the processed
  // count: the run looks exactly like one where the event never existed.
  Engine e;
  const Engine::EventId id = e.schedule_cancellable(10.0, [] { FAIL(); });
  e.schedule(1.0, [&] { e.cancel(id); });
  e.run();
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
  EXPECT_EQ(e.events_processed(), 1u);
}

TEST(Engine, CancelAfterFireReturnsFalse) {
  Engine e;
  int fired = 0;
  const Engine::EventId id = e.schedule_cancellable(1.0, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(e.cancel(id));
  EXPECT_EQ(e.events_cancelled(), 0u);
}

TEST(Engine, DoubleCancelReturnsFalse) {
  Engine e;
  const Engine::EventId id = e.schedule_cancellable(5.0, [] { FAIL(); });
  e.schedule(1.0, [&] {
    EXPECT_TRUE(e.cancel(id));
    EXPECT_FALSE(e.cancel(id));
  });
  e.run();
  EXPECT_EQ(e.events_cancelled(), 1u);
}

TEST(Engine, CancelUnknownIdReturnsFalse) {
  Engine e;
  EXPECT_FALSE(e.cancel(12345));
  // Ordinary schedule() events are not cancellable either.
  e.schedule(1.0, [] {});
  EXPECT_FALSE(e.cancel(0));
  e.run();
  EXPECT_EQ(e.events_processed(), 1u);
}

TEST(Engine, HedgeRacePattern) {
  // The cancel-on-first-complete pattern the fault layer uses: primary and
  // hedge race; whichever fires first cancels the other.
  Engine e;
  int primary = 0;
  int hedge = 0;
  Engine::EventId primary_id = 0;
  Engine::EventId hedge_id = 0;
  primary_id = e.schedule_cancellable(5.0, [&] {
    ++primary;
    e.cancel(hedge_id);
  });
  hedge_id = e.schedule_cancellable(3.0, [&] {
    ++hedge;
    e.cancel(primary_id);
  });
  e.run();
  EXPECT_EQ(hedge, 1);
  EXPECT_EQ(primary, 0);
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_EQ(e.events_cancelled(), 1u);
}

TEST(Engine, RunUntilSkipsCancelledTombstones) {
  Engine e;
  const Engine::EventId id = e.schedule_cancellable(2.0, [] { FAIL(); });
  e.cancel(id);
  e.schedule(4.0, [] {});
  e.run_until(3.0);
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_EQ(e.events_processed(), 0u);
  e.run();
  EXPECT_EQ(e.events_processed(), 1u);
}

// ---------------------------------------------------------------------------
// Typed (POD) events
// ---------------------------------------------------------------------------

/// Records every typed event it receives as (kind, payload.raw.a, time).
struct TypedRecorder {
  std::vector<std::tuple<EventKind, std::uint64_t, double>> fired;

  static void dispatch(void* ctx, Engine& engine, const Event& ev) {
    auto* self = static_cast<TypedRecorder*>(ctx);
    self->fired.emplace_back(ev.kind, ev.payload.raw.a, engine.now());
  }
};

EventPayload raw_payload(std::uint64_t a, std::uint64_t b = 0) {
  EventPayload p;
  p.raw = {a, b};
  return p;
}

TEST(Engine, TypedEventsDispatchThroughBoundSink) {
  Engine e;
  TypedRecorder rec;
  e.bind(&rec, &TypedRecorder::dispatch);
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

TEST(Engine, EqualTimeFifoAcrossTypedAndHandlerEvents) {
  // KAT: events at the exact same timestamp fire strictly in scheduling
  // order, regardless of which API scheduled them -- seq is assigned per
  // schedule call across both families.
  Engine e;
  std::vector<std::uint64_t> order;
  e.bind(
      &order, +[](void* ctx, Engine&, const Event& ev) {
        static_cast<std::vector<std::uint64_t>*>(ctx)->push_back(
            ev.payload.raw.a);
      });
  e.schedule_event(1.0, EventKind::kTimer, raw_payload(0));
  e.schedule(1.0, [&] { order.push_back(1); });
  e.schedule_event(1.0, EventKind::kArrival, raw_payload(2));
  e.schedule(1.0, [&] { order.push_back(3); });
  e.schedule_cancellable_event(1.0, EventKind::kReport, raw_payload(4));
  e.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(Engine, EqualTimeFifoSurvivesRescheduleIntoSameInstant) {
  // An event that schedules new work at the *current* time must see that
  // work fire after every already-queued same-time event (larger seq).
  Engine e;
  std::vector<int> order;
  e.schedule(1.0, [&] {
    order.push_back(0);
    e.schedule(1.0, [&] { order.push_back(2); });
  });
  e.schedule(1.0, [&] { order.push_back(1); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, TypedCancellableEventsCancel) {
  Engine e;
  TypedRecorder rec;
  e.bind(&rec, &TypedRecorder::dispatch);
  const Engine::EventId id =
      e.schedule_cancellable_event(5.0, EventKind::kTimer, raw_payload(9));
  e.schedule_event(1.0, EventKind::kArrival, raw_payload(1));
  e.schedule(2.0, [&] { EXPECT_TRUE(e.cancel(id)); });
  e.run();
  ASSERT_EQ(rec.fired.size(), 1u);
  EXPECT_EQ(std::get<0>(rec.fired[0]), EventKind::kArrival);
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
  Engine e;
  std::vector<int> order;
  const Engine::EventId id = e.schedule_cancellable(5.0, [&] { FAIL(); });
  e.schedule(5.0, [&] { order.push_back(0); });
  e.schedule(1.0, [&] {
    EXPECT_TRUE(e.cancel(id));
    e.schedule(5.0, [&] { order.push_back(1); });
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(e.events_cancelled(), 1u);
}

TEST(Engine, RescheduleIntoDrainedRegionKeepsOrder) {
  // Fire at t=10 (deep into the window, 100 earlier events already
  // drained), then schedule three near-now events: they land in the
  // already-scanned region of the calendar (sort-inserted into the live
  // batch) and must still fire in FIFO order before t=11.
  Engine e;
  std::vector<int> order;
  e.schedule(10.0, [&] {
    const double t = e.now() + 1e-9;
    e.schedule(t, [&] { order.push_back(0); });
    e.schedule(t, [&] { order.push_back(1); });
    e.schedule(t, [&] { order.push_back(2); });
  });
  for (int i = 0; i < 100; ++i) {
    e.schedule(0.1 * i, [] {});
  }
  e.schedule(11.0, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Engine, CompactionReclaimsTombstonesAndCountsSweeps) {
  // Cancel until dead events dominate the queue: cancel() compacts, the
  // compactions() counter ticks, and queue_depth falls below the naive
  // live + tombstone count because the sweep reclaimed the dead entries.
  Engine e;
  std::vector<Engine::EventId> ids;
  constexpr int kEvents = 1000;
  constexpr int kCancelled = 600;
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(e.schedule_cancellable(1.0 + i, [] {}));
  }
  e.schedule(0.5, [] {});  // one live event so the run() below fires work
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
  std::vector<Engine::EventId> ids;
  for (int i = 0; i < 600; ++i) {
    ids.push_back(e.schedule_cancellable(10.0 + i, [] { FAIL(); }));
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
  EXPECT_EQ(e.queue_depth(), 0u);
  e.schedule(1.0, [] {});
  e.schedule(2.0, [] {});
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

TEST(Engine, MatchesHeapEngineOnRandomScheduleCancelSequence) {
  // Drive both engines through an identical randomized schedule/cancel
  // script (timer chains that reschedule themselves and cancel peers) and
  // require the firing orders -- observed as (now, tag) traces -- to match
  // exactly.  This is the determinism contract the fork-join drivers and
  // goldens rely on.
  const auto drive = [](auto& engine) {
    std::vector<std::pair<double, int>> trace;
    util::Rng rng(1234);
    std::vector<typename std::decay_t<decltype(engine)>::EventId> pending;
    int spawned = 0;
    std::function<void(int)> spawn = [&](int tag) {
      trace.emplace_back(engine.now(), tag);
      if (spawned >= 400) return;
      const double dt1 = rng.exponential(1.0);
      const double dt2 = rng.exponential(2.0);
      const int tag1 = ++spawned;
      const int tag2 = ++spawned;
      engine.schedule_in(dt1, [&spawn, tag1] { spawn(tag1); });
      pending.push_back(engine.schedule_cancellable(
          engine.now() + dt2, [&spawn, tag2] { spawn(tag2); }));
      if (pending.size() >= 3) {
        engine.cancel(pending[pending.size() - 3]);
      }
    };
    engine.schedule(0.0, [&spawn] { spawn(0); });
    engine.run();
    return trace;
  };
  Engine calendar;
  HeapEngine heap;
  const auto trace_calendar = drive(calendar);
  const auto trace_heap = drive(heap);
  ASSERT_EQ(trace_calendar.size(), trace_heap.size());
  for (std::size_t i = 0; i < trace_calendar.size(); ++i) {
    // Bitwise-equal times, identical firing order.
    EXPECT_EQ(trace_calendar[i].first, trace_heap[i].first) << "event " << i;
    EXPECT_EQ(trace_calendar[i].second, trace_heap[i].second) << "event " << i;
  }
  EXPECT_EQ(calendar.events_processed(), heap.events_processed());
  EXPECT_EQ(calendar.events_cancelled(), heap.events_cancelled());
}

}  // namespace
}  // namespace forktail::sim
