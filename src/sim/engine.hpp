// General discrete-event simulation engine.
//
// A two-level calendar queue over arena-allocated, type-tagged POD events:
//
//   * The *window* is an array of buckets of width `width_` starting at
//     `origin_`; an event at time t lands in bucket (t - origin_) / width_.
//     Buckets are unsorted vectors -- scheduling is an append.
//   * Events beyond the window land in an unsorted *overflow* vector.  When
//     the window drains, the overflow is re-bucketed into a fresh window
//     whose bucket width adapts to the observed event density (span /
//     count * 2, bucket count the next power of two near count / 2).
//   * Extraction is *batched*: the next non-empty bucket is swapped out,
//     sorted once by (time, seq), and consumed through a cursor.  Events
//     scheduled into the already-drained region (always >= now) are
//     sort-inserted into the live batch past the cursor, preserving the
//     global (time, seq) firing order.
//
// Events are 40-byte trivially-copyable records: a timestamp, a sequence
// number, an EventKind tag, and a two-word payload union.  Every event is
// dispatched through one bound function pointer (`bind`) and a switch in the
// driver -- no per-event heap allocation and no type erasure.
//
// Cancellation stays lazy (tombstone set, skipped on pop), but tombstones no
// longer accumulate without bound: when at least half the queued events are
// dead the calendar is compacted in one sweep (see `cancel`).
//
// Determinism contract: events fire in strict (time, seq) order and seq is
// assigned per schedule call, so any driver issuing the same schedule/cancel
// calls in the same order observes the same firing order as the reference
// binary-heap engine (tests/support/heap_engine.hpp, which keeps its own
// closure-per-event API), bit for bit.
//
// The fork-join systems in `src/sim` are built on this engine; the Lindley
// fast path in `src/fjsim` is the specialised alternative, and the two are
// cross-validated in the test suite.
#pragma once

#include <cstdint>
#include <type_traits>
#include <unordered_set>
#include <vector>

namespace forktail::sim {

/// Closed enum of event types.  Drivers switch on the kind.
enum class EventKind : std::uint8_t {
  kArrival,       ///< open/closed-loop request arrival
  kTaskComplete,  ///< a node finished one task
  kReport,        ///< periodic reporting / monitoring tick
  kTimer,         ///< generic driver timer (hedge launches, deadlines)
};

/// Two-word payload interpreted per EventKind.  Drivers own the meaning of
/// each field; the engine never reads the payload.
union EventPayload {
  struct {
    std::uint64_t a, b;
  } raw;
  struct {
    std::uint64_t index;  ///< request ordinal
  } arrival;
  struct {
    std::uint32_t slot;     ///< driver request-slot index
    std::uint32_t task;     ///< task ordinal within the request
    std::uint32_t node;     ///< node the task ran on
    std::uint32_t replica;  ///< replica ordinal (redundant dispatch)
  } task;
  struct {
    std::uint32_t kind;    ///< driver-private timer discriminator
    std::uint32_t index;   ///< driver-private index
    std::uint64_t cookie;  ///< driver-private correlation value
  } timer;
};
static_assert(sizeof(EventPayload) == 16, "payload must stay two words");

/// One calendar entry.  Trivially copyable by design: buckets are plain
/// vectors and batch extraction memmoves freely.
struct Event {
  double time;
  std::uint64_t seq;
  EventPayload payload;
  EventKind kind;
  std::uint8_t flags;  ///< Engine::kFlagCancellable
};
static_assert(std::is_trivially_copyable_v<Event>, "events must stay POD");
static_assert(sizeof(Event) <= 40, "events must stay arena-friendly");

class Engine {
 public:
  /// Identifies one cancellable event (see schedule_cancellable_event).
  using EventId = std::uint64_t;
  /// Event sink: called for every fired event.
  using Dispatcher = void (*)(void* ctx, Engine& engine, const Event& ev);

  double now() const noexcept { return now_; }
  std::uint64_t events_processed() const noexcept { return processed_; }
  std::uint64_t events_cancelled() const noexcept { return cancelled_count_; }

  /// Number of tombstone-compaction sweeps over the engine's lifetime.
  std::uint64_t compactions() const noexcept { return compactions_; }

  /// High-water mark of the event calendar over this engine's lifetime.
  std::size_t max_queue_depth() const noexcept { return max_depth_; }

  /// Events currently queued (tombstones included until compacted).
  std::size_t queue_depth() const noexcept { return size_; }

  /// Bind the event sink.  Must be set before any event fires; typically
  /// `engine.bind(this, &Driver::on_event_thunk)`.
  void bind(void* ctx, Dispatcher dispatcher) noexcept {
    ctx_ = ctx;
    dispatcher_ = dispatcher;
  }

  /// Schedule a typed event at absolute time `time` (>= now, finite).
  /// Events at equal times fire in scheduling order.  O(1) amortised: an
  /// append into a bucket, no allocation once the calendar is warm.
  EventId schedule_event(double time, EventKind kind, EventPayload payload) {
    check_time(time);
    const Event ev{time, seq_++, payload, kind, 0};
    push(ev);
    return ev.seq;
  }

  /// Schedule a typed event at now + delay.
  EventId schedule_event_in(double delay, EventKind kind,
                            EventPayload payload) {
    return schedule_event(now_ + delay, kind, payload);
  }

  /// Schedule a *cancellable* typed event (timeout deadlines, hedge
  /// launches: anything that a cancel-on-first-complete race may retract).
  /// The returned id stays valid until the event fires or is cancelled.
  EventId schedule_cancellable_event(double time, EventKind kind,
                                     EventPayload payload) {
    check_time(time);
    const Event ev{time, seq_++, payload, kind, kFlagCancellable};
    push(ev);
    cancellable_.insert(ev.seq);
    return ev.seq;
  }

  /// Cancel a pending cancellable event.  Returns false (harmlessly) when
  /// the event already fired, was already cancelled, or never existed.
  /// Cancellation is lazy -- the calendar entry becomes a tombstone skipped
  /// on pop, without advancing simulated time or the processed count -- so
  /// cancel is O(1).  When tombstones reach half the queue the calendar is
  /// compacted in one sweep, bounding memory under cancel-heavy load.
  bool cancel(EventId id);

  /// Run until the event queue empties or `stop()` is called.
  void run();

  /// Run until simulated time exceeds `t_end` (events after t_end stay
  /// queued).
  void run_until(double t_end);

  /// Request termination from inside the dispatcher.
  void stop() noexcept { stopped_ = true; }

  bool empty() const noexcept { return size_ == 0; }

 private:
  static constexpr std::uint8_t kFlagCancellable = 1;
  /// Compaction triggers once at least this many tombstones are queued and
  /// they make up >= half the queue.
  static constexpr std::size_t kCompactMinDead = 64;

  struct EarlierByTimeSeq {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };

  /// Validate a schedule time: >= now and finite.  NaN fails the first
  /// comparison (same exception the binary-heap engine threw for past
  /// times); time - time is 0 for finite values and NaN for +/-inf, so no
  /// isfinite call.  The throws live in a cold out-of-line helper so this
  /// inlines into every schedule call.
  void check_time(double time) const {
    if (!(time >= now_)) throw_bad_time(true);
    if (time - time != 0.0) throw_bad_time(false);
  }

  [[noreturn]] static void throw_bad_time(bool past);

  /// Insert into the calendar: current batch (sorted, past the cursor) when
  /// the event lands in the drained region, else its bucket, else overflow.
  void push(const Event& ev);

  /// Point at the next live event, consuming tombstones on the way; null
  /// when the calendar is empty.  The pointer is invalidated by any
  /// subsequent schedule call.
  const Event* peek_live();

  /// Sort the current batch by (time, seq): insertion sort for the common
  /// tiny batch, std::sort beyond that.
  void sort_batch();

  /// Swap-and-sort the next non-empty bucket into the batch, re-bucketing
  /// the overflow into a fresh window when the current one is drained.
  /// Returns false when no events remain.
  bool refill_batch();

  /// Build a new window from the overflow (adaptive width, see file
  /// comment).
  void rebucket();

  /// Drop every tombstone from the calendar in one sweep.  Runs when
  /// cancel() sees >= 50% dead events.
  void compact();

  /// Fire one event through the bound dispatcher.
  void fire(const Event& ev) { dispatcher_(ctx_, *this, ev); }

  /// Flush run-loop telemetry into the global metrics registry.  Deltas
  /// are this run's counts.
  void publish_metrics(std::uint64_t events, std::uint64_t compactions) const;

  // --- calendar storage -------------------------------------------------
  std::vector<std::vector<Event>> buckets_;
  std::vector<Event> overflow_;
  std::vector<Event> scratch_;  ///< rebucket/compact spill, capacity reused
  std::vector<Event> batch_;    ///< current sorted batch
  std::size_t batch_pos_ = 0;   ///< consumption cursor into batch_
  std::size_t scan_ = 0;        ///< next bucket index to drain
  std::size_t nbuckets_ = 0;    ///< active window size (0: no window yet)
  double origin_ = 0.0;         ///< window start time
  double inv_width_ = 1.0;      ///< 1 / bucket width
  double window_end_ = 0.0;     ///< origin_ + nbuckets_ * width
  std::size_t size_ = 0;        ///< queued events, tombstones included

  // --- typed dispatch ---------------------------------------------------
  void* ctx_ = nullptr;
  Dispatcher dispatcher_ = nullptr;

  // --- bookkeeping ------------------------------------------------------
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t max_depth_ = 0;
  bool stopped_ = false;
  /// Sequence numbers of live cancellable events / of cancelled-but-still-
  /// queued tombstones.  Ordinary events appear in neither, so the FIFO hot
  /// path never touches these sets (the cancellable flag gates the lookup).
  std::unordered_set<std::uint64_t> cancellable_;
  std::unordered_set<std::uint64_t> cancelled_;
  std::uint64_t cancelled_count_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace forktail::sim
