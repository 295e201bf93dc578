// Ingest path of the serve daemon: bounded rings with explicit
// load-shedding, sharded online-predictor windows, and per-agent liveness.
//
// The robustness invariants this layer owns:
//
//   * The socket reader NEVER blocks on a slow consumer and NEVER grows an
//     unbounded queue.  Each shard has a bounded ring; when it is full the
//     producer drops the OLDEST queued batch (freshest data wins -- stale
//     samples were about to age out of the window anyway), counts it in
//     serve.shed, and the degradation surfaces in served predictions.
//   * A dead agent cannot freeze a prediction: the liveness sweep advances
//     idle nodes' windows (the advance()-on-idle-node footgun, fixed at the
//     call site) and marks them stale so predictions degrade with a stated
//     reason instead of serving a frozen congested window.
//   * Backwards agent clocks are absorbed or rejected by the skew-tolerant
//     core::OnlineTailPredictor::record_batch, once per datagram;
//     rejections are counted as serve.wire.rejected.stale_timestamp.
//   * A batch crosses the ring as its header and its `count` samples only
//     (assign_used), not the whole kMaxSamplesPerDatagram array.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/online.hpp"
#include "serve/liveness.hpp"
#include "serve/wire.hpp"

namespace forktail::serve {

/// Bounded lock-free FIFO (Vyukov bounded-MPMC layout).  Used as an SPSC
/// ring between the socket reader and one shard worker, with one twist:
/// push_drop_oldest() makes the producer a second (discarding) consumer
/// when the ring is full, which the MPMC cell-sequence protocol supports
/// without locks or producer-side blocking.
template <typename T>
class BoundedQueue {
 public:
  /// Capacity is rounded up to a power of two, minimum 2.  Throws
  /// std::length_error when no power of two in std::size_t reaches
  /// `min_capacity`.
  explicit BoundedQueue(std::size_t min_capacity) {
    constexpr std::size_t kMaxCapacity =
        std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
    if (min_capacity > kMaxCapacity) {
      throw std::length_error("BoundedQueue: capacity too large");
    }
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    cells_ = std::vector<Cell>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Approximate occupancy (exact when producer and consumer are quiet).
  std::size_t size() const noexcept {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_relaxed);
    return tail >= head ? tail - head : 0;
  }

  bool try_push(const T& value) {
    return try_push_with([&](T& slot) { slot = value; });
  }

  bool try_pop(T& out) {
    return try_pop_with([&](const T& slot) { out = slot; });
  }

  /// try_push() that writes the new entry in place: `fill(T&)` runs on the
  /// claimed slot, which still holds whatever entry used it last.  Lets a
  /// large T copy only the part of it that is in use.
  template <typename Fill>
  bool try_push_with(Fill&& fill) {
    Cell* cell;
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    fill(cell->value);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// try_pop() that reads the oldest entry in place: `take(const T&)` runs
  /// on the claimed slot before it is handed back to the producer.
  template <typename Take>
  bool try_pop_with(Take&& take) {
    Cell* cell;
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos + 1);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // empty
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    take(cell->value);
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  /// Non-blocking push that sheds on overflow: when the ring is full, pop
  /// and discard the OLDEST entries until the new one fits.  Returns the
  /// number shed (0 on a clean push).  Never blocks, never fails: the
  /// bounded-iteration fallback (pathological scheduling only) sheds the
  /// incoming value itself rather than spinning.
  std::size_t push_drop_oldest(const T& value) {
    return push_drop_oldest_with([&](T& slot) { slot = value; });
  }

  /// push_drop_oldest() that writes the new entry in place (see
  /// try_push_with).
  template <typename Fill>
  std::size_t push_drop_oldest_with(Fill&& fill) {
    std::size_t shed = 0;
    // Each failed try_push is followed by freeing one slot, so capacity+1
    // rounds always suffice unless the consumer races us; a couple of
    // extra rounds absorbs that.
    for (std::size_t round = 0; round < capacity() + 4; ++round) {
      if (try_push_with(fill)) return shed;
      if (try_pop_with([](const T&) {})) ++shed;
    }
    return shed + 1;  // shed the incoming value (counted like any other)
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> tail_{0};  // next push position
  alignas(64) std::atomic<std::size_t> head_{0};  // next pop position
};

/// Per-shard ingest configuration (the serve scenario section, resolved).
struct ShardConfig {
  std::size_t local_nodes = 1;     ///< nodes mapped onto this shard
  double window_seconds = 20.0;    ///< sliding window per node
  std::size_t min_samples = 30;    ///< per-window fill threshold
  double skew_tolerance = 0.5;     ///< backwards-clock clamp bound, seconds
  std::size_t ring_capacity = 1024;  ///< bounded batches in flight
};

/// One ingest shard: bounded ring -> skew-tolerant predictor windows with
/// liveness tracking, read through published epochs.
///
/// Threading contract:
///   * submit() runs on the single socket-reader thread (producer side of
///     the lock-free ring);
///   * drain() and sweep() run on the shard's worker thread, which alone
///     owns the predictor windows and the liveness table -- no lock guards
///     them;
///   * snapshot() runs on any thread and never waits for a drain or a
///     merge: it copies the pointer to the last published Epoch under a
///     lock that guards only that pointer.
/// A drain() that drained at least one batch, and every sweep(), ends by
/// publishing a fresh Epoch, so a snapshot taken after drain() returns (on
/// the same thread, or one that synchronised with it) sees that drain.
class IngestShard {
 public:
  explicit IngestShard(const ShardConfig& config);

  /// Producer side (socket reader): queue one decoded batch for `local`
  /// (shard-local node index).  Returns the number of batches shed to make
  /// room (0 = clean).  Never blocks.
  std::size_t submit(std::uint32_t local, const WireBatch& batch);

  /// Consumer side (shard worker): drain up to one ring's capacity of
  /// queued batches into the predictor windows, then publish an epoch if
  /// any batch was drained.  `now_s` is the receiver's steady-clock time.
  /// Returns the number of batches drained.
  std::size_t drain(double now_s);

  /// Most batches one drain() takes: the ring's capacity.
  std::size_t drain_budget() const noexcept { return ring_.capacity(); }

  /// Liveness sweep: advance windows of nodes idle for > `timeout_s` (in
  /// the agent's own time base) so node_stats can never serve a frozen
  /// congested window; newly-idle nodes are marked stale and counted.
  /// Publishes an epoch.
  void sweep(double now_s, double timeout_s);

  /// Cumulative counts (thread-safe, monotone).  samples_ingested() is
  /// bumped after the epoch holding those samples is published, so once it
  /// counts a sample every later snapshot() includes it.
  std::uint64_t samples_ingested() const noexcept {
    return samples_ingested_.load(std::memory_order_acquire);
  }
  std::uint64_t batches_shed() const noexcept {
    return batches_shed_.load(std::memory_order_relaxed);
  }
  /// Datagrams rejected whole for a beyond-tolerance backwards timestamp.
  std::uint64_t stale_rejected() const noexcept {
    return stale_rejected_.load(std::memory_order_relaxed);
  }

  /// Query-side state snapshot at receiver time `now_s`: the last epoch's
  /// window and liveness state, staleness evaluated at `now_s`, and the
  /// live shed counters and ring depth.
  struct Snapshot {
    core::OnlineTailPredictor::PooledStats pooled;
    std::size_t seen_nodes = 0;   ///< nodes that ever sent a sample
    std::size_t live_nodes = 0;   ///< seen and not stale
    std::size_t stale_nodes = 0;  ///< seen, currently idle past timeout
    double staleness_ms = 0.0;    ///< worst data age among live nodes
    std::uint64_t batches_shed = 0;
    double last_shed_s = -std::numeric_limits<double>::infinity();
    std::size_t queue_depth = 0;
  };
  Snapshot snapshot(double now_s) const;

 private:
  /// Immutable shard state as of the end of one drain() or sweep().
  /// Shared with readers by pointer and never mutated once published, so
  /// per-node arrays can join it without changing the read side.
  struct Epoch {
    core::OnlineTailPredictor::PooledStats pooled;
    std::size_t seen_nodes = 0;
    std::size_t live_nodes = 0;
    std::size_t stale_nodes = 0;
    /// LivenessTable::oldest_live_seen_s() at publish time.
    double oldest_live_seen_s = std::numeric_limits<double>::infinity();
  };
  void publish();

  BoundedQueue<WireBatch> ring_;
  // `local` rides in WireBatch::node through the ring (the reader already
  // resolved the global id); kept explicit in submit()'s signature so the
  // mapping stays at one call site.
  core::OnlineTailPredictor predictor_;  ///< worker-owned
  LivenessTable liveness_;               ///< worker-owned
  mutable std::mutex epoch_mu_;          ///< guards epoch_ (the pointer) only
  std::shared_ptr<const Epoch> epoch_;
  std::atomic<std::uint64_t> samples_ingested_{0};
  std::atomic<std::uint64_t> batches_shed_{0};
  std::atomic<std::uint64_t> stale_rejected_{0};
  std::uint64_t shed_seen_ = 0;  ///< consumer-side; owned by drain()
  std::atomic<double> last_shed_s_{
      -std::numeric_limits<double>::infinity()};
};

}  // namespace forktail::serve
