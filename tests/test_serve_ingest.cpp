// Ingest-path tests: the bounded ring's FIFO/drop-oldest contract (single
// threaded and under a producer/consumer race), and the IngestShard pipeline
// from submitted wire batches to pooled predictor windows, including
// batch-level stale-timestamp rejection and overload shedding, and the
// published-epoch read side: a snapshot after drain() sees it, staleness
// matches the liveness table, and concurrent snapshots are whole epochs.
// Batches cross the ring as their `count` used samples only, and drain()
// records each datagram with one clock check.
#include "serve/ingest.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace forktail::serve {
namespace {

TEST(BoundedQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(BoundedQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(BoundedQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(BoundedQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(BoundedQueue<int>(1000).capacity(), 1024u);
  // No power of two in size_t reaches SIZE_MAX: refused before allocating.
  EXPECT_THROW(BoundedQueue<int>(std::numeric_limits<std::size_t>::max()),
               std::length_error);
}

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));  // full
  int out = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.try_pop(out));  // empty
}

TEST(BoundedQueue, DropOldestShedsFromTheFront) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(q.push_drop_oldest(i), 0u);
  // Ring full: pushing 4 more sheds exactly the 4 oldest.
  std::size_t shed = 0;
  for (int i = 4; i < 8; ++i) shed += q.push_drop_oldest(i);
  EXPECT_EQ(shed, 4u);
  int out = -1;
  for (int i = 4; i < 8; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, i);  // freshest data won
  }
}

TEST(BoundedQueue, StressProducerConsumerNothingLostOrDuplicated) {
  // One producer shedding under overload, one consumer: every value is
  // either consumed or counted shed, exactly once.
  BoundedQueue<std::uint64_t> q(64);
  constexpr std::uint64_t kTotal = 200000;
  std::atomic<std::uint64_t> consumed_sum{0};
  std::atomic<std::uint64_t> consumed_count{0};
  std::atomic<bool> done{false};

  std::thread consumer([&] {
    std::uint64_t value = 0;
    while (!done.load(std::memory_order_acquire) || true) {
      if (q.try_pop(value)) {
        consumed_sum.fetch_add(value, std::memory_order_relaxed);
        consumed_count.fetch_add(1, std::memory_order_relaxed);
      } else if (done.load(std::memory_order_acquire)) {
        if (!q.try_pop(value)) break;
        consumed_sum.fetch_add(value, std::memory_order_relaxed);
        consumed_count.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  std::uint64_t shed = 0;
  for (std::uint64_t i = 1; i <= kTotal; ++i) {
    shed += q.push_drop_oldest(i);
  }
  done.store(true, std::memory_order_release);
  consumer.join();

  // Shed values are unknowable individually (the consumer races the
  // producer for them) but the count must balance exactly.
  EXPECT_EQ(consumed_count.load() + shed, kTotal);
  EXPECT_GT(consumed_count.load(), 0u);
}

// ------------------------------------------------------------ IngestShard

ShardConfig small_shard() {
  ShardConfig config;
  config.local_nodes = 2;
  config.window_seconds = 10.0;
  config.min_samples = 3;
  config.skew_tolerance = 0.5;
  config.ring_capacity = 8;
  return config;
}

WireBatch batch_for(std::uint32_t node, double t_s,
                    std::initializer_list<double> samples) {
  WireBatch batch;
  batch.node = node;
  batch.timestamp_ns = static_cast<std::uint64_t>(t_s * 1e9);
  batch.count = static_cast<std::uint16_t>(samples.size());
  std::size_t i = 0;
  for (double v : samples) batch.samples[i++] = v;
  return batch;
}

TEST(IngestShard, SubmitDrainFillsWindows) {
  IngestShard shard(small_shard());
  shard.submit(0, batch_for(0, 1.0, {1.0, 2.0, 3.0}));
  shard.submit(1, batch_for(1, 1.0, {4.0, 5.0, 6.0}));
  EXPECT_EQ(shard.drain(1.0), 2u);
  EXPECT_EQ(shard.samples_ingested(), 6u);

  const auto snap = shard.snapshot(1.0);
  EXPECT_EQ(snap.pooled.filled_nodes, 2u);
  EXPECT_DOUBLE_EQ(snap.pooled.count, 6.0);
  EXPECT_NEAR(snap.pooled.mean, 3.5, 1e-12);
  EXPECT_EQ(snap.seen_nodes, 2u);
  EXPECT_EQ(snap.live_nodes, 2u);
  EXPECT_EQ(snap.batches_shed, 0u);
}

TEST(IngestShard, OverflowShedsOldestAndCounts) {
  IngestShard shard(small_shard());  // ring capacity 8
  for (int i = 0; i < 20; ++i) {
    shard.submit(0, batch_for(0, 1.0 + 0.01 * i, {1.0}));
  }
  EXPECT_EQ(shard.batches_shed(), 12u);
  EXPECT_EQ(shard.drain(2.0), 8u);
  EXPECT_EQ(shard.samples_ingested(), 8u);
  const auto snap = shard.snapshot(2.0);
  EXPECT_EQ(snap.batches_shed, 12u);
  EXPECT_GE(snap.last_shed_s, 0.0);  // stamped by the drain that observed it
}

TEST(IngestShard, BackwardsBatchTimestampRejectedAsStale) {
  IngestShard shard(small_shard());
  shard.submit(0, batch_for(0, 10.0, {1.0, 2.0, 3.0}));
  EXPECT_EQ(shard.drain(10.0), 1u);
  // A batch stamped more than skew_tolerance before the high-water mark is
  // rejected whole.
  shard.submit(0, batch_for(0, 8.0, {9.0, 9.0}));
  EXPECT_EQ(shard.drain(10.1), 1u);
  EXPECT_EQ(shard.stale_rejected(), 1u);  // one datagram, whatever its count
  EXPECT_EQ(shard.samples_ingested(), 3u);
  const auto snap = shard.snapshot(10.1);
  EXPECT_NEAR(snap.pooled.mean, 2.0, 1e-12);  // rejected samples never landed
}

TEST(IngestShard, SlightlyBackwardsBatchClampedNotDropped) {
  IngestShard shard(small_shard());  // skew_tolerance 0.5
  shard.submit(0, batch_for(0, 10.0, {1.0, 2.0}));
  shard.submit(0, batch_for(0, 9.8, {3.0}));  // within tolerance
  EXPECT_EQ(shard.drain(10.0), 2u);
  EXPECT_EQ(shard.samples_ingested(), 3u);
  EXPECT_EQ(shard.stale_rejected(), 0u);
}

// decode -> submit -> drain with count < kMaxSamplesPerDatagram and junk
// past `count`, in the reader's reused batch and in ring slots that held
// full batches: exactly `count` samples land, with their own moments.
TEST(IngestShard, RoundTripIngestsExactlyCountSamples) {
  IngestShard shard(small_shard());  // ring capacity 8
  WireBatch full;
  full.count = static_cast<std::uint16_t>(kMaxSamplesPerDatagram);
  for (std::size_t i = 0; i < kMaxSamplesPerDatagram; ++i) full.samples[i] = 1e6;
  for (int i = 0; i < 8; ++i) {
    full.timestamp_ns = static_cast<std::uint64_t>((1.0 + 0.001 * i) * 1e9);
    shard.submit(1, full);  // every ring slot now holds 256 samples of 1e6
  }
  EXPECT_EQ(shard.drain(1.0), 8u);
  const std::uint64_t before = shard.samples_ingested();
  EXPECT_EQ(before, 8 * kMaxSamplesPerDatagram);

  util::Rng rng(7);
  WireBatch sent;
  sent.node = 0;
  sent.count = 37;
  sent.timestamp_ns = 2'000'000'000;
  double sum = 0.0;
  for (std::size_t i = 0; i < sent.count; ++i) {
    sent.samples[i] = rng.exponential(5.0);
    sum += sent.samples[i];
  }
  const std::vector<std::uint8_t> bytes = encode(sent);
  ASSERT_FALSE(bytes.empty());
  WireBatch reader;  // the socket reader's reused batch, dirty past count
  reader.samples.fill(std::numeric_limits<double>::quiet_NaN());
  ASSERT_EQ(decode(bytes.data(), bytes.size(), reader), WireError::kNone);
  for (int i = 0; i < 8; ++i) {
    reader.timestamp_ns = sent.timestamp_ns + static_cast<std::uint64_t>(i);
    shard.submit(0, reader);
  }
  EXPECT_EQ(shard.drain(2.0), 8u);
  EXPECT_EQ(shard.samples_ingested() - before, 8u * sent.count);
  const auto snap = shard.snapshot(2.0);
  // Node 1's window holds the full batches, node 0's only the sent ones.
  EXPECT_DOUBLE_EQ(snap.pooled.count,
                   8.0 * kMaxSamplesPerDatagram + 8.0 * sent.count);
  const double node0_mean = sum / sent.count;
  const double n0 = 8.0 * sent.count, n1 = 8.0 * kMaxSamplesPerDatagram;
  EXPECT_NEAR(snap.pooled.mean, (n0 * node0_mean + n1 * 1e6) / (n0 + n1),
              1e-9 * 1e6);
  EXPECT_TRUE(std::isfinite(snap.pooled.variance));
}

// The serve counters move per datagram as they did when drain() recorded
// sample by sample: a clamped batch clamps every sample, a stale one is
// one rejection.
TEST(IngestShard, ClampAndStaleCountersMovePerDatagram) {
  auto& clamped = obs::Registry::global().counter("serve.clock_clamped");
  auto& stale =
      obs::Registry::global().counter("serve.wire.rejected.stale_timestamp");
  auto& online_clamped =
      obs::Registry::global().counter("online.clock_clamped");
  auto& online_rejected =
      obs::Registry::global().counter("online.clock_rejected");
  const std::uint64_t c0 = clamped.value(), s0 = stale.value();
  const std::uint64_t oc0 = online_clamped.value(), or0 = online_rejected.value();
  IngestShard shard(small_shard());  // skew_tolerance 0.5
  shard.submit(0, batch_for(0, 10.0, {1.0, 2.0}));
  shard.submit(0, batch_for(0, 9.8, {3.0, 4.0, 5.0}));  // clamped, 3 samples
  shard.submit(0, batch_for(0, 5.0, {6.0, 7.0, 8.0, 9.0}));  // stale
  EXPECT_EQ(shard.drain(10.0), 3u);
  EXPECT_EQ(shard.samples_ingested(), 5u);
  EXPECT_EQ(shard.stale_rejected(), 1u);
  EXPECT_EQ(clamped.value() - c0, 3u);
  EXPECT_EQ(online_clamped.value() - oc0, 3u);
  EXPECT_EQ(stale.value() - s0, 1u);
  EXPECT_EQ(online_rejected.value() - or0, 1u);
}

TEST(IngestShard, SweepMarksDeadAgentStaleAndDegradesPooledStats) {
  IngestShard shard(small_shard());
  // Both nodes fill, then node 1 goes silent.
  shard.submit(0, batch_for(0, 1.0, {1.0, 1.0, 1.0}));
  shard.submit(1, batch_for(1, 1.0, {5.0, 5.0, 5.0}));
  shard.drain(1.0);
  ASSERT_EQ(shard.snapshot(1.0).pooled.filled_nodes, 2u);

  // Node 0 keeps reporting on its own clock; receiver time passes the
  // liveness timeout for node 1 and then keeps going until node 1's
  // estimated agent clock has rolled a full window past its last samples.
  const double timeout_s = 2.0;
  for (int i = 1; i <= 60; ++i) {
    const double t = 1.0 + 0.2 * i;
    shard.submit(0, batch_for(0, t, {1.0, 1.0, 1.0}));
    shard.drain(t);
    shard.sweep(t, timeout_s);
  }
  const auto snap = shard.snapshot(13.0);
  EXPECT_EQ(snap.stale_nodes, 1u);
  EXPECT_EQ(snap.live_nodes, 1u);
  // The dead node's window was advanced in its own time base far enough
  // that its frozen congested samples aged out of the pooled stats.
  EXPECT_EQ(snap.pooled.filled_nodes, 1u);
  EXPECT_NEAR(snap.pooled.mean, 1.0, 1e-12);
}

TEST(IngestShard, RevivedAgentComesBackLive) {
  IngestShard shard(small_shard());
  shard.submit(0, batch_for(0, 1.0, {1.0, 1.0, 1.0}));
  shard.drain(1.0);
  shard.sweep(10.0, 2.0);
  EXPECT_EQ(shard.snapshot(10.0).stale_nodes, 1u);

  shard.submit(0, batch_for(0, 11.0, {2.0, 2.0, 2.0}));
  shard.drain(11.0);
  const auto snap = shard.snapshot(11.0);
  EXPECT_EQ(snap.stale_nodes, 0u);
  EXPECT_EQ(snap.live_nodes, 1u);
}

TEST(IngestShard, StalenessTracksLiveNodesOnly) {
  IngestShard shard(small_shard());
  shard.submit(0, batch_for(0, 1.0, {1.0, 1.0, 1.0}));
  shard.submit(1, batch_for(1, 1.0, {1.0, 1.0, 1.0}));
  shard.drain(1.0);
  // Node 1 dies; node 0 last reported at receiver t=5.
  shard.submit(0, batch_for(0, 5.0, {1.0}));
  shard.drain(5.0);
  shard.sweep(5.0, 3.0);  // node 1 idle 4 s > 3 s -> stale
  const auto snap = shard.snapshot(6.0);
  EXPECT_EQ(snap.stale_nodes, 1u);
  // Worst LIVE age is node 0's 1 s, not node 1's 5 s.
  EXPECT_NEAR(snap.staleness_ms, 1000.0, 1e-6);
}

// ------------------------------------------------------ published epochs

TEST(IngestShard, SnapshotAfterDrainSeesThatDrain) {
  // The single-threaded contract the in-process replay relies on: drain()
  // publishes before it returns, so the next snapshot() reflects it.
  ShardConfig config = small_shard();
  config.local_nodes = 3;
  IngestShard shard(config);
  LivenessTable mirror(config.local_nodes);  // fed the same arrivals
  EXPECT_EQ(shard.snapshot(0.0).seen_nodes, 0u);

  // Each batch is drained at its own arrival time t, which is the receiver
  // time the liveness table records for it.
  const auto feed = [&](std::uint32_t node, double t,
                        std::initializer_list<double> samples) {
    shard.submit(node, batch_for(node, t, samples));
    mirror.observe(node, static_cast<std::uint64_t>(t * 1e9), t);
    return shard.drain(t);
  };
  EXPECT_EQ(feed(0, 1.0, {1.0, 2.0, 3.0}), 1u);
  auto snap = shard.snapshot(1.0);
  EXPECT_EQ(snap.pooled.count, 3.0);
  EXPECT_EQ(snap.seen_nodes, 1u);

  EXPECT_EQ(feed(1, 1.5, {4.0, 5.0, 6.0, 7.0}), 1u);
  snap = shard.snapshot(1.5);
  EXPECT_EQ(snap.pooled.count, 7.0);
  EXPECT_EQ(snap.pooled.filled_nodes, 2u);
  EXPECT_EQ(snap.seen_nodes, 2u);

  EXPECT_EQ(feed(2, 2.25, {8.0, 9.0, 10.0}), 1u);
  snap = shard.snapshot(2.25);
  EXPECT_EQ(snap.pooled.count, 10.0);
  EXPECT_EQ(snap.pooled.filled_nodes, 3u);
  EXPECT_EQ(snap.seen_nodes, 3u);

  // Staleness is evaluated at query time from the published epoch and
  // equals the liveness table's own answer bit for bit, before and after
  // a sweep marks node 0 stale.
  for (const double now : {2.25, 2.5, 3.125, 4.0}) {
    EXPECT_EQ(shard.snapshot(now).staleness_ms, mirror.staleness_ms(now));
  }
  shard.sweep(4.0, 2.75);
  (void)mirror.sweep(4.0, 2.75);
  snap = shard.snapshot(4.5);
  EXPECT_EQ(snap.stale_nodes, 1u);
  EXPECT_EQ(snap.staleness_ms, mirror.staleness_ms(4.5));
  EXPECT_NEAR(snap.staleness_ms, 3000.0, 1e-9);  // node 1, last seen at 1.5
}

TEST(IngestShard, ConcurrentSnapshotsSeeWholeEpochs) {
  // A feeder submits 64-sample batches, the worker drains and sweeps, and
  // the main thread snapshots in a loop without any coordination.  Every
  // snapshot must be one consistent published epoch.
  constexpr std::size_t kBatch = 64;
  constexpr std::uint32_t kNodes = 8;
  constexpr int kRounds = 20000;
  ShardConfig config;
  config.local_nodes = kNodes;
  config.window_seconds = 0.5;  // agent seconds: ~60 batches per node
  config.min_samples = 3 * kBatch;
  // Revived agents land behind the window their sweep advanced; clamp
  // them rather than reject, so every batch is ingested or shed.
  config.skew_tolerance = 1e6;
  config.ring_capacity = 64;
  IngestShard shard(config);

  std::atomic<bool> fed{false}, worker_done{false}, snapshot_taken{false};
  std::uint64_t submitted = 0;  // read after join
  std::thread feeder([&] {
    WireBatch batch;
    batch.count = kBatch;
    for (std::size_t i = 0; i < kBatch; ++i) batch.samples[i] = 1.0 + i % 7;
    for (int r = 0; r < kRounds; ++r) {
      // The last node falls silent for long stretches, so sweeps mark it
      // stale and later arrivals revive it.
      const auto node = static_cast<std::uint32_t>(r % kNodes);
      if (node == kNodes - 1 && (r / 4000) % 2 == 1) continue;
      batch.node = node;
      batch.timestamp_ns = static_cast<std::uint64_t>(r) * 1'000'000;
      shard.submit(node, batch);
      ++submitted;
      if (r % 256 == 0) std::this_thread::yield();
    }
    fed.store(true, std::memory_order_release);
  });
  std::thread worker([&] {
    // Receiver time advances 1 ms per pass; the sweep timeout is 20 ms.
    double now = 0.0;
    for (;;) {
      const bool last = fed.load(std::memory_order_acquire);
      now += 1e-3;
      const std::size_t drained = shard.drain(now);
      shard.sweep(now, 0.02);
      if (drained == 0 && last) break;
      if (drained == 0) std::this_thread::yield();
    }
    // A main thread descheduled for the whole run would otherwise see the
    // worker done before its first snapshot; the wait is bounded so a
    // broken snapshot fails the test instead of hanging it.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!snapshot_taken.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    worker_done.store(true, std::memory_order_release);
  });

  std::size_t snapshots = 0, last_seen = 0;
  std::string violation;
  while (violation.empty() && !worker_done.load(std::memory_order_acquire)) {
    const auto snap = shard.snapshot(1.0);
    ++snapshots;
    snapshot_taken.store(true, std::memory_order_release);
    if (std::fmod(snap.pooled.count, double(kBatch)) != 0.0) {
      violation = "pooled.count " + std::to_string(snap.pooled.count);
    } else if (snap.pooled.filled_nodes > snap.seen_nodes) {
      violation = "filled_nodes > seen_nodes";
    } else if (snap.live_nodes + snap.stale_nodes != snap.seen_nodes) {
      violation = "live + stale != seen";
    } else if (snap.seen_nodes < last_seen) {
      violation = "seen_nodes decreased";
    }
    last_seen = snap.seen_nodes;
  }
  feeder.join();
  worker.join();
  EXPECT_EQ(violation, "");
  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(shard.snapshot(1.0).seen_nodes, kNodes);
  EXPECT_EQ(shard.stale_rejected(), 0u);
  EXPECT_EQ(shard.samples_ingested() + shard.batches_shed() * kBatch,
            submitted * kBatch);
}

}  // namespace
}  // namespace forktail::serve
