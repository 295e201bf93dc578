#include "serve/ingest.hpp"

#include <span>
#include <utility>

#include "obs/metrics.hpp"

namespace forktail::serve {

namespace {
struct IngestMetrics {
  obs::Counter& samples = obs::Registry::global().counter("serve.samples");
  obs::Counter& batches = obs::Registry::global().counter("serve.batches");
  obs::Counter& shed = obs::Registry::global().counter("serve.shed");
  obs::Counter& stale_ts =
      obs::Registry::global().counter("serve.wire.rejected.stale_timestamp");
  obs::Counter& clamped =
      obs::Registry::global().counter("serve.clock_clamped");
  obs::Counter& evicted =
      obs::Registry::global().counter("serve.agents.evicted");
  static IngestMetrics& get() {
    static IngestMetrics m;
    return m;
  }
};
}  // namespace

IngestShard::IngestShard(const ShardConfig& config)
    : ring_(config.ring_capacity),
      predictor_(config.local_nodes, config.window_seconds,
                 config.min_samples, config.skew_tolerance),
      liveness_(config.local_nodes) {
  publish();
}

std::size_t IngestShard::submit(std::uint32_t local, const WireBatch& batch) {
  const std::size_t shed = ring_.push_drop_oldest_with([&](WireBatch& slot) {
    assign_used(slot, batch);
    slot.node = local;
  });
  if (shed != 0) {
    batches_shed_.fetch_add(shed, std::memory_order_relaxed);
    IngestMetrics::get().shed.add(shed);
    // Steady-clock time is not available here (submit runs on the socket
    // reader's hot path); drain() stamps last_shed_s_ when it observes the
    // count moved.
  }
  return shed;
}

std::size_t IngestShard::drain(double now_s) {
  // At most one ring's worth per call: a producer that keeps pace with the
  // worker must not postpone the publish below indefinitely.
  const std::size_t budget = drain_budget();
  std::size_t drained = 0;
  std::uint64_t samples = 0, batches = 0;
  WireBatch batch;
  const auto take = [&batch](const WireBatch& slot) {
    assign_used(batch, slot);
  };
  while (drained < budget && ring_.try_pop_with(take)) {
    ++drained;
    if (batch.count == 0) continue;
    const double t_s = static_cast<double>(batch.timestamp_ns) * 1e-9;
    // One timestamp per batch, so one clock check decides the whole batch:
    // a beyond-tolerance jump rejects all of it, a clamp clamps every
    // sample.
    const auto outcome = predictor_.record_batch(
        batch.node, t_s, std::span(batch.samples.data(), batch.count));
    if (outcome == core::RecordOutcome::kRejected) {
      // Counted per datagram, like every other wire.rejected reason.
      stale_rejected_.fetch_add(1, std::memory_order_relaxed);
      IngestMetrics::get().stale_ts.add(1);
      continue;
    }
    if (outcome == core::RecordOutcome::kClamped) {
      IngestMetrics::get().clamped.add(batch.count);
    }
    samples += batch.count;
    ++batches;
    liveness_.observe(batch.node, batch.timestamp_ns, now_s);
  }
  if (drained > 0) {
    publish();
    // Counted after the publish: a reader that sees these counts sees the
    // samples in its next snapshot().
    samples_ingested_.fetch_add(samples, std::memory_order_release);
    IngestMetrics::get().samples.add(samples);
    IngestMetrics::get().batches.add(batches);
  }
  // Stamp the shed time whenever this drain observes sheds it has not seen
  // before (sheds happen producer-side, so the consumer back-dates them to
  // the drain that noticed -- at most one drain interval late).
  const std::uint64_t shed_now = batches_shed_.load(std::memory_order_relaxed);
  if (shed_now != shed_seen_) {
    shed_seen_ = shed_now;
    last_shed_s_.store(now_s, std::memory_order_relaxed);
  }
  return drained;
}

void IngestShard::sweep(double now_s, double timeout_s) {
  const auto newly_stale = liveness_.sweep(now_s, timeout_s);
  for (const std::size_t node : newly_stale) {
    // Roll the dead agent's window forward in its own time base so its
    // congested last samples age out instead of freezing node_stats.
    predictor_.advance(node, liveness_.estimated_agent_now_s(node, now_s));
    IngestMetrics::get().evicted.add(1);
  }
  // Stale (but not yet revived) nodes keep aging: advance them every sweep
  // so the window actually empties once the timeout has passed.
  for (std::size_t node = 0; node < liveness_.nodes(); ++node) {
    if (liveness_.stale(node)) {
      predictor_.advance(node, liveness_.estimated_agent_now_s(node, now_s));
    }
  }
  publish();
}

void IngestShard::publish() {
  // Built (the window merge included) before the lock: readers only ever
  // wait for the pointer swap.
  auto epoch = std::make_shared<Epoch>();
  epoch->pooled = predictor_.pooled_stats();
  epoch->seen_nodes = liveness_.seen_count();
  epoch->live_nodes = liveness_.live_count();
  epoch->stale_nodes = liveness_.stale_count();
  epoch->oldest_live_seen_s = liveness_.oldest_live_seen_s();
  std::shared_ptr<const Epoch> retired;
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    retired = std::exchange(epoch_, std::move(epoch));
  }
  // `retired` is released here, outside the lock, if no reader holds it.
}

IngestShard::Snapshot IngestShard::snapshot(double now_s) const {
  std::shared_ptr<const Epoch> epoch;
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    epoch = epoch_;
  }
  Snapshot snap;
  snap.pooled = epoch->pooled;
  snap.seen_nodes = epoch->seen_nodes;
  snap.live_nodes = epoch->live_nodes;
  snap.stale_nodes = epoch->stale_nodes;
  snap.staleness_ms =
      LivenessTable::staleness_ms_since(epoch->oldest_live_seen_s, now_s);
  snap.batches_shed = batches_shed_.load(std::memory_order_relaxed);
  snap.last_shed_s = last_shed_s_.load(std::memory_order_relaxed);
  snap.queue_depth = ring_.size();
  return snap;
}

}  // namespace forktail::serve
