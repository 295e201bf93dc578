// Sharded per-node statistics registry for cluster-scale simulations.
//
// At >= 1k nodes the per-node Welford accumulators are the hottest shared
// state after the event calendar: every task completion records one sample.
// ClusterStats splits the node range into cache-line-padded shards (node ->
// shard by contiguous ranges, so one node's samples always land in one
// shard and its accumulator stays *exact*, not approximately merged), which
// keeps recording allocation-free and -- because shards never share a cache
// line -- lets future multi-replication drivers record from one thread per
// shard without false sharing.
//
// Determinism contract: `summary()` is bit-identical for every shard count.
//   * Per-node moments are exact (a node lives in exactly one shard, and
//     samples for one node are recorded in simulation order).
//   * The pooled Welford is produced by merging the per-node accumulators
//     in *node* order, which is independent of the shard layout.
//   * The latency histogram uses integer bucket counts on the fixed log2-
//     linear grid (stats/log2_histogram.hpp), so merge order cannot
//     perturb it.
// Note the pooled moments are a node-ordered *merge* of exact per-node
// accumulators -- a deliberate definition (it is what a black-box monitor
// that only sees per-node (count, mean, variance) reports can compute), not
// a sample-ordered global Welford.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/log2_histogram.hpp"
#include "stats/welford.hpp"

namespace forktail::sim {

/// Deterministic roll-up of the whole registry (see file comment).
struct ClusterSummary {
  stats::Welford pooled;               ///< node-order merge of per-node stats
  std::vector<stats::Welford> per_node;
  stats::LatencyHistogram histogram;   ///< pooled latency histogram
  std::uint64_t samples = 0;
};

class ClusterStats {
 public:
  /// `num_shards` == 0 picks one shard per 64 nodes (min 1).  Nodes map to
  /// shards by contiguous ranges: shard s owns nodes [s*stride, ...), with
  /// the stride rounded up to a power of two (so the actual shard count may
  /// be below the request; summary() is bit-identical either way).
  explicit ClusterStats(std::size_t num_nodes, std::size_t num_shards = 0);

  std::size_t num_nodes() const noexcept { return num_nodes_; }
  std::size_t num_shards() const noexcept { return shards_.size(); }

  std::size_t shard_of(std::size_t node) const noexcept {
    // stride is a power of two, so the hot-path mapping is a shift.
    return node >> shard_shift_;
  }

  /// Record one task response time for `node`.  O(1), allocation-free.
  void record(std::size_t node, double task_time) noexcept {
    Shard& sh = shards_[shard_of(node)];
    sh.nodes[node - sh.first_node].add(task_time);
    sh.histogram.record(task_time);
  }

  /// record() without the histogram update, for consumers that only read
  /// the per-node moments (the fork-join driver keeps its own response
  /// histogram at join granularity).
  void record_moments(std::size_t node, double task_time) noexcept {
    Shard& sh = shards_[shard_of(node)];
    sh.nodes[node - sh.first_node].add(task_time);
  }

  /// Exact accumulator for one node (its shard slice).
  const stats::Welford& node(std::size_t node) const noexcept {
    const Shard& sh = shards_[shard_of(node)];
    return sh.nodes[node - sh.first_node];
  }

  /// Deterministic roll-up: identical for every shard count (see file
  /// comment for why).
  ClusterSummary summary() const;

  void reset();

 private:
  /// Cache-line padded so adjacent shards never share a line.  The nodes
  /// vector is per-shard (contiguous slice, one exact accumulator per
  /// node), the histogram is the shard's pooled contribution.
  struct alignas(64) Shard {
    std::size_t first_node = 0;
    std::vector<stats::Welford> nodes;
    stats::LatencyHistogram histogram;
  };

  std::size_t num_nodes_;
  std::size_t stride_;       ///< nodes per shard (power of two)
  unsigned shard_shift_;     ///< log2(stride_)
  std::vector<Shard> shards_;
};

}  // namespace forktail::sim
