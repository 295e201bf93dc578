#include "sim/cluster_stats.hpp"

namespace forktail::sim {

ClusterStats::ClusterStats(std::size_t num_nodes, std::size_t num_shards)
    : num_nodes_(num_nodes) {
  if (num_nodes == 0) num_nodes = 1;  // degenerate but safe
  if (num_shards == 0) num_shards = (num_nodes + 63) / 64;
  if (num_shards > num_nodes) num_shards = num_nodes;
  // Round the stride up to a power of two: shard_of becomes a shift.
  const std::size_t min_stride = (num_nodes + num_shards - 1) / num_shards;
  stride_ = 1;
  shard_shift_ = 0;
  while (stride_ < min_stride) {
    stride_ <<= 1;
    ++shard_shift_;
  }
  const std::size_t actual_shards = (num_nodes + stride_ - 1) / stride_;
  shards_.resize(actual_shards);
  for (std::size_t s = 0; s < actual_shards; ++s) {
    const std::size_t first = s * stride_;
    const std::size_t last =
        s + 1 == actual_shards ? num_nodes : first + stride_;
    shards_[s].first_node = first;
    shards_[s].nodes.resize(last - first);
  }
}

ClusterSummary ClusterStats::summary() const {
  ClusterSummary out;
  out.per_node.reserve(num_nodes_);
  // Walk nodes in node order (shards are contiguous ranges, so iterating
  // shards in order *is* node order): the pooled merge sequence -- and
  // therefore every pooled double -- is independent of the shard count.
  for (const Shard& sh : shards_) {
    for (const stats::Welford& node : sh.nodes) {
      out.per_node.push_back(node);
      out.pooled.merge(node);
    }
    out.histogram.merge(sh.histogram);
  }
  out.samples = out.pooled.count();
  return out;
}

void ClusterStats::reset() {
  for (Shard& sh : shards_) {
    for (stats::Welford& node : sh.nodes) node.reset();
    sh.histogram = stats::LatencyHistogram{};
  }
}

}  // namespace forktail::sim
