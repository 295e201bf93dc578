// Node-major Lindley replay shared by the fast fork-join simulators.
//
// The k = N simulators (homogeneous, heterogeneous) replay one shared
// arrival sequence through every fork node and reduce each request to the
// max completion across nodes.  replay_node_major() owns what they share
// (arrivals, warm-up, worker blocks, completion-max rows, per-node
// moments); each simulator supplies only the block replay, which for the
// FIFO policies is replay_tiled(): request tiles outer, nodes inner, so a
// tile's arrivals and row segment stay cache-resident.  LindleyState runs
// the common closed-form samplers through a fused kernel that calls the
// concrete class's inline sample(), so the sampler's log/pow chain
// overlaps the recursion and the caller's Welford update; every other
// sampler fills the tile through one virtual sample_n().
//
// Determinism: each node's demand sequence and floating-point operations
// match a per-task FastNode replay exactly, so results are bit-identical
// for every tile size (test_replay_batched.cpp checks every simulator
// against tests/support/scalar_replay.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "dist/basic.hpp"
#include "dist/distribution.hpp"
#include "dist/heavy.hpp"
#include "stats/welford.hpp"
#include "util/rng.hpp"

namespace forktail::fjsim {

/// Default service-demand block size for the batched replay paths.  Any
/// value yields bit-identical results; 1024 doubles (8 KiB) amortizes the
/// virtual dispatch ~1000x while the block comfortably fits in L1.
inline constexpr std::size_t kDefaultReplayBatch = 1024;

/// Config knob semantics: 0 = use the default batch, anything else =
/// explicit tile size (1 is a tile of one task).
inline std::size_t resolve_batch(std::size_t batch) {
  return batch == 0 ? kDefaultReplayBatch : batch;
}

/// Warm-up requests replayed ahead of `num_requests` measured ones, so that
/// they make up `warmup_fraction` of the run.
inline std::uint64_t warmup_requests(double warmup_fraction,
                                     std::uint64_t num_requests) {
  return static_cast<std::uint64_t>(warmup_fraction /
                                    (1.0 - warmup_fraction) *
                                    static_cast<double>(num_requests));
}

/// `total` Poisson(lambda) arrival epochs drawn from `rng`, in time order.
std::vector<double> poisson_arrivals(util::Rng rng, double lambda,
                                     std::uint64_t total);

/// One fork node's Lindley state for tiled replay: the per-replica
/// next-free times plus the node's private service-demand stream.
class LindleyState {
 public:
  LindleyState(const dist::Distribution* service, int replicas, util::Rng rng)
      : service_(service),
        kind_(classify(service)),
        rng_(rng),
        next_free_(static_cast<std::size_t>(replicas), 0.0) {}

  /// Replay one tile of the shared arrival sequence through this node.
  /// `demands` is caller-provided scratch of the tile's length (only the
  /// sample_n fallback touches it); `done(id, arrival, completion)` fires
  /// per task with `id = base + i`.  The fused kernels draw the i-th demand
  /// with the same inline sample() body and RNG stream position as a
  /// virtual sample() or the sample_n block fill, so every path is
  /// bit-identical.
  template <typename OnComplete>
  void replay_tile(std::span<const double> arrivals, std::uint64_t base,
                   std::span<double> demands, OnComplete&& done) {
    if (kind_ == Kind::kGeneric) {
      service_->sample_n(rng_, demands);
      return lindley(arrivals, base, [&](std::size_t i) { return demands[i]; },
                     done);
    }
    with_kind([&]<typename D>(std::type_identity<D>) {
      // Local copy: accessed through service_, the sampler's double fields
      // could alias the caller's double stores (row updates), forcing a
      // reload every task.  A local stays in registers.
      const D d(*static_cast<const D*>(service_));
      lindley(arrivals, base, [&](std::size_t) { return d.D::sample(rng_); },
              done);
    });
  }

  /// True when `this` and `other` can replay a tile through the fused pair
  /// kernel: same concrete sampler kind (with a fused kernel) and both
  /// single-server.
  bool fused_pairable(const LindleyState& other) const {
    return kind_ != Kind::kGeneric && kind_ == other.kind_ &&
           next_free_.size() == 1 && other.next_free_.size() == 1;
  }

  /// Replay the same tile through TWO independent nodes in one loop body,
  /// so the CPU overlaps their serial sampler/recursion/accumulator chains;
  /// `done(id, arrival, c0, c1)` gets both completions for one row access.
  /// Each node's own operation sequence is exactly replay_tile's, and max
  /// is exact, so this is bit-identical.  Requires fused_pairable(other).
  template <typename OnComplete>
  void replay_tile_pair(LindleyState& other, std::span<const double> arrivals,
                        std::uint64_t base, OnComplete&& done) {
    with_kind([&]<typename D>(std::type_identity<D>) {
      const D d0(*static_cast<const D*>(service_));
      const D d1(*static_cast<const D*>(other.service_));
      double nf0 = next_free_[0];
      double nf1 = other.next_free_[0];
      for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const double a = arrivals[i];
        nf0 = std::max(a, nf0) + d0.D::sample(rng_);
        nf1 = std::max(a, nf1) + d1.D::sample(other.rng_);
        done(base + i, a, nf0, nf1);
      }
      next_free_[0] = nf0;
      other.next_free_[0] = nf1;
    });
  }

 private:
  /// Concrete sampler types with a header-inline sample() that the fused
  /// kernels can devirtualize; everything else replays via sample_n blocks.
  enum class Kind : std::uint8_t {
    kExponential,
    kErlang,
    kHyperExp2,
    kWeibull,
    kTruncPareto,
    kLogNormal,
    kDeterministic,
    kUniform,
    kGeneric,
  };

  static Kind classify(const dist::Distribution* d) {
    if (dynamic_cast<const dist::Exponential*>(d)) return Kind::kExponential;
    if (dynamic_cast<const dist::Erlang*>(d)) return Kind::kErlang;
    if (dynamic_cast<const dist::HyperExp2*>(d)) return Kind::kHyperExp2;
    if (dynamic_cast<const dist::Weibull*>(d)) return Kind::kWeibull;
    if (dynamic_cast<const dist::TruncatedPareto*>(d)) return Kind::kTruncPareto;
    if (dynamic_cast<const dist::LogNormal*>(d)) return Kind::kLogNormal;
    if (dynamic_cast<const dist::Deterministic*>(d)) return Kind::kDeterministic;
    if (dynamic_cast<const dist::UniformReal*>(d)) return Kind::kUniform;
    return Kind::kGeneric;
  }

  /// Calls `f(std::type_identity<D>{})` with the concrete sampler type;
  /// does nothing for kGeneric.
  template <typename F>
  void with_kind(F&& f) const {
    switch (kind_) {
      case Kind::kExponential: return f(std::type_identity<dist::Exponential>{});
      case Kind::kErlang: return f(std::type_identity<dist::Erlang>{});
      case Kind::kHyperExp2: return f(std::type_identity<dist::HyperExp2>{});
      case Kind::kWeibull: return f(std::type_identity<dist::Weibull>{});
      case Kind::kTruncPareto:
        return f(std::type_identity<dist::TruncatedPareto>{});
      case Kind::kLogNormal: return f(std::type_identity<dist::LogNormal>{});
      case Kind::kDeterministic:
        return f(std::type_identity<dist::Deterministic>{});
      case Kind::kUniform: return f(std::type_identity<dist::UniformReal>{});
      case Kind::kGeneric: return;
    }
  }

  /// The Lindley recursion over one tile, the i-th demand from `draw(i)`,
  /// with sampling, recursion and callback in one loop body.
  template <typename Draw, typename OnComplete>
  void lindley(std::span<const double> arrivals, std::uint64_t base,
               Draw&& draw, OnComplete&& done) {
    const std::size_t len = arrivals.size();
    if (next_free_.size() == 1) {
      // Single-server fast path: the recursion's only loop-carried state is
      // one next-free time, kept in a register.
      double nf = next_free_[0];
      for (std::size_t i = 0; i < len; ++i) {
        nf = std::max(arrivals[i], nf) + draw(i);
        done(base + i, arrivals[i], nf);
      }
      next_free_[0] = nf;
      return;
    }
    for (std::size_t i = 0; i < len; ++i) {
      const double completion = std::max(arrivals[i], next_free_[rr_]) + draw(i);
      next_free_[rr_] = completion;
      rr_ = rr_ + 1 == next_free_.size() ? 0 : rr_ + 1;
      done(base + i, arrivals[i], completion);
    }
  }

  const dist::Distribution* service_;
  Kind kind_;
  util::Rng rng_;
  std::vector<double> next_free_;
  std::size_t rr_ = 0;  // round-robin cursor (replicas > 1)
};

/// Flat completion-max arena: one `total`-sized row per worker block
/// instead of a vector-of-vectors, merged row-major (sequential access,
/// vectorizable) into row 0.  Max-merge is exact and order-independent, so
/// the merged row is identical for any block count.
class MaxArena {
 public:
  MaxArena(std::size_t num_rows, std::size_t row_len)
      : row_len_(row_len), data_(num_rows * row_len, 0.0) {}

  std::span<double> row(std::size_t r) {
    return {data_.data() + r * row_len_, row_len_};
  }

  /// Merge all rows into row 0 and return it.
  std::span<const double> merged(std::size_t num_rows) {
    double* acc = data_.data();
    for (std::size_t r = 1; r < num_rows; ++r) {
      const double* src = data_.data() + r * row_len_;
      for (std::size_t j = 0; j < row_len_; ++j) {
        acc[j] = std::max(acc[j], src[j]);
      }
    }
    return {acc, row_len_};
  }

 private:
  std::size_t row_len_;
  std::vector<double> data_;
};

/// Per-request k-th-smallest completion tracker for early-return-at-k
/// (k-of-n fork-join): each request keeps a bounded max-heap of its k
/// smallest task completions, so the k-th order statistic is O(log k) per
/// insertion with flat storage.  Insertion order does not matter, and +inf
/// completions (lost tasks) only surface when fewer than k tasks finish.
class OrderStatArena {
 public:
  OrderStatArena(std::size_t num_requests, int k)
      : k_(static_cast<std::size_t>(k)),
        counts_(num_requests, 0),
        heaps_(num_requests * k_) {}

  void insert(std::uint64_t id, double completion) {
    double* heap = heaps_.data() + id * k_;
    std::size_t& count = counts_[id];
    if (count < k_) {
      heap[count++] = completion;
      std::push_heap(heap, heap + count);
    } else if (completion < heap[0]) {
      std::pop_heap(heap, heap + k_);
      heap[k_ - 1] = completion;
      std::push_heap(heap, heap + k_);
    }
  }

  /// k-th smallest completion inserted for `id`; +inf until k insertions
  /// have happened (the request cannot return early yet).
  double kth(std::uint64_t id) const {
    return counts_[id] >= k_ ? heaps_[id * k_]
                             : std::numeric_limits<double>::infinity();
  }

 private:
  std::size_t k_;
  std::vector<std::size_t> counts_;
  std::vector<double> heaps_;
};

/// One worker's share of a node-major replay: nodes [lo, hi), node n on
/// stream `node_rng(n)`, replay the shared arrivals, add measured task
/// responses to `node_stats[n]` and raise `row[id]` to each measured task's
/// completion (warm-up entries of the row are never read).
struct NodeBlock {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::span<const double> arrivals;
  std::uint64_t warmup = 0;
  std::span<double> row;
  std::span<stats::Welford> node_stats;  ///< indexed by node id
  util::Rng master;

  util::Rng node_rng(std::size_t n) const { return master.split(100 + n); }
};

/// `num_nodes` fork nodes under Poisson(lambda) arrivals, `num_requests`
/// measured after the warm-up; max_parallelism 0 = pool width, 1 = inline.
struct NodeMajorRun {
  std::size_t num_nodes = 0;
  double lambda = 0.0;
  std::uint64_t num_requests = 0;
  double warmup_fraction = 0.0;
  std::uint64_t seed = 0;
  std::size_t max_parallelism = 0;
};

struct NodeMajorResult {
  std::vector<double> responses;           ///< measured request responses
  std::vector<stats::Welford> node_stats;  ///< per-node measured task responses
  std::uint64_t total = 0;                 ///< requests replayed incl. warm-up
};

using BlockReplay = std::function<void(const NodeBlock&)>;

/// Draws the arrivals from stream 0 of `run.seed` and calls `replay` once
/// per block of min(num_nodes, parallelism), on the global pool when there
/// are several.  Maxima are exact under any grouping and callers merge the
/// per-node moments in node order, so results are bit-identical for any
/// block count or schedule.
NodeMajorResult replay_node_major(const NodeMajorRun& run,
                                  const BlockReplay& replay);

/// Block replay for the FIFO policies: node n serves `service(n)` with
/// `replicas` servers, tiles of `batch` requests outer, nodes inner;
/// adjacent fused_pairable() nodes share each tile.
void replay_tiled(
    const NodeBlock& block, std::size_t batch,
    const std::function<const dist::Distribution*(std::size_t)>& service,
    int replicas);

/// Replays node `n` of `block` one task at a time through `node`'s submit
/// path (FastNode, RedundantNode) and returns its redundant issues.
template <typename Node>
std::uint64_t replay_node(Node& node, const NodeBlock& block, std::size_t n) {
  const std::uint64_t warmup = block.warmup;
  const std::span<double> row = block.row;
  stats::Welford& node_stats = block.node_stats[n];
  auto on_done = [&](std::uint64_t id, double arrival, double completion) {
    if (id >= warmup) node_stats.add(completion - arrival);
    if (completion > row[id]) row[id] = completion;
  };
  for (std::uint64_t j = 0; j < block.arrivals.size(); ++j) {
    node.submit_task(block.arrivals[j], j, on_done);
  }
  node.flush(on_done);
  return node.redundant_issues();
}

}  // namespace forktail::fjsim
