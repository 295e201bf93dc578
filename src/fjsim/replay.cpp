#include "fjsim/replay.hpp"

#include <type_traits>

#include "fjsim/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace forktail::fjsim {

std::vector<double> poisson_arrivals(util::Rng rng, double lambda,
                                     std::uint64_t total) {
  std::vector<double> arrivals(total);
  double t = 0.0;
  for (auto& a : arrivals) {
    t += rng.exponential(1.0 / lambda);
    a = t;
  }
  return arrivals;
}

NodeMajorResult replay_node_major(const NodeMajorRun& run,
                                  const BlockReplay& replay) {
  const obs::ScopedSpan run_span(ReplayMetrics::get().run_seconds);
  const util::Rng master(run.seed);
  const std::uint64_t warmup =
      warmup_requests(run.warmup_fraction, run.num_requests);
  const std::uint64_t total = warmup + run.num_requests;
  // Shared arrival epochs: the correlation structure of the fork-join
  // system lives entirely in this sequence.
  const std::vector<double> arrivals =
      poisson_arrivals(master.split(0), run.lambda, total);

  const std::size_t parallelism =
      run.max_parallelism > 0
          ? run.max_parallelism
          : std::max<std::size_t>(1, util::global_pool().size());
  const std::size_t num_blocks = std::min(run.num_nodes, parallelism);
  MaxArena arena(num_blocks, total);
  NodeMajorResult result{{}, std::vector<stats::Welford>(run.num_nodes), total};

  const auto replay_block = [&](std::size_t b) {
    const NodeBlock block{run.num_nodes * b / num_blocks,
                          run.num_nodes * (b + 1) / num_blocks,
                          arrivals,
                          warmup,
                          arena.row(b),
                          result.node_stats,
                          master};
    // Block-granular telemetry only: the per-task code is unchanged.
    const obs::ScopedSpan block_span(ReplayMetrics::get().block_seconds);
    const std::size_t block_nodes = block.hi - block.lo;
    ReplayMetrics::get().tasks_warmup.add(warmup * block_nodes);
    ReplayMetrics::get().tasks_measured.add(run.num_requests * block_nodes);
    replay(block);
  };
  if (num_blocks == 1) {
    replay_block(0);
  } else {
    util::parallel_for(util::global_pool(), 0, num_blocks, replay_block);
  }

  result.responses.reserve(run.num_requests);
  const std::span<const double> merged = arena.merged(num_blocks);
  for (std::uint64_t j = warmup; j < total; ++j) {
    result.responses.push_back(merged[j] - arrivals[j]);
  }
  ReplayMetrics::get().runs.add(1);
  return result;
}

void replay_tiled(
    const NodeBlock& block, std::size_t batch,
    const std::function<const dist::Distribution*(std::size_t)>& service,
    int replicas) {
  std::vector<LindleyState> states;
  states.reserve(block.hi - block.lo);
  for (std::size_t n = block.lo; n < block.hi; ++n) {
    states.emplace_back(service(n), replicas, block.node_rng(n));
  }
  const std::uint64_t warmup = block.warmup;
  const std::uint64_t total = block.arrivals.size();
  const std::span<double> row = block.row;
  const std::span<stats::Welford> node_stats =
      block.node_stats.subspan(block.lo, states.size());
  std::vector<double> demands(batch);
  // Tiles are specialized on where they sit relative to the warm-up
  // boundary: a kWarmup tile only advances the Lindley/RNG state (no
  // Welford, no row write), a kMeasured tile skips the per-task warm-up
  // compare, and the one kStraddle tile keeps it.  The accumulators are
  // local copies: row[id] stores are double writes that could alias them
  // in node_stats and force a reload per task on the serial mean/m2 chain.
  // Adjacent pairable nodes go through the tile together so their latency
  // chains overlap, folding into the row with one max access.
  enum class TileMode { kWarmup, kStraddle, kMeasured };
  const auto replay_tiles = [&](auto mode_tag, std::uint64_t t0,
                                std::size_t len) {
    constexpr TileMode kMode = decltype(mode_tag)::value;
    const std::span<const double> tile = block.arrivals.subspan(t0, len);
    const std::span<double> scratch(demands.data(), len);
    for (std::size_t i = 0; i < states.size();) {
      if (i + 1 < states.size() && states[i].fused_pairable(states[i + 1])) {
        if constexpr (kMode == TileMode::kWarmup) {
          states[i].replay_tile_pair(
              states[i + 1], tile, t0,
              [](std::uint64_t, double, double, double) {});
        } else {
          stats::Welford ns0 = node_stats[i];
          stats::Welford ns1 = node_stats[i + 1];
          states[i].replay_tile_pair(
              states[i + 1], tile, t0,
              [&](std::uint64_t id, double arrival, double c0, double c1) {
                if (kMode == TileMode::kMeasured || id >= warmup) {
                  ns0.add(c0 - arrival);
                  ns1.add(c1 - arrival);
                  // Unconditional max: `if (m > row[id])` is an
                  // unpredictable branch; maxsd + store is branchless.
                  row[id] = std::max(row[id], std::max(c0, c1));
                }
              });
          node_stats[i] = ns0;
          node_stats[i + 1] = ns1;
        }
        i += 2;
      } else if constexpr (kMode == TileMode::kWarmup) {
        states[i++].replay_tile(tile, t0, scratch,
                                [](std::uint64_t, double, double) {});
      } else {
        stats::Welford ns = node_stats[i];
        states[i].replay_tile(
            tile, t0, scratch,
            [&](std::uint64_t id, double arrival, double completion) {
              if (kMode == TileMode::kMeasured || id >= warmup) {
                ns.add(completion - arrival);
                row[id] = std::max(row[id], completion);
              }
            });
        node_stats[i++] = ns;
      }
    }
  };
  std::uint64_t tiles = 0;
  for (std::uint64_t t0 = 0; t0 < total; t0 += batch, ++tiles) {
    const std::size_t len =
        static_cast<std::size_t>(std::min<std::uint64_t>(batch, total - t0));
    if (t0 + len <= warmup) {
      replay_tiles(std::integral_constant<TileMode, TileMode::kWarmup>{}, t0,
                   len);
    } else if (t0 >= warmup) {
      replay_tiles(std::integral_constant<TileMode, TileMode::kMeasured>{}, t0,
                   len);
    } else {
      replay_tiles(std::integral_constant<TileMode, TileMode::kStraddle>{}, t0,
                   len);
    }
  }
  ReplayMetrics::get().tiles.add(tiles);
}

}  // namespace forktail::fjsim
