// Figure 10: prediction errors of the 99th percentile response times for a
// 1000-node cluster when the number of tasks per job is FIXED
// (k = 100 / 500 / 900), tasks dispatched to k randomly selected nodes.
//
// Paper shape: errors within 10% at 90% load and 20% at 80% for all cases;
// the exponential service case accurate (within ~6%) across the whole
// load range.
#include <array>

#include "common.hpp"
#include "parallel_runner.hpp"
#include "scenario/registry.hpp"
#include "stats/percentile.hpp"
#include "stats/summary.hpp"

namespace {

using namespace forktail;

std::uint64_t samples_for(int k, double load, double scale) {
  std::uint64_t base = 25000;
  if (k >= 500) base = 15000;
  if (k >= 900) base = 12000;
  return bench::scaled(base, scale * bench::load_boost(load));
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions options;
  if (!bench::parse_options(argc, argv, options)) return 0;
  bench::print_banner("Figure 10",
                      "Fixed k <= N on 1000 nodes: 99th percentile errors",
                      options);

  const std::array<const char*, 3> dists = {"Exponential", "TruncPareto",
                                            "Empirical"};
  const std::array<int, 3> ks = {100, 500, 900};
  const std::array<double, 4> loads = {0.50, 0.75, 0.80, 0.90};

  struct Cell {
    double measured;
    double predicted;
  };
  const bench::ParallelSweepRunner runner(options.threads);
  const auto cells = runner.map<Cell>(
      dists.size() * ks.size() * loads.size(), options.seed,
      [&](std::size_t i, util::Rng& rng) -> Cell {
        const double load = loads[i % loads.size()];
        const int k = ks[(i / loads.size()) % ks.size()];
        const char* name = dists[i / (loads.size() * ks.size())];

        scenario::ScenarioSpec cell;
        cell.topology = scenario::Topology::kSubset;
        cell.nodes = 1000;
        cell.service.dist = name;
        cell.load = load;
        cell.k.mode = scenario::KSpec::Mode::kFixed;
        cell.k.fixed = k;
        cell.requests = samples_for(k, load, options.scale);
        cell.warmup_fraction = load >= 0.9 ? 0.3 : 0.25;
        cell.seed = rng.next_u64();
        cell.max_parallelism = 1;  // cell-level parallelism only
        auto sim = scenario::SimulatorRegistry::global().run(cell);
        const double measured = stats::percentile_inplace(sim.responses, 99.0);
        // Eq. 13 with the black-box measured task moments.
        const double predicted =
            scenario::PredictorRegistry::global().find("forktail")->predict(
                sim, 99.0);
        return {measured, predicted};
      });

  util::Table table({"distribution", "k", "load%", "sim_p99_ms", "pred_p99_ms",
                     "error%"});
  std::size_t i = 0;
  for (const char* name : dists) {
    for (int k : ks) {
      for (double load : loads) {
        const Cell& cell = cells[i++];
        table.row()
            .str(name)
            .integer(k)
            .num(load * 100.0, 0)
            .num(cell.measured, 2)
            .num(cell.predicted, 2)
            .num(stats::relative_error_pct(cell.predicted, cell.measured), 1);
      }
    }
  }
  bench::emit(table, options);
  return 0;
}
