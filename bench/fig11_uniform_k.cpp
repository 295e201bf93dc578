// Figure 11: prediction errors of the 99th percentile response times for a
// 1000-node cluster when the number of tasks per job is UNIFORMLY
// distributed over [80,120], [400,600], [800,1000], or [10,990].
//
// Prediction uses the mixture model (Eqs. 8-9 / 14) with the black-box
// measured task moments.  Paper shape: good approximations at >= 80% load;
// exponential accurate across the whole range.
#include <array>

#include "common.hpp"
#include "parallel_runner.hpp"
#include "scenario/registry.hpp"
#include "stats/percentile.hpp"
#include "stats/summary.hpp"

int main(int argc, char** argv) {
  using namespace forktail;
  bench::BenchOptions options;
  if (!bench::parse_options(argc, argv, options)) return 0;
  bench::print_banner("Figure 11",
                      "Uniform k <= N on 1000 nodes: 99th percentile errors",
                      options);

  struct Range {
    int lo;
    int hi;
  };
  const std::array<const char*, 3> dists = {"Exponential", "TruncPareto",
                                            "Empirical"};
  const std::array<Range, 4> ranges = {
      Range{80, 120}, Range{400, 600}, Range{800, 1000}, Range{10, 990}};
  const std::array<double, 4> loads = {0.50, 0.75, 0.80, 0.90};

  struct Cell {
    double measured;
    double predicted;
  };
  const bench::ParallelSweepRunner runner(options.threads);
  const auto cells = runner.map<Cell>(
      dists.size() * ranges.size() * loads.size(), options.seed,
      [&](std::size_t i, util::Rng& rng) -> Cell {
        const double load = loads[i % loads.size()];
        const Range& range = ranges[(i / loads.size()) % ranges.size()];
        const char* name = dists[i / (loads.size() * ranges.size())];

        scenario::ScenarioSpec cell;
        cell.topology = scenario::Topology::kSubset;
        cell.nodes = 1000;
        cell.service.dist = name;
        cell.load = load;
        cell.k.mode = scenario::KSpec::Mode::kUniform;
        cell.k.lo = range.lo;
        cell.k.hi = range.hi;
        cell.requests =
            bench::scaled(15000, options.scale * bench::load_boost(load));
        cell.warmup_fraction = load >= 0.9 ? 0.3 : 0.25;
        cell.seed = rng.next_u64();
        cell.max_parallelism = 1;  // cell-level parallelism only
        auto sim = scenario::SimulatorRegistry::global().run(cell);
        const double measured = stats::percentile_inplace(sim.responses, 99.0);
        // Mixture model (Eqs. 8-9 / 14) with K ~ U[lo, hi].
        const double predicted =
            scenario::PredictorRegistry::global().find("mixture")->predict(
                sim, 99.0);
        return {measured, predicted};
      });

  util::Table table({"distribution", "k_range", "load%", "sim_p99_ms",
                     "pred_p99_ms", "error%"});
  std::size_t i = 0;
  for (const char* name : dists) {
    for (const Range& range : ranges) {
      for (double load : loads) {
        const Cell& cell = cells[i++];
        table.row()
            .str(name)
            .str("U[" + std::to_string(range.lo) + "," +
                 std::to_string(range.hi) + "]")
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
