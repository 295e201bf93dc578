// Table 3: errors in the 99th percentile prediction when tracking request
// groups with a given number of tasks (k in {10, 400, 500, 600, 900}) at
// 90% load on a 1000-node cluster.
//
// Paper shape: all errors well within 10%.  Each (distribution, k) cell
// also reports the certified [lower, upper] bracket from the
// linear-transformation bounds (baselines/linear_bounds.hpp) and flags
// predictions that fall outside it: "yes" rows mean ForkTail is provably
// wrong for that cell, not merely far from the finite-sample estimate.
// Heavy-tailed services only admit Chernoff-grade bounds, so their
// brackets are wide but still certified.
#include <limits>

#include "common.hpp"
#include "scenario/registry.hpp"
#include "stats/percentile.hpp"
#include "stats/summary.hpp"

int main(int argc, char** argv) {
  using namespace forktail;
  bench::BenchOptions options;
  if (!bench::parse_options(argc, argv, options)) return 0;
  bench::print_banner("Table 3",
                      "Per-k tracking errors (%) at 90% load, N = 1000",
                      options);

  const int ks[] = {10, 400, 500, 600, 900};
  util::Table table({"distribution", "k", "sim_p99_ms", "forktail_p99_ms",
                     "err%", "lower_ms", "upper_ms", "out_of_bracket"});
  for (const char* name : {"Exponential", "TruncPareto", "Empirical"}) {
    for (int k : ks) {
      scenario::ScenarioSpec cell;
      cell.topology = scenario::Topology::kSubset;
      cell.nodes = 1000;
      cell.service.dist = name;
      cell.load = 0.90;
      cell.k.mode = scenario::KSpec::Mode::kFixed;
      cell.k.fixed = k;
      cell.requests = bench::scaled(k >= 500 ? 12000 : 20000,
                                    options.scale * bench::load_boost(0.9));
      cell.warmup_fraction = 0.3;
      cell.seed = options.seed;
      cell.max_parallelism = 1;  // one replay thread, as in the sweep cells
      auto sim = scenario::SimulatorRegistry::global().run(cell);
      const double measured = stats::percentile_inplace(sim.responses, 99.0);
      const double predicted =
          scenario::PredictorRegistry::global().find("forktail")->predict(sim,
                                                                          99.0);
      const baselines::Bracket bracket = scenario::certified_bracket(sim, 99.0);
      auto row = table.row();
      row.str(name)
          .integer(k)
          .num(measured, 2)
          .num(predicted, 2)
          .num(stats::relative_error_pct(predicted, measured), 2);
      if (bracket.certified) {
        row.num(bracket.lower, 2)
            .num(bracket.upper, 2)
            .str(bracket.contains(predicted) ? "no" : "yes");
      } else {
        row.str("n/a").str("n/a").str("n/a");
      }
    }
  }
  bench::emit(table, options);
  return 0;
}
