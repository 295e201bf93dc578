// Figure 3: prediction errors of the 99th percentile response times for
// ForkTail and the EAT baseline, homogeneous M/G/1 fork-join networks.
//
// Paper sweep: Erlang-2 / Exponential / Hyperexponential-2 service (all
// mean 4.22 ms), loads 10% / 50% / 90%, N = 100 / 500 / 1000 nodes.
// Paper shape: EAT within a few percent everywhere; ForkTail mostly
// within 10% across the whole load range for these light-tailed cases.
#include <vector>

#include "baselines/eat.hpp"
#include "common.hpp"
#include "core/predictor.hpp"
#include "dist/factory.hpp"
#include "fjsim/homogeneous.hpp"
#include "stats/percentile.hpp"
#include "stats/summary.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace forktail;

std::uint64_t samples_for(std::size_t nodes, double load, double scale) {
  std::uint64_t base = 15000;
  if (nodes <= 100) {
    base = 60000;
  } else if (nodes <= 500) {
    base = 25000;
  }
  return bench::scaled(base, scale * bench::load_boost(load));
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions options;
  if (!bench::parse_options(argc, argv, options)) return 0;
  bench::print_banner(
      "Figure 3",
      "ForkTail vs EAT, 99th percentile errors (M/G/1 fork-join, k = N)",
      options);

  util::Table table({"distribution", "load%", "nodes", "sim_p99_ms",
                     "forktail_p99_ms", "forktail_err%", "eat_p99_ms",
                     "eat_err%", "forktail_ms", "eat_ms"});

  const std::vector<std::string> dists = {"Erlang-2", "Exponential", "HyperExp2"};
  const double loads[] = {0.10, 0.50, 0.90};
  const std::size_t node_counts[] = {100, 500, 1000};

  for (const auto& name : dists) {
    const dist::DistPtr service = dist::make_named(name);
    for (double load : loads) {
      const double lambda = load / service->mean();
      for (std::size_t nodes : node_counts) {
        fjsim::HomogeneousConfig cfg;
        cfg.num_nodes = nodes;
        cfg.service = service;
        cfg.load = load;
        cfg.num_requests = samples_for(nodes, load, options.scale);
        cfg.warmup_fraction = 0.25;
        cfg.seed = options.seed;
        auto sim = fjsim::run_homogeneous(cfg);
        const double measured = stats::percentile_inplace(sim.responses, 99.0);

        util::Stopwatch ft_watch;
        const double forktail = core::whitebox_mg1_quantile(
            lambda, *service, static_cast<double>(nodes), 99.0);
        const double ft_ms = ft_watch.elapsed_ms();

        util::Stopwatch eat_watch;
        const double eat_p99 =
            baselines::EatPredictor(lambda, service, nodes).quantile(99.0);
        const double eat_ms = eat_watch.elapsed_ms();

        table.row()
            .str(name)
            .num(load * 100.0, 0)
            .integer(static_cast<long long>(nodes))
            .num(measured, 2)
            .num(forktail, 2)
            .num(stats::relative_error_pct(forktail, measured), 1)
            .num(eat_p99, 2)
            .num(stats::relative_error_pct(eat_p99, measured), 1)
            .num(ft_ms, 3)
            .num(eat_ms, 1);
      }
    }
  }
  bench::emit(table, options);
  return 0;
}
