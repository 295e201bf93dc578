// Ablation: the independence assumption (Eq. 4).
//
// The paper identifies the shared arrival sample paths as "the root cause
// that renders the Fork-Join models extremely difficult to solve" and
// postulates that the error of assuming independent task response times
// vanishes as load grows.  This bench measures both halves directly on the
// two-node system:
//   - the Spearman correlation of sibling task response times vs load
//     (dependence is real and grows with load);
//   - the p99 error of the independence-based prediction vs load
//     (yet the prediction error shrinks -- the paper's postulate).
#include <cmath>

#include "common.hpp"
#include "core/predictor.hpp"
#include "dist/factory.hpp"
#include "fjsim/homogeneous.hpp"
#include "stats/percentile.hpp"
#include "stats/spearman.hpp"
#include "stats/summary.hpp"
#include "util/rng.hpp"

using namespace forktail;

int main(int argc, char** argv) {
  bench::BenchOptions options;
  if (!bench::parse_options(argc, argv, options)) return 0;
  bench::print_banner(
      "Ablation: independence assumption",
      "Sibling-task dependence vs prediction error across load (Empirical "
      "service)",
      options);

  const dist::DistPtr service = dist::make_named("Empirical");
  util::Table table({"load%", "sibling_spearman", "sim_p99_N2_ms",
                     "pred_p99_N2_ms", "err_N2%", "err_N100%"});

  for (double load : {0.30, 0.50, 0.70, 0.80, 0.90, 0.95}) {
    // Two-node sibling correlation via a direct Lindley replay.
    const std::uint64_t n =
        bench::scaled(60000, options.scale * bench::load_boost(load));
    util::Rng master(options.seed);
    util::Rng arr = master.split(0);
    util::Rng s1 = master.split(1);
    util::Rng s2 = master.split(2);
    const double lambda = load / service->mean();
    std::vector<double> r1;
    std::vector<double> r2;
    r1.reserve(n);
    r2.reserve(n);
    double t = 0.0;
    double f1 = 0.0;
    double f2 = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
      t += arr.exponential(1.0 / lambda);
      f1 = std::max(t, f1) + service->sample(s1);
      f2 = std::max(t, f2) + service->sample(s2);
      if (i >= n / 5) {  // drop transient
        r1.push_back(f1 - t);
        r2.push_back(f2 - t);
      }
    }
    const double rho_s = stats::spearman(r1, r2);

    auto run_case = [&](std::size_t nodes) {
      fjsim::HomogeneousConfig cfg;
      cfg.num_nodes = nodes;
      cfg.service = service;
      cfg.load = load;
      cfg.num_requests =
          bench::scaled(nodes >= 100 ? 40000 : 80000,
                        options.scale * bench::load_boost(load));
      cfg.warmup_fraction = 0.25;
      cfg.seed = options.seed;
      auto sim = fjsim::run_homogeneous(cfg);
      const double measured = stats::percentile_inplace(sim.responses, 99.0);
      const double predicted = core::homogeneous_quantile(
          {sim.task_stats.mean(), sim.task_stats.variance()},
          static_cast<double>(nodes), 99.0);
      return std::tuple{measured, predicted,
                        stats::relative_error_pct(predicted, measured)};
    };
    const auto [m2, p2, e2] = run_case(2);
    const auto [m100, p100, e100] = run_case(100);
    (void)m100;
    (void)p100;
    table.row()
        .num(load * 100.0, 0)
        .num(rho_s, 3)
        .num(m2, 2)
        .num(p2, 2)
        .num(e2, 1)
        .num(e100, 1);
  }
  bench::emit(table, options);
  if (!options.csv) {
    std::printf(
        "Sibling dependence GROWS with load, yet the independence-based\n"
        "prediction error SHRINKS: under heavy traffic the per-node response\n"
        "distribution is tail-dominated by queueing noise that decorrelates\n"
        "at the quantile of the max -- the paper's Section 3 postulate.\n");
  }
  return 0;
}
