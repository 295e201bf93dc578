// Certified-bracket benchmark: the (n, k) linear-transformation bounds
// (baselines/linear_bounds.hpp) against perfect-sampling ground truth
// (fjsim/perfect_sampler.hpp).
//
//   bench_bounds [--scale smoke|default|full] [--seed N] [--csv true]
//                [--out BENCH_bounds.json]
//
// Every row draws its responses with sampler = "perfect" -- each response
// is an exact stationary draw, so the comparison carries no warm-up bias:
// if the sample's confidence interval misses the certified bracket, the
// bracket (or the sampler) is wrong, full stop.  Two containment claims
// are tracked per row:
//   * contained           -- the measured p99's 99% order-statistic CI
//                            overlaps [lower, upper].  The bounds certify
//                            the TRUE quantile, so this must hold up to CI
//                            noise (< 1% of rows on a fresh seed).
//   * forktail_contained  -- ForkTail's black-box prediction lies inside
//                            the bracket up to its own sampling noise:
//                            the paper's model is consistent with what is
//                            provable about the system.  ForkTail reads
//                            the measured task moments, so its prediction
//                            is an estimate too; the check asks whether its
//                            99% confidence interval (batch means over the
//                            sampler's independent batches of draws,
//                            Student t with 19 degrees of freedom) overlaps
//                            [lower, upper], the same overlap rule as
//                            `contained`.  On the exponential rows the GE
//                            fit is exact, so with the true moments
//                            ForkTail lands on the association bound
//                            itself, and a point check would be decided by
//                            the sign of the moment noise.
// Both are report checks on every row, next to `certified` and
// `bracket_ordered` (lower <= upper); a false one exits 1, and
// tools/perf_gate.py fails CI when it does or when a bracket's relative
// width grows by more than 10% at the same scale.
//
// Row selection is deliberate: the association bound is tight for
// exponential homogeneous systems (it is ForkTail's own prediction at the
// true moments), so those rows run at moderate load and their ForkTail
// containment is statistical; heavy-tailed services only admit
// Chernoff-grade bounds whose generous slack makes containment structural.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "fjsim/perfect_sampler.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "stats/percentile.hpp"
#include "stats/welford.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace forktail::bench {
namespace {

/// Two-sided 99% Student t critical value for the batch-means interval:
/// t_{0.995} at kPerfectBatches - 1 = 19 degrees of freedom.
constexpr double kBatchT99 = 2.861;
static_assert(fjsim::kPerfectBatches == 20,
              "kBatchT99 is the t quantile at 19 degrees of freedom");

struct RowSpec {
  std::string name;
  scenario::Topology topology;
  std::string dist;
  std::size_t nodes;
  int k;  ///< 0 = all nodes (homogeneous)
  double load;
  std::uint64_t base_draws;
};

struct RowResult {
  RowSpec spec;
  std::uint64_t draws = 0;
  double measured = 0.0;
  double ci_lo = 0.0;
  double ci_hi = 0.0;
  double forktail = 0.0;
  double forktail_lo = 0.0;  ///< ForkTail's 99% batch-means interval
  double forktail_hi = 0.0;
  double lower = 0.0;
  double upper = 0.0;
  bool certified = false;
  bool contained = false;
  bool forktail_contained = false;
  double seconds = 0.0;
};

RowResult run_row(const RowSpec& row, const BenchOptions& options) {
  scenario::ScenarioSpec spec;
  spec.name = row.name;
  spec.topology = row.topology;
  spec.nodes = row.nodes;
  spec.service.dist = row.dist;
  spec.load = row.load;
  if (row.k > 0) {
    spec.k.mode = scenario::KSpec::Mode::kFixed;
    spec.k.fixed = row.k;
  }
  spec.requests = scaled(row.base_draws, options.scale);
  spec.sampler = scenario::Sampler::kPerfect;
  spec.seed = options.seed;

  util::Stopwatch watch;
  scenario::Outcome outcome = scenario::SimulatorRegistry::global().run(spec);

  RowResult out;
  out.spec = row;
  out.draws = outcome.responses.size();
  const scenario::Predictor& model =
      *scenario::PredictorRegistry::global().find("forktail");
  out.forktail = model.predict(outcome, 99.0);
  // ForkTail's prediction on each batch of draws is an independent
  // replicate; their spread over sqrt(batches) is the standard error of
  // the pooled prediction.
  stats::Welford replicas;
  scenario::Outcome replica = outcome;
  for (const core::TaskStats& batch : outcome.batch_task_stats) {
    replica.task_stats = batch;
    replicas.add(model.predict(replica, 99.0));
  }
  if (replicas.count() != fjsim::kPerfectBatches) {
    throw std::runtime_error("bench_bounds: row " + row.name + " has " +
                             std::to_string(replicas.count()) +
                             " draw batches, needs " +
                             std::to_string(fjsim::kPerfectBatches));
  }
  const double half_width =
      kBatchT99 * std::sqrt(replicas.sample_variance() /
                            static_cast<double>(replicas.count()));
  out.forktail_lo = out.forktail - half_width;
  out.forktail_hi = out.forktail + half_width;
  const baselines::Bracket bracket = scenario::certified_bracket(outcome, 99.0);
  out.lower = bracket.lower;
  out.upper = bracket.upper;
  out.certified = bracket.certified;

  quantile_ci(outcome.responses, 0.99, &out.ci_lo, &out.ci_hi);
  out.measured = stats::percentile(outcome.responses, 99.0);
  out.seconds = watch.elapsed_seconds();

  // CI-overlap containment: the bracket certifies the TRUE quantile, and
  // the CI covers it with 99% confidence, so requiring overlap (not point
  // membership) keeps the claim sound under sampling noise.
  out.contained =
      bracket.certified && out.ci_hi >= bracket.lower && out.ci_lo <= bracket.upper;
  out.forktail_contained = bracket.certified &&
                           out.forktail_hi >= bracket.lower &&
                           out.forktail_lo <= bracket.upper;
  return out;
}

void add_row(BenchReport& report, const RowResult& r) {
  BenchRow& row = report.row(r.spec.name);
  row.info.set("topology", scenario::topology_name(r.spec.topology));
  row.info.set("dist", r.spec.dist);
  row.info.set("nodes", r.spec.nodes);
  row.info.set("k", r.spec.k);
  row.info.set("load", r.spec.load);
  row.info.set("draws", r.draws);
  row.info.set("measured_ms", r.measured);
  row.info.set("ci_lo_ms", r.ci_lo);
  row.info.set("ci_hi_ms", r.ci_hi);
  row.info.set("forktail_ms", r.forktail);
  row.info.set("forktail_lo_ms", r.forktail_lo);
  row.info.set("forktail_hi_ms", r.forktail_hi);
  row.info.set("lower_ms", r.lower);
  row.info.set("upper_ms", r.upper);
  row.info.set("seconds", r.seconds);
  row.checks["certified"] = r.certified;
  row.checks["bracket_ordered"] = r.lower <= r.upper;
  row.checks["contained"] = r.contained;
  row.checks["forktail_contained"] = r.forktail_contained;
  // Wider brackets are weaker certificates.  At the same scale and seed
  // the bounds are deterministic, so growth is a real weakening, not noise.
  row.metric("width_rel", (r.upper - r.lower) / r.upper, "ratio",
             Better::kLower, 0.10);
}

}  // namespace
}  // namespace forktail::bench

int main(int argc, char** argv) {
  using namespace forktail;
  util::CliFlags flags;
  flags.declare("out", "BENCH_bounds.json",
                "output JSON path (empty disables the file)");
  bench::BenchOptions options;
  if (!bench::parse_options(argc, argv, flags, options)) return 0;
  const std::string out = flags.get_string("out");

  bench::print_banner("bench_bounds",
                      "Certified (n, k) brackets vs perfect-sampling "
                      "ground truth, p99",
                      options);

  // Draw budgets reflect the CFTP cost model (docs/performance.md):
  // coalescence depth grows like 1 / ((1 - rho) * theta), so high-load and
  // wide-fan-out rows get smaller budgets.
  const std::vector<bench::RowSpec> rows = {
      {"hom-n8-exp-load70", scenario::Topology::kHomogeneous, "Exponential",
       8, 0, 0.70, 20000},
      {"hom-n8-erlang2-load70", scenario::Topology::kHomogeneous, "Erlang-2",
       8, 0, 0.70, 30000},
      {"hom-n16-hyperexp2-load50", scenario::Topology::kHomogeneous,
       "HyperExp2", 16, 0, 0.50, 20000},
      {"hom-n4-empirical-load60", scenario::Topology::kHomogeneous,
       "Empirical", 4, 0, 0.60, 30000},
      {"subset-n64-k16-exp-load50", scenario::Topology::kSubset,
       "Exponential", 64, 16, 0.50, 20000},
      {"subset-n64-k16-erlang2-load70", scenario::Topology::kSubset,
       "Erlang-2", 64, 16, 0.70, 15000},
      {"subset-n64-k16-pareto-load80", scenario::Topology::kSubset,
       "TruncPareto", 64, 16, 0.80, 12000},
  };

  std::vector<bench::RowResult> results;
  results.reserve(rows.size());
  for (const bench::RowSpec& row : rows) {
    results.push_back(bench::run_row(row, options));
  }

  util::Table table({"row", "draws", "p99_ms", "ci", "forktail_ms",
                     "lower_ms", "upper_ms", "contained", "ft_in", "sec"});
  for (const bench::RowResult& r : results) {
    table.row()
        .str(r.spec.name)
        .integer(static_cast<long long>(r.draws))
        .num(r.measured, 2)
        .str(std::string("[").append(util::format_fixed(r.ci_lo, 2))
                 .append(", ")
                 .append(util::format_fixed(r.ci_hi, 2))
                 .append("]"))
        .num(r.forktail, 2)
        .num(r.lower, 2)
        .num(r.upper, 2)
        .str(r.contained ? "yes" : "NO")
        .str(r.forktail_contained ? "yes" : "NO")
        .num(r.seconds, 2);
  }
  bench::emit(table, options);

  std::size_t contained = 0;
  std::size_t ft_contained = 0;
  bench::BenchReport report("bench_bounds", flags.get_string("scale"));
  for (const bench::RowResult& r : results) {
    contained += r.contained ? 1 : 0;
    ft_contained += r.forktail_contained ? 1 : 0;
    bench::add_row(report, r);
  }
  const auto n = static_cast<double>(results.size());
  report.info.set("seed", options.seed);
  report.info.set("percentile", 99.0);
  report.info.set("ground_truth",
                  "perfect sampler (exact stationary draws; "
                  "fjsim/perfect_sampler.hpp)");
  report.info.set("containment_rate", static_cast<double>(contained) / n);
  report.info.set("forktail_containment_rate",
                  static_cast<double>(ft_contained) / n);
  return report.finish(out);
}
