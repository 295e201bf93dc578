// Slow tier of the bounds oracle: wide-fan-out perfect-sampler
// cross-checks (n = 32) and the golden warm-up bias audit.
//
// The warm-up audit is the reason the fig5/fig10 goldens can stay pinned:
// it reproduces a golden sweep cell's sampling regime (warmup_fraction
// 0.25 at smoke scale) and checks the replay p99 against exact stationary
// draws of the same system.  If this test ever fails, the goldens carry
// warm-up bias beyond CI noise and must be regenerated -- that failure is
// the regeneration trigger, deliberately loud instead of silent.
#include <cmath>

#include <gtest/gtest.h>

#include "baselines/linear_bounds.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "stats/percentile.hpp"

namespace forktail {
namespace {

scenario::Outcome run_perfect(scenario::ScenarioSpec spec) {
  spec.sampler = scenario::Sampler::kPerfect;
  return scenario::SimulatorRegistry::global().run(spec);
}

// n = 32, all three bound tiers (exact / LST inversion / Chernoff): the
// stationary p99 from exact draws must sit inside every certified bracket.
TEST(BoundsOracleSlow, WideFanoutQuantilesInsideBrackets) {
  struct Case {
    const char* dist;
    scenario::Topology topology;
    std::size_t nodes;
    int k;
    double load;
    std::uint64_t draws;
  };
  const Case cases[] = {
      {"Exponential", scenario::Topology::kHomogeneous, 32, 0, 0.7, 6000},
      {"Erlang-2", scenario::Topology::kHomogeneous, 32, 0, 0.6, 6000},
      {"HyperExp2", scenario::Topology::kHomogeneous, 32, 0, 0.5, 6000},
      {"TruncPareto", scenario::Topology::kSubset, 64, 32, 0.7, 4000},
      {"Empirical", scenario::Topology::kSubset, 64, 32, 0.6, 4000},
  };
  for (const Case& c : cases) {
    scenario::ScenarioSpec spec;
    spec.topology = c.topology;
    spec.nodes = c.nodes;
    spec.service.dist = c.dist;
    spec.load = c.load;
    if (c.k > 0) {
      spec.k.mode = scenario::KSpec::Mode::kFixed;
      spec.k.fixed = c.k;
    }
    spec.requests = c.draws;
    spec.seed = 5;
    const scenario::Outcome outcome = run_perfect(spec);
    const baselines::Bracket b = scenario::certified_bracket(outcome, 99.0);
    ASSERT_TRUE(b.certified) << c.dist;
    ASSERT_LE(b.lower, b.upper) << c.dist;
    const double p99 = stats::percentile(outcome.responses, 99.0);
    EXPECT_GE(p99, b.lower * 0.85) << c.dist << " n=" << c.nodes;
    EXPECT_LE(p99, b.upper * 1.15) << c.dist << " n=" << c.nodes;
  }
}

// Early-join (n, k) with k < n: the k-th completion is bracketed too, and
// tightening k toward 1 must move the whole bracket down monotonically.
TEST(BoundsOracleSlow, EarlyJoinBracketsAreMonotoneInK) {
  scenario::ScenarioSpec spec;
  spec.topology = scenario::Topology::kSubset;
  spec.nodes = 64;
  spec.service.dist = "Exponential";
  spec.load = 0.7;
  spec.k.mode = scenario::KSpec::Mode::kFixed;
  spec.k.fixed = 32;
  spec.requests = 4000;
  spec.seed = 9;
  const scenario::Outcome outcome = run_perfect(spec);

  double prev_upper = 0.0;
  for (const int join : {8, 16, 24, 32}) {
    baselines::BaselineInput in = scenario::baseline_input(outcome);
    in.join = join;
    ASSERT_TRUE(baselines::linear_bounds_applicable(in)) << "join " << join;
    const baselines::Bracket b = baselines::linear_bounds_bracket(in, 99.0);
    ASSERT_TRUE(b.certified);
    EXPECT_LE(b.lower, b.upper);
    EXPECT_GE(b.upper, prev_upper) << "join " << join;
    prev_upper = b.upper;
  }
}

// Golden warm-up audit (see file comment).  Mirrors the fig5 smoke-scale
// Empirical / 10-node / 50%-load cell: warmup_fraction 0.25 with a few
// thousand requests.  The tolerance is the combined two-sample CI noise at
// these sizes (~10% on the p99); the seeds are fixed, so a pass is
// deterministic and a fail means real bias, not bad luck.
TEST(BoundsOracleSlow, GoldenWarmupRegimeAgreesWithStationaryDraws) {
  scenario::ScenarioSpec replay;
  replay.topology = scenario::Topology::kHomogeneous;
  replay.nodes = 10;
  replay.service.dist = "Empirical";
  replay.load = 0.50;
  replay.requests = 6000;
  replay.warmup_fraction = 0.25;  // the goldens' regime
  replay.seed = 1;
  const scenario::Outcome simulated =
      scenario::SimulatorRegistry::global().run(replay);
  const double replay_p99 = stats::percentile(simulated.responses, 99.0);

  scenario::ScenarioSpec exact = replay;
  exact.requests = 8000;
  const scenario::Outcome stationary = run_perfect(exact);
  const double exact_p99 = stats::percentile(stationary.responses, 99.0);

  EXPECT_NEAR(replay_p99, exact_p99, 0.10 * exact_p99)
      << "fig5/fig10 golden warm-up regime drifted beyond CI noise from "
         "the stationary law -- regenerate the goldens";
}

}  // namespace
}  // namespace forktail
