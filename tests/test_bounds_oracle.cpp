// Oracle suite for the certified (n, k) linear-transformation brackets
// (baselines/linear_bounds.hpp): the bounds are checked against the cases
// where the truth is KNOWN in closed form, against exact stationary draws
// from the perfect sampler, and against randomized scenarios (failures
// print the offending spec as JSON for replay).
#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "baselines/linear_bounds.hpp"
#include "dist/factory.hpp"
#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "stats/percentile.hpp"
#include "util/rng.hpp"

namespace forktail {
namespace {

/// A clean homogeneous (n, n) fork-join over single-server M/G/1 nodes.
baselines::BaselineInput clean_input(const dist::DistPtr& service, int n,
                                     double load) {
  baselines::BaselineInput in;
  in.service = service;
  in.lambda = load / service->mean();
  in.cluster_nodes = static_cast<std::size_t>(n);
  in.fanout = n;
  in.join = n;
  in.mean_fanout = static_cast<double>(n);
  in.single_server_fifo = true;
  in.homogeneous_topology = true;
  in.nk_clean = true;
  return in;
}

// Certificate tiers follow the capability model, not a family list:
// memoryless -> exact sojourn, LST -> Pollaczek-Khinchine inversion, MGF
// only -> Chernoff.  A service declaring none of the three has no
// certificate, so the baseline must refuse it outright.
TEST(BoundsOracle, ApplicabilityFollowsTheCapabilityModel) {
  const struct {
    dist::DistPtr service;
    bool certified;
  } cases[] = {
      {dist::make_named("Exponential"), true},     // memoryless
      {dist::make_named("Erlang-2"), true},        // LST
      {dist::make_named("TruncPareto"), true},     // MGF (bounded support)
      {dist::make_named("Weibull"), false},        // subexponential, no MGF
      {dist::make_named("Pareto", 4.22, 2.6), false},
      {dist::make_named("HeavyMixture", 4.22, 2.6), false},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(baselines::linear_bounds_applicable(clean_input(c.service, 4, 0.5)),
              c.certified)
        << c.service->name();
  }
}

// n = k = 1 is a plain M/M/1 queue: the sojourn is Exp(mu - lambda), so
// both edges of the bracket must collapse onto the closed form (the
// certified interval is EXACT here, not merely containing).
TEST(BoundsOracle, MM1BracketIsExact) {
  const dist::DistPtr service = dist::make_named("Exponential");
  const double mean_s = service->mean();
  for (const double load : {0.3, 0.5, 0.8, 0.95}) {
    const baselines::BaselineInput in = clean_input(service, 1, load);
    ASSERT_TRUE(baselines::linear_bounds_applicable(in));
    for (const double p : {50.0, 90.0, 99.0, 99.9}) {
      const double exact =
          -std::log(1.0 - p / 100.0) * mean_s / (1.0 - load);
      const baselines::Bracket b = baselines::linear_bounds_bracket(in, p);
      EXPECT_TRUE(b.certified);
      EXPECT_NEAR(b.lower, exact, 1e-6 * exact) << "load " << load;
      EXPECT_NEAR(b.upper, exact, 1e-6 * exact) << "load " << load;
    }
  }
}

// Exact stationary draws (perfect sampler) must land inside the certified
// bracket up to order-statistic CI noise.  Small n keeps this in the fast
// tier; test_bounds_oracle_slow.cpp pushes n to 32.
TEST(BoundsOracle, PerfectSamplerQuantileInsideBracket) {
  scenario::ScenarioSpec spec;
  spec.topology = scenario::Topology::kHomogeneous;
  spec.nodes = 4;
  spec.service.dist = "Exponential";
  spec.load = 0.7;
  spec.requests = 4000;
  spec.sampler = scenario::Sampler::kPerfect;
  spec.seed = 11;
  const scenario::Outcome outcome =
      scenario::SimulatorRegistry::global().run(spec);
  const baselines::Bracket b = scenario::certified_bracket(outcome, 99.0);
  ASSERT_TRUE(b.certified);
  const double p99 = stats::percentile(outcome.responses, 99.0);
  // 4000 draws put the 99% CI of the p99 within ~8% -- test with slack.
  EXPECT_GE(p99, b.lower * 0.90);
  EXPECT_LE(p99, b.upper * 1.10);
}

// Randomized containment: any clean homogeneous/subset spec with a
// light-tailed service must produce a stationary p99 consistent with its
// certified bracket.  The specs are drawn from a fixed seed (deterministic
// run) and a failing draw prints its JSON so the exact system can be
// replayed with `forktail run`.
TEST(BoundsOracle, RandomSpecContainmentProperty) {
  util::Rng rng(20260808);
  const char* dists[] = {"Exponential", "Erlang-2", "HyperExp2", "Empirical",
                         "TruncPareto"};
  for (int trial = 0; trial < 6; ++trial) {
    scenario::ScenarioSpec spec;
    const bool subset = rng.uniform() < 0.5;
    const int n = 2 + static_cast<int>(rng.uniform_int(31));  // 2..32
    spec.nodes = static_cast<std::size_t>(n);
    spec.service.dist = dists[rng.uniform_int(5)];
    spec.load = 0.3 + 0.5 * rng.uniform();  // (0.3, 0.8)
    if (subset && n >= 3) {
      spec.topology = scenario::Topology::kSubset;
      spec.k.mode = scenario::KSpec::Mode::kFixed;
      spec.k.fixed = 2 + static_cast<int>(rng.uniform_int(
                             static_cast<std::uint64_t>(n - 2)));
    } else {
      spec.topology = scenario::Topology::kHomogeneous;
    }
    spec.requests = 1500;
    spec.sampler = scenario::Sampler::kPerfect;
    spec.seed = 100 + static_cast<std::uint64_t>(trial);
    spec.name = "property-trial-" + std::to_string(trial);

    const scenario::Outcome outcome =
        scenario::SimulatorRegistry::global().run(spec);
    const baselines::Bracket b = scenario::certified_bracket(outcome, 99.0);
    ASSERT_TRUE(b.certified) << scenario::to_json(spec).dump();
    EXPECT_LE(b.lower, b.upper) << scenario::to_json(spec).dump();
    const double p99 = stats::percentile(outcome.responses, 99.0);
    // 1500 draws leave ~15 tail points; allow generous CI slack.  A wrong
    // bound fails by far more than this (it is the TRUE quantile that is
    // certified, and these seeds are fixed).
    EXPECT_GE(p99, b.lower * 0.75) << scenario::to_json(spec).dump();
    EXPECT_LE(p99, b.upper * 1.25) << scenario::to_json(spec).dump();
  }
}

// The out-of-bracket flag must actually fire: a scenario whose sampling is
// deliberately misconfigured (a subset system at 90% load given almost no
// warm-up, so queues never fill) yields a prediction provably below the
// certified lower bound -- the report must say so.
TEST(BoundsOracle, MisconfiguredWarmupTripsOutOfBracketFlag) {
  scenario::ScenarioSpec spec;
  spec.name = "misconfigured-warmup";
  spec.topology = scenario::Topology::kSubset;
  spec.nodes = 200;
  spec.service.dist = "Exponential";
  spec.load = 0.9;
  spec.k.mode = scenario::KSpec::Mode::kFixed;
  spec.k.fixed = 4;
  spec.requests = 2000;
  spec.warmup_fraction = 0.01;  // ~10 tasks/node: nowhere near stationary
  spec.seed = 1;
  const scenario::ScenarioReport report =
      scenario::run_scenario(spec, {"forktail"}, {99.0});
  ASSERT_EQ(report.brackets.size(), 1u);
  ASSERT_TRUE(report.brackets[0].certified);
  ASSERT_EQ(report.predictions.size(), 1u);
  EXPECT_LT(report.predictions[0].predicted_ms[0], report.brackets[0].lower)
      << "expected the under-warmed sample to bias the prediction below "
         "the certified single-sojourn lower bound";
  EXPECT_FALSE(report.predictions[0].in_bracket[0]);
}

}  // namespace
}  // namespace forktail
