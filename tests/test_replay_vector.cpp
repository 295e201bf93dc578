// Vector replay engine determinism and equivalence suite.
//
// The engine's contract (fjsim/vector_engine.hpp) is:
//   1. Bit-identical output for ANY thread count (max_parallelism), ANY
//      demand-tile size (config.batch), and ANY ISA dispatch level.
//   2. Statistically equivalent to the legacy engines, but NOT bit-identical
//      to them (documented golden change: polynomial log/exp, inverse-CDF
//      lognormal, pooled subset demand lanes; docs/performance.md).
// This file pins both halves, plus the primitives the contract rests on:
// split_seed known-answer vectors, XoshiroBlock lane streams vs the scalar
// engine, bits_to_unit vs Rng::uniform, and the vec_math kernels vs libm.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "dist/basic.hpp"
#include "dist/factory.hpp"
#include "dist/google_leaf.hpp"
#include "dist/heavy.hpp"
#include "dist/vec_sampler.hpp"
#include "fjsim/heterogeneous.hpp"
#include "fjsim/homogeneous.hpp"
#include "fjsim/perfect_sampler.hpp"
#include "fjsim/pipeline.hpp"
#include "fjsim/subset.hpp"
#include "fjsim/telemetry.hpp"
#include "fjsim/vector_engine.hpp"
#include "stats/percentile.hpp"
#include "util/rng.hpp"
#include "util/vec_math.hpp"
#include "util/vec_rng.hpp"

namespace forktail::fjsim {

// The per-level entry points have external linkage precisely so the native
// dispatch level can be checked against the always-available generic level
// in-process (vector_engine.cpp declares the same signatures).
namespace ve_generic {
HomogeneousResult run_homogeneous(const HomogeneousConfig& config);
HeterogeneousResult run_heterogeneous(const HeterogeneousConfig& config);
SubsetResult run_subset(const SubsetConfig& config);
PipelineResult run_pipeline(const PipelineConfig& config);
PerfectSampleResult run_perfect(const PerfectSamplerConfig& config);
}  // namespace ve_generic

namespace {

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << " diverges at index " << i;
  }
}

void expect_welford_equal(const stats::Welford& a, const stats::Welford& b,
                          const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what << " count";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean()),
            std::bit_cast<std::uint64_t>(b.mean()))
      << what << " mean";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.variance()),
            std::bit_cast<std::uint64_t>(b.variance()))
      << what << " variance";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.min()),
            std::bit_cast<std::uint64_t>(b.min()))
      << what << " min";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.max()),
            std::bit_cast<std::uint64_t>(b.max()))
      << what << " max";
}

// ------------------------------------------------------------- primitives

TEST(VecRng, SplitSeedKnownAnswers) {
  // Pinned outputs of Rng::split_seed.  These are the exact seeds the
  // sharded engine hands to SIMD lanes; a silent change here re-seeds every
  // stream and invalidates all vector goldens.
  struct Kat {
    std::uint64_t parent, index, child;
  };
  constexpr Kat kKats[] = {
      {0x0000000000000000ULL, 0x0000000000000000ULL, 0xa706dd2f4d197e6fULL},
      {0x0000000000000000ULL, 0x0000000000000001ULL, 0x5e41ab087439611eULL},
      {0x000000000000002aULL, 0x0000000000000000ULL, 0x4d9b3f1ec9cf6b1bULL},
      {0x000000000000002aULL, 0x0000000000000064ULL, 0xb234c65b9aa6ae44ULL},
      {0x00000000deadbeefULL, 0x0000000000000007ULL, 0x03b1802eab8d5742ULL},
      {0xffffffffffffffffULL, 0xffffffffffffffffULL, 0x6309143e67a47936ULL},
  };
  for (const Kat& k : kKats) {
    EXPECT_EQ(util::Rng::split_seed(k.parent, k.index), k.child)
        << "parent=" << k.parent << " index=" << k.index;
  }
}

TEST(VecRng, BitsToUnitMatchesRngUniform) {
  // Regression pin: an earlier exponent-splice implementation dropped bit 52
  // of (x >> 11) and folded every uniform into [0, 1/2).  Cover draws with
  // bit 52 both set and clear, plus the extremes.
  constexpr std::uint64_t kProbe[] = {
      0ULL, 1ULL, 0x7ffULL, 0x800ULL, 0x8000000000000000ULL,
      0xffffffffffffffffULL, 0x8000000000000800ULL, 0x123456789abcdef0ULL};
  for (std::uint64_t x : kProbe) {
    const double expected = static_cast<double>(x >> 11) * 0x1.0p-53;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(util::bits_to_unit(x)),
              std::bit_cast<std::uint64_t>(expected))
        << "x=" << x;
    EXPECT_GE(util::bits_to_unit(x), 0.0);
    EXPECT_LT(util::bits_to_unit(x), 1.0);
  }
  // And against the scalar generator on a live stream.
  util::Xoshiro256pp raw(99);
  util::Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(util::bits_to_unit(raw())),
              std::bit_cast<std::uint64_t>(rng.uniform()))
        << "draw " << i;
  }
}

TEST(VecRng, XoshiroBlockLanesMatchScalarStreams) {
  constexpr std::size_t kRows = 333;  // odd, so refills land mid-stream
  util::XoshiroBlock block;
  std::uint64_t seeds[util::kVecLanes];
  for (std::size_t l = 0; l < util::kVecLanes; ++l) {
    seeds[l] = util::Rng::split_seed(42, 100 + l);
    block.seed_lane(l, seeds[l]);
  }
  std::vector<std::uint64_t> out(kRows * util::kVecLanes);
  block.fill(out.data(), kRows);
  // Second fill continues the stream (state carries across blocks).
  std::vector<std::uint64_t> out2(kRows * util::kVecLanes);
  block.fill(out2.data(), kRows);
  for (std::size_t l = 0; l < util::kVecLanes; ++l) {
    util::Xoshiro256pp scalar(seeds[l]);
    for (std::size_t i = 0; i < kRows; ++i) {
      ASSERT_EQ(out[i * util::kVecLanes + l], scalar())
          << "lane " << l << " row " << i;
    }
    for (std::size_t i = 0; i < kRows; ++i) {
      ASSERT_EQ(out2[i * util::kVecLanes + l], scalar())
          << "lane " << l << " row " << kRows + i << " (second block)";
    }
  }
}

TEST(VecRng, CounterHashIsRandomAccess) {
  // Element c of stream s must not depend on what was drawn before it.
  const std::uint64_t direct = util::counter_hash(7, 1000);
  std::uint64_t blockwise[16];
  util::counter_hash_block(7, 992, blockwise, 16);
  EXPECT_EQ(blockwise[8], direct);
  // Distinct (seed, counter) pairs map to distinct outputs over a small
  // window (the finalizer is bijective per seed).
  for (int i = 0; i < 15; ++i) EXPECT_NE(blockwise[i], blockwise[i + 1]);
}

TEST(VecRng, PickHash32IsRandomAccessAndInRange) {
  // The subset engine's pick stream: element (stream, counter) of seed s is
  // a pure function of the triple -- recomputing it in any order gives the
  // same value (the conflict-fixup loop relies on this).
  const std::uint32_t direct = util::pick_hash32(7u, 42u, 1000u);
  for (std::uint32_t c = 1005; c-- > 995;) {
    const std::uint32_t again = util::pick_hash32(7u, 42u, c);
    if (c == 1000u) {
      EXPECT_EQ(again, direct);
    }
  }
  // Changing any single input changes the output (sanity, not a proof).
  EXPECT_NE(util::pick_hash32(8u, 42u, 1000u), direct);
  EXPECT_NE(util::pick_hash32(7u, 43u, 1000u), direct);
  EXPECT_NE(util::pick_hash32(7u, 42u, 1001u), direct);

  // hash_to_range maps into [0, n) for every h, including the extremes,
  // and the multiply-shift reduction is monotone in h for fixed n.
  for (std::uint32_t n : {1u, 2u, 16u, 100u, 4096u}) {
    EXPECT_EQ(util::hash_to_range(0u, n), 0u);
    EXPECT_LT(util::hash_to_range(0xFFFFFFFFu, n), n);
  }
  // Distribution sanity: hashing 64k counters into n=100 hits every cell
  // within a loose band of the expected 655 per cell.
  std::array<int, 100> cells{};
  for (std::uint32_t c = 0; c < 65536; ++c) {
    ++cells[util::hash_to_range(util::pick_hash32(1u, 2u, c), 100u)];
  }
  for (int count : cells) {
    EXPECT_GT(count, 400);
    EXPECT_LT(count, 950);
  }
}

TEST(VecMath, LogExpMatchLibmClosely) {
  util::Rng rng(5);
  double max_log_ulp = 0.0, max_exp_ulp = 0.0;
  for (int i = 0; i < 200000; ++i) {
    // Log-uniform u covers every binade the samplers can feed into log.
    const double u = std::exp(rng.uniform(-690.0, 0.0));
    const double l0 = util::vec_log(u), l1 = std::log(u);
    max_log_ulp = std::max(
        max_log_ulp, std::abs(l0 - l1) / std::abs(std::nextafter(l1, 0.0) - l1));
    const double x = rng.uniform(-700.0, 700.0);
    const double e0 = util::vec_exp(x), e1 = std::exp(x);
    max_exp_ulp = std::max(
        max_exp_ulp, std::abs(e0 - e1) / (std::nextafter(e1, 1e308) - e1));
  }
  // Measured: log ~7 ulp worst case (atanh-series rounding), exp ~1 ulp
  // (Cody-Waite reduction + degree-13 Taylor).  The bounds leave one
  // doubling of headroom before a compiler/libm change trips them.
  EXPECT_LT(max_log_ulp, 14.0);
  EXPECT_LT(max_exp_ulp, 4.0);
}

TEST(VecSampler, EmpiricalGridMatchesQuantileBitwise) {
  const dist::Empirical& leaf = dist::google_leaf();
  const dist::EmpiricalGrid grid(leaf);
  util::Rng rng(11);
  for (int i = 0; i < 50000; ++i) {
    const double u = rng.uniform();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(grid.quantile(u)),
              std::bit_cast<std::uint64_t>(leaf.quantile(u)))
        << "u=" << u;
  }
}

TEST(VecSampler, LaneMeansMatchDistributionMeans) {
  // Every vectorized inverse-CDF path, checked against the analytic mean.
  // 8 lanes x 100k rows gives a standard error small enough for 2% bands
  // even on the heavy tails (lognormal excluded from the tightest band).
  const std::vector<dist::DistPtr> roster = {
      std::make_shared<dist::Exponential>(1.7),
      std::make_shared<dist::Erlang>(3, 2.0),
      std::make_shared<dist::HyperExp2>(dist::HyperExp2::from_mean_scv(4.22, 2.0)),
      std::make_shared<dist::Weibull>(0.7, 1.3),
      std::make_shared<dist::LogNormal>(0.2, 0.6),
      std::make_shared<dist::Deterministic>(3.25),
      std::make_shared<dist::UniformReal>(1.0, 3.0),
      dist::google_leaf_ptr(),
  };
  constexpr std::size_t kRows = 100000;
  std::vector<double> buf(kRows * util::kVecLanes);
  for (const auto& d : roster) {
    std::vector<dist::LaneSampler::Lane> lanes;
    for (std::size_t l = 0; l < util::kVecLanes; ++l) {
      lanes.push_back({d.get(), util::Rng::split_seed(9, l)});
    }
    dist::LaneSampler sampler{
        std::span<const dist::LaneSampler::Lane>(lanes)};
    sampler.fill(buf.data(), kRows);
    double sum = 0.0;
    for (double x : buf) sum += x;
    const double mean = sum / static_cast<double>(buf.size());
    EXPECT_NEAR(mean, d->mean(), 0.02 * d->mean()) << d->name();
  }
}

TEST(VecSampler, ExponentialLanesTrackScalarStream) {
  // The exponential path consumes exactly one u64 per sample from the same
  // lane stream the scalar Rng would; values agree to a few ulp (vec_log vs
  // libm log is the only difference).
  const dist::Exponential d(2.5);
  const std::uint64_t seed = util::Rng::split_seed(3, 100);
  std::vector<dist::LaneSampler::Lane> lanes(
      util::kVecLanes, dist::LaneSampler::Lane{&d, seed});
  dist::LaneSampler sampler{std::span<const dist::LaneSampler::Lane>(lanes)};
  constexpr std::size_t kRows = 4096;
  std::vector<double> buf(kRows * util::kVecLanes);
  sampler.fill(buf.data(), kRows);
  util::Rng scalar(seed);
  for (std::size_t i = 0; i < kRows; ++i) {
    const double ref = d.sample(scalar);
    const double got = buf[i * util::kVecLanes];  // lane 0 shares the seed
    ASSERT_NEAR(got, ref, 16.0 * std::abs(ref) * 0x1.0p-52) << "row " << i;
  }
}

TEST(VecSampler, ReseedRestartsTheLaneStream) {
  // After draws on old seeds, reseeding every lane must reproduce exactly
  // what a sampler built with the new seeds fills: the xoshiro lanes and
  // the generic kind's per-lane scalar Rng (TruncNormal has no vector
  // kernel).
  const dist::Exponential exp_d(2.5);
  const dist::TruncatedNormal tn_d(1.0, 2.0, 0.05);
  for (const dist::Distribution* d :
       {static_cast<const dist::Distribution*>(&exp_d),
        static_cast<const dist::Distribution*>(&tn_d)}) {
    std::vector<dist::LaneSampler::Lane> old_lanes;
    std::vector<dist::LaneSampler::Lane> new_lanes;
    for (std::size_t l = 0; l < util::kVecLanes; ++l) {
      old_lanes.push_back({d, util::Rng::split_seed(1, l)});
      new_lanes.push_back({d, util::Rng::split_seed(2, l)});
    }
    dist::LaneSampler reused{std::span<const dist::LaneSampler::Lane>(old_lanes)};
    dist::LaneSampler fresh{std::span<const dist::LaneSampler::Lane>(new_lanes)};
    constexpr std::size_t kRows = 37;
    std::vector<double> a(kRows * util::kVecLanes);
    std::vector<double> b(kRows * util::kVecLanes);
    reused.fill(a.data(), kRows);
    for (std::size_t l = 0; l < util::kVecLanes; ++l) {
      reused.reseed(l, new_lanes[l].seed);
    }
    reused.fill(a.data(), kRows);
    fresh.fill(b.data(), kRows);
    expect_bitwise_equal(a, b, d->name().c_str());
  }
}

// ------------------------------------------------- engine determinism

HomogeneousConfig homog_config() {
  HomogeneousConfig c;
  c.num_nodes = 21;  // odd: remainder lanes in the last node group
  c.service = std::make_shared<dist::Exponential>(1.0);
  c.load = 0.8;
  c.num_requests = 8000;
  c.seed = 42;
  c.engine = Engine::kVector;
  return c;
}

SubsetConfig subset_config() {
  SubsetConfig c;
  c.num_nodes = 50;
  c.k_fixed = 7;
  c.service = std::make_shared<dist::Weibull>(0.5, 0.05);
  c.load = 0.7;
  c.num_requests = 8000;
  c.seed = 7;
  c.engine = Engine::kVector;
  return c;
}

PipelineConfig pipeline_config() {
  PipelineConfig c;
  c.stages = {{6, std::make_shared<dist::Exponential>(1.0)},
              {9, std::make_shared<dist::LogNormal>(0.0, 0.5)}};
  c.num_requests = 8000;
  c.seed = 3;
  c.engine = Engine::kVector;
  return c;
}

PerfectSamplerConfig perfect_config() {
  PerfectSamplerConfig c;
  c.num_nodes = 12;  // 12 * 16 services per block: rows straddle steps
  c.service = std::make_shared<dist::Exponential>(1.0);
  c.load = 0.7;
  c.draws = 600;
  c.seed = 19;
  c.engine = Engine::kVector;
  return c;
}

HeterogeneousConfig hetero_config() {
  HeterogeneousConfig c;
  for (int i = 0; i < 13; ++i) {
    c.services.push_back(
        i % 2 ? dist::DistPtr(std::make_shared<dist::Exponential>(0.5 + 0.1 * i))
              : dist::DistPtr(std::make_shared<dist::Erlang>(3, 2.0)));
  }
  c.lambda = lambda_for_max_load(c.services, 0.8);
  c.num_requests = 8000;
  c.seed = 11;
  c.engine = Engine::kVector;
  return c;
}

TEST(VectorEngine, HomogeneousThreadAndBatchInvariant) {
  auto c = homog_config();
  const auto ref = run_homogeneous(c);
  for (std::size_t threads : {std::size_t{2}, std::size_t{5}}) {
    auto ct = c;
    ct.max_parallelism = threads;
    const auto got = run_homogeneous(ct);
    expect_bitwise_equal(ref.responses, got.responses, "homog responses");
    expect_welford_equal(ref.task_stats, got.task_stats, "homog task_stats");
    EXPECT_EQ(ref.total_tasks, got.total_tasks);
    EXPECT_EQ(ref.lambda, got.lambda);
  }
  for (std::size_t batch : {std::size_t{1}, std::size_t{97}, std::size_t{1} << 20}) {
    auto cb = c;
    cb.batch = batch;
    const auto got = run_homogeneous(cb);
    expect_bitwise_equal(ref.responses, got.responses, "homog batch responses");
    expect_welford_equal(ref.task_stats, got.task_stats, "homog batch stats");
  }
}

TEST(VectorEngine, SubsetThreadAndBatchInvariant) {
  auto c = subset_config();
  const auto ref = run_subset(c);
  for (std::size_t threads : {std::size_t{2}, std::size_t{5}}) {
    auto ct = c;
    ct.max_parallelism = threads;
    const auto got = run_subset(ct);
    expect_bitwise_equal(ref.responses, got.responses, "subset responses");
    expect_welford_equal(ref.task_stats, got.task_stats, "subset task_stats");
    EXPECT_EQ(ref.total_tasks, got.total_tasks);
  }
  auto cb = c;
  cb.batch = 37;
  const auto got = run_subset(cb);
  expect_bitwise_equal(ref.responses, got.responses, "subset batch responses");
  expect_welford_equal(ref.task_stats, got.task_stats, "subset batch stats");
}

TEST(VectorEngine, PipelineThreadInvariant) {
  auto c = pipeline_config();
  const auto ref = run_pipeline(c);
  for (std::size_t threads : {std::size_t{2}, std::size_t{5}}) {
    auto ct = c;
    ct.max_parallelism = threads;
    const auto got = run_pipeline(ct);
    expect_bitwise_equal(ref.responses, got.responses, "pipeline responses");
    ASSERT_EQ(ref.stage_task_stats.size(), got.stage_task_stats.size());
    for (std::size_t s = 0; s < ref.stage_task_stats.size(); ++s) {
      expect_welford_equal(ref.stage_task_stats[s], got.stage_task_stats[s],
                           "pipeline stage task stats");
      expect_welford_equal(ref.stage_latency_stats[s],
                           got.stage_latency_stats[s],
                           "pipeline stage latency stats");
    }
  }
}

TEST(VectorEngine, HeterogeneousThreadInvariant) {
  auto c = hetero_config();
  const auto ref = run_heterogeneous(c);
  for (std::size_t threads : {std::size_t{2}, std::size_t{5}}) {
    auto ct = c;
    ct.max_parallelism = threads;
    const auto got = run_heterogeneous(ct);
    expect_bitwise_equal(ref.responses, got.responses, "hetero responses");
    ASSERT_EQ(ref.node_stats.size(), got.node_stats.size());
    for (std::size_t n = 0; n < ref.node_stats.size(); ++n) {
      expect_welford_equal(ref.node_stats[n], got.node_stats[n],
                           "hetero node stats");
    }
  }
}

TEST(VectorEngine, GenericLevelMatchesNativeDispatch) {
  // The dispatcher picks the best ISA level for this CPU; the generic level
  // must produce bit-identical results.  On a machine without AVX this test
  // compares generic with itself, which is vacuous but harmless.
  const auto hc = homog_config();
  const auto native_h = run_homogeneous(hc);
  const auto generic_h = ve_generic::run_homogeneous(hc);
  expect_bitwise_equal(native_h.responses, generic_h.responses,
                       "homog generic-vs-native");
  expect_welford_equal(native_h.task_stats, generic_h.task_stats,
                       "homog generic-vs-native stats");

  const auto sc = subset_config();
  const auto native_s = run_subset(sc);
  const auto generic_s = ve_generic::run_subset(sc);
  expect_bitwise_equal(native_s.responses, generic_s.responses,
                       "subset generic-vs-native");

  const auto pc = pipeline_config();
  const auto native_p = run_pipeline(pc);
  const auto generic_p = ve_generic::run_pipeline(pc);
  expect_bitwise_equal(native_p.responses, generic_p.responses,
                       "pipeline generic-vs-native");

  const auto xc = hetero_config();
  const auto native_x = run_heterogeneous(xc);
  const auto generic_x = ve_generic::run_heterogeneous(xc);
  expect_bitwise_equal(native_x.responses, generic_x.responses,
                       "hetero generic-vs-native");

  const auto fc = perfect_config();
  const auto native_f = run_perfect(fc);
  const auto generic_f = ve_generic::run_perfect(fc);
  expect_bitwise_equal(native_f.responses, generic_f.responses,
                       "perfect generic-vs-native");
  expect_welford_equal(native_f.task_stats, generic_f.task_stats,
                       "perfect generic-vs-native stats");
}

TEST(VectorEngine, TelemetryCountersThreadInvariant) {
  // The deterministic counters (tasks, tiles) must not depend on how the
  // node groups were sharded -- only wall-clock histograms may differ.
  auto& m = ReplayMetrics::get();
  auto c = homog_config();

  const std::uint64_t meas0 = m.tasks_measured.value();
  const std::uint64_t warm0 = m.tasks_warmup.value();
  const std::uint64_t tiles0 = m.tiles.value();
  (void)run_homogeneous(c);
  const std::uint64_t meas1 = m.tasks_measured.value();
  const std::uint64_t warm1 = m.tasks_warmup.value();
  const std::uint64_t tiles1 = m.tiles.value();
  c.max_parallelism = 5;
  (void)run_homogeneous(c);
  EXPECT_EQ(m.tasks_measured.value() - meas1, meas1 - meas0);
  EXPECT_EQ(m.tasks_warmup.value() - warm1, warm1 - warm0);
  EXPECT_EQ(m.tiles.value() - tiles1, tiles1 - tiles0);
}

// ------------------------------------------- statistical equivalence

TEST(VectorEngine, HomogeneousMatchesLegacyStatistically) {
  auto c = homog_config();
  c.num_requests = 20000;
  auto legacy = c;
  legacy.engine = Engine::kLegacy;
  const auto l = run_homogeneous(legacy);
  const auto v = run_homogeneous(c);
  ASSERT_EQ(l.task_stats.count(), v.task_stats.count());
  // Same streams, same transforms up to last-ulp log differences: the
  // aggregate moments agree far tighter than sampling noise.
  EXPECT_NEAR(v.task_stats.mean(), l.task_stats.mean(),
              1e-6 * l.task_stats.mean());
  EXPECT_NEAR(v.task_stats.variance(), l.task_stats.variance(),
              1e-6 * l.task_stats.variance());
  EXPECT_NEAR(stats::percentile(v.responses, 99.0),
              stats::percentile(l.responses, 99.0),
              1e-6 * stats::percentile(l.responses, 99.0));
}

TEST(VectorEngine, SubsetAndPipelineMatchLegacyWithinNoise) {
  // These paths replay different (equally valid) sample paths -- pooled
  // demand lanes, counter-hash picks, inverse-CDF lognormal -- so the
  // comparison is statistical: means within a few percent at n = 20000.
  auto sc = subset_config();
  sc.num_requests = 20000;
  auto sl = sc;
  sl.engine = Engine::kLegacy;
  const auto s_legacy = run_subset(sl);
  const auto s_vec = run_subset(sc);
  EXPECT_EQ(s_legacy.total_tasks, s_vec.total_tasks);
  EXPECT_NEAR(s_vec.task_stats.mean(), s_legacy.task_stats.mean(),
              0.10 * s_legacy.task_stats.mean());

  auto pc = pipeline_config();
  pc.num_requests = 20000;
  auto pl = pc;
  pl.engine = Engine::kLegacy;
  const auto p_legacy = run_pipeline(pl);
  const auto p_vec = run_pipeline(pc);
  for (std::size_t s = 0; s < p_legacy.stage_task_stats.size(); ++s) {
    EXPECT_NEAR(p_vec.stage_task_stats[s].mean(),
                p_legacy.stage_task_stats[s].mean(),
                0.10 * p_legacy.stage_task_stats[s].mean())
        << "stage " << s;
  }
  EXPECT_NEAR(stats::percentile(p_vec.responses, 99.0),
              stats::percentile(p_legacy.responses, 99.0),
              0.15 * stats::percentile(p_legacy.responses, 99.0));
}

TEST(VectorEngine, HeterogeneousMatchesLegacyStatistically) {
  // Nodes replay in VecClass groups on lane streams, so the sample path is
  // not the legacy one: per-node task means within 10% and the p99 within
  // 15% at n = 20000, the bands of the subset and pipeline check above.
  auto xc = hetero_config();
  xc.num_requests = 20000;
  auto xl = xc;
  xl.engine = Engine::kLegacy;
  const auto legacy = run_heterogeneous(xl);
  const auto vec = run_heterogeneous(xc);
  ASSERT_EQ(legacy.responses.size(), vec.responses.size());
  ASSERT_EQ(legacy.node_stats.size(), vec.node_stats.size());
  for (std::size_t n = 0; n < legacy.node_stats.size(); ++n) {
    EXPECT_EQ(vec.node_stats[n].count(), legacy.node_stats[n].count());
    EXPECT_NEAR(vec.node_stats[n].mean(), legacy.node_stats[n].mean(),
                0.10 * legacy.node_stats[n].mean())
        << "node " << n;
  }
  EXPECT_NEAR(stats::percentile(vec.responses, 99.0),
              stats::percentile(legacy.responses, 99.0),
              0.15 * stats::percentile(legacy.responses, 99.0));
}

// ------------------------------------------------ unsupported configs

TEST(VectorEngine, RejectsUnsupportedPoliciesLoudly) {
  auto hc = homog_config();
  hc.policy = Policy::kRedundant;
  hc.redundant_delay = 10.0;
  EXPECT_THROW((void)run_homogeneous(hc), ConfigError);

  auto sc = subset_config();
  sc.replicas = 2;
  EXPECT_THROW((void)run_subset(sc), ConfigError);
}

TEST(VectorEngine, SupportsPredicateNamesWhatTheEntryPointsAccept) {
  // vector_supports() is the one statement of the preconditions: the entry
  // points accept exactly the configs it accepts.
  const auto accepted = [](const auto& config, auto run) {
    try {
      (void)run(config);
    } catch (const ConfigError&) {
      return false;
    }
    return true;
  };
  std::vector<HomogeneousConfig> homog(3, homog_config());
  homog[1].policy = Policy::kRoundRobin;
  homog[1].replicas = 3;
  homog[2].policy = Policy::kRedundant;
  homog[2].replicas = 2;
  for (auto& c : homog) {
    c.num_requests = 200;
    EXPECT_EQ(vector_supports(c), accepted(c, run_homogeneous));
  }
  std::vector<SubsetConfig> subset(4, subset_config());
  subset[1].policy = Policy::kRoundRobin;
  subset[1].replicas = 2;
  subset[2].early_k = 1;
  subset[3].policy = Policy::kRedundant;
  for (auto& c : subset) {
    c.num_requests = 200;
    EXPECT_EQ(vector_supports(c), accepted(c, run_subset));
  }
  std::vector<PerfectSamplerConfig> perfect(2, perfect_config());
  perfect[1].subset = true;
  perfect[1].k_fixed = 4;
  for (auto& c : perfect) {
    c.draws = 20;
    EXPECT_EQ(vector_supports(c), accepted(c, run_perfect_vector));
  }
  EXPECT_TRUE(vector_supports(perfect[0]));
  EXPECT_FALSE(vector_supports(perfect[1]));
  EXPECT_TRUE(vector_supports(homog[0]));
  EXPECT_TRUE(vector_supports(homog[1]));
  EXPECT_TRUE(vector_supports(subset[0]));
  EXPECT_TRUE(vector_supports(hetero_config()));
  EXPECT_TRUE(vector_supports(pipeline_config()));
}

}  // namespace
}  // namespace forktail::fjsim
