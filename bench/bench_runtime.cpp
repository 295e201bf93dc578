// Computational-cost comparison (Section 4.1's runtime discussion):
// ForkTail's prediction pipeline is microseconds per quantile -- the paper
// claims "< 5 ms" against EAT's seconds -- making online scheduling
// feasible.  google-benchmark micro-benchmarks for every prediction path
// and for the EAT baseline at two accuracy settings.
//
// Note: our EAT reimplementation (Laplace inversion + Gaussian copula) is
// substantially faster than the original matrix-analytic method, so the
// absolute gap understates the paper's; the scaling with the accuracy
// knob C is the comparable signal.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "baselines/eat.hpp"
#include "baselines/expfit.hpp"
#include "core/forktail.hpp"
#include "dist/factory.hpp"
#include "queueing/mg1.hpp"

namespace {

using namespace forktail;

void BM_GenExpFitMoments(benchmark::State& state) {
  double mean = 42.0;
  const double variance = 2000.0;
  for (auto _ : state) {
    const auto ge = core::GenExp::fit_moments(mean, variance);
    benchmark::DoNotOptimize(ge.alpha());
    mean += 1e-9;  // defeat caching
  }
}
BENCHMARK(BM_GenExpFitMoments);

void BM_HomogeneousQuantile(benchmark::State& state) {
  const auto k = static_cast<double>(state.range(0));
  core::TaskStats stats{42.0, 2000.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::homogeneous_quantile(stats, k, 99.0));
    stats.mean += 1e-9;
  }
}
BENCHMARK(BM_HomogeneousQuantile)->Arg(100)->Arg(1000);

void BM_InhomogeneousQuantile(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<core::TaskStats> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i] = {40.0 + static_cast<double>(i % 7), 1900.0 + 10.0 * (i % 11)};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::inhomogeneous_quantile(nodes, 99.0));
    nodes[0].mean += 1e-9;
  }
}
BENCHMARK(BM_InhomogeneousQuantile)->Arg(32)->Arg(1000);

void BM_MixtureQuantile(benchmark::State& state) {
  const auto mixture = core::TaskCountMixture::uniform_int(10, 990);
  core::TaskStats stats{42.0, 2000.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::mixture_quantile(stats, mixture, 99.0));
    stats.mean += 1e-9;
  }
}
BENCHMARK(BM_MixtureQuantile);

void BM_WhiteBoxPipeline(benchmark::State& state) {
  const auto service = dist::make_named("Empirical");
  double lambda = 0.9 / service->mean();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::whitebox_mg1_quantile(lambda, *service, 1000.0, 99.0));
    lambda += 1e-12;
  }
}
BENCHMARK(BM_WhiteBoxPipeline);

void BM_ExponentialFitBaseline(benchmark::State& state) {
  core::TaskStats stats{42.0, 2000.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baselines::exponential_fit_quantile(stats, 1000.0, 99.0));
    stats.mean += 1e-9;
  }
}
BENCHMARK(BM_ExponentialFitBaseline);

void BM_EatConstruct(benchmark::State& state) {
  const auto service = dist::make_named("Exponential");
  const double lambda = 0.9 / service->mean();
  const auto accuracy = static_cast<int>(state.range(0));
  for (auto _ : state) {
    baselines::EatPredictor eat(lambda, service, 1000,
                                {.accuracy = accuracy,
                                 .calibration_samples = 200000,
                                 .calibration_seed = 1});
    benchmark::DoNotOptimize(eat.copula_correlation());
  }
}
BENCHMARK(BM_EatConstruct)->Arg(100)->Arg(500)->Unit(benchmark::kMillisecond);

void BM_EatQuantile(benchmark::State& state) {
  const auto service = dist::make_named("Exponential");
  const double lambda = 0.9 / service->mean();
  const auto accuracy = static_cast<int>(state.range(0));
  baselines::EatPredictor eat(lambda, service, 1000, {.accuracy = accuracy});
  double p = 99.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eat.quantile(p));
    p = p == 99.0 ? 99.0000001 : 99.0;  // defeat caching
  }
}
BENCHMARK(BM_EatQuantile)->Arg(100)->Arg(500)->Unit(benchmark::kMillisecond);

void BM_OnlinePredictorUpdate(benchmark::State& state) {
  core::OnlineTailPredictor online(1, 20.0, 30);
  util::Rng rng(1);
  double now = 0.0;
  for (auto _ : state) {
    now += 0.001;
    online.record(0, now, rng.exponential(0.042));
    benchmark::DoNotOptimize(online.node_stats(0));
  }
}
BENCHMARK(BM_OnlinePredictorUpdate);

// The serve daemon's window update: one forktail.wire.v1 datagram of 64
// samples sharing a timestamp, 1 ms apart, into a 2 s window (so the
// bucket ring rolls every ~31 ms as it does under load).
void BM_OnlineRecordDatagram(benchmark::State& state) {
  core::OnlineTailPredictor online(1, 2.0, 30);
  util::Rng rng(1);
  std::vector<double> datagram(64);
  for (double& x : datagram) x = rng.exponential(5.0);  // Exp(5 ms)
  double now = 0.0;
  for (auto _ : state) {
    now += 0.001;
    benchmark::DoNotOptimize(online.record_batch(0, now, datagram));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(datagram.size()));
}
BENCHMARK(BM_OnlineRecordDatagram);

}  // namespace

BENCHMARK_MAIN();
