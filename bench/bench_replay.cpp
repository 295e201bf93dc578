// Replay-engine throughput benchmark: every fork-join replay pipeline on a
// fixed roster of workloads (see docs/performance.md).
//
//   bench_replay [--scale smoke|default|full] [--seed N] [--reps N]
//                [--threads N] [--csv true] [--out BENCH_replay.json]
//                [--metrics-out BENCH_replay.metrics.json]
//
// Each workload runs through four paths -- the scalar reference (one
// virtual sample() per task, tests/support/scalar_replay.hpp; subset runs
// at batch = 1), the batched legacy engine, the SIMD vector
// engine and the vector engine sharded over two threads -- with one
// warm-up run plus `reps` timed repetitions per path, interleaved.  The
// report (bench/common.hpp's forktail.bench.v1 envelope) has one row per
// (workload, path) with the median task throughput as its gated metric,
// and the checks that pin the engines' contracts:
//   * batched  identical_to_scalar         -- p50/p95/p99 compare EQUAL
//                                              (==, not approximately);
//   * vector_t2 identical_to_vector        -- sharding changes no bit;
//   * vector   p99_within_15pct_of_batched -- the vector family is a
//                                              documented golden change
//                                              within sampling noise.
// A false check exits 1.  --threads bounds the fjsim node-replay
// parallelism; it defaults to single-threaded so the tracked rates are not
// a function of the machine's core count.
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "dist/factory.hpp"
#include "fjsim/heterogeneous.hpp"
#include "fjsim/homogeneous.hpp"
#include "fjsim/pipeline.hpp"
#include "fjsim/replay.hpp"
#include "fjsim/subset.hpp"
#include "fjsim/vector_engine.hpp"
#include "obs/report.hpp"
#include "stats/percentile.hpp"
#include "support/scalar_replay.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace forktail::bench {
namespace {

/// Which replay pipeline a run exercises:
///  * kScalar   -- the pre-batching pipeline: one virtual sample() per task,
///    tail quantiles via copy + full sort (stats::percentiles).
///  * kBatched  -- the batched legacy pipeline: fused/block demand draws,
///    tail quantiles via partitioned selection (stats::percentiles_inplace).
///  * kVector   -- the SIMD engine (fjsim/vector_engine.hpp): lockstep
///    xoshiro lanes, block inverse-CDF sampling, vectorized Lindley tiles.
///  * kVectorT2 -- the same engine sharded across 2 worker threads, the
///    determinism demonstrator (bit-identical to kVector by contract).
/// kScalar and kBatched must produce bit-identical quantiles (a report
/// check per workload), and so must kVector and kVectorT2; the vector family's quantiles
/// differ from legacy within sampling noise (documented golden change,
/// docs/performance.md) and the relative p99 gap is recorded in the JSON.
enum class Path { kScalar, kBatched, kVector, kVectorT2 };

constexpr bool is_vector(Path path) {
  return path == Path::kVector || path == Path::kVectorT2;
}

/// One simulation run of a workload through one pipeline.
struct RunOutcome {
  double seconds = 0.0;
  std::uint64_t tasks = 0;
  std::array<double, 3> tail{};  ///< p50/p95/p99 responses -- the cross-check
};

struct Workload {
  std::string name;
  std::string kind;
  std::function<RunOutcome(Path path)> run;
};

/// Tail extraction, included in the timed window: the scalar pipeline pays
/// the pre-change copy + O(n log n) sort, the batched pipeline the
/// multi-percentile nth_element selection.  Bit-identical by construction
/// (test_percentile.cpp) -- the cross-check asserts it per workload.
std::array<double, 3> tail_percentiles(Path path,
                                       std::vector<double>& responses) {
  static constexpr std::array<double, 3> kPs{50.0, 95.0, 99.0};
  const auto q = path == Path::kScalar
                     ? stats::percentiles(responses, kPs)
                     : stats::percentiles_inplace(responses, kPs);
  return {q[0], q[1], q[2]};
}

fjsim::Engine engine_for(Path path) {
  return is_vector(path) ? fjsim::Engine::kVector : fjsim::Engine::kLegacy;
}

std::size_t threads_for(Path path, std::size_t base_threads) {
  return path == Path::kVectorT2 ? 2 : base_threads;
}

/// Timing summary of one (workload, path): per-rep task throughput.
struct PathResult {
  double p99 = 0.0;
  std::uint64_t tasks = 0;
  double rate_p50 = 0.0;  ///< tasks/sec, median of reps
  double rate_p95 = 0.0;
  double seconds_p50 = 0.0;
};

/// Accumulates interleaved reps of one (workload, path).
class PathAccumulator {
 public:
  PathAccumulator(const Workload& w, Path path, std::size_t reps)
      : workload_(&w), path_(path) {
    rates_.reserve(reps);
    seconds_.reserve(reps);
    warm_ = w.run(path);  // warm-up: untimed discard
  }

  void rep() {
    const RunOutcome o = workload_->run(path_);
    if (o.tail != warm_.tail) {
      throw std::logic_error("bench_replay: " + workload_->name +
                             " is not deterministic across repetitions");
    }
    rates_.push_back(static_cast<double>(o.tasks) / o.seconds);
    seconds_.push_back(o.seconds);
  }

  const RunOutcome& warm() const { return warm_; }

  PathResult finish() {
    PathResult out;
    out.p99 = warm_.tail[2];
    out.tasks = warm_.tasks;
    const std::array<double, 2> ps{50.0, 95.0};
    const auto rq = stats::percentiles_inplace(rates_, ps);
    out.rate_p50 = rq[0];
    out.rate_p95 = rq[1];
    out.seconds_p50 = stats::percentile_inplace(seconds_, 50.0);
    return out;
  }

 private:
  const Workload* workload_;
  Path path_;
  RunOutcome warm_;
  std::vector<double> rates_;
  std::vector<double> seconds_;
};

std::vector<Workload> build_workloads(const BenchOptions& options) {
  const double scale = options.scale;
  const std::uint64_t seed = options.seed;
  const std::size_t threads = options.threads;

  const auto homogeneous = [=](std::string name, const std::string& dist_name,
                               std::size_t nodes, double load, int replicas,
                               fjsim::Policy policy, std::uint64_t base_reqs) {
    auto run = [=](Path path) {
      fjsim::HomogeneousConfig cfg;
      cfg.num_nodes = nodes;
      cfg.replicas = replicas;
      cfg.policy = policy;
      cfg.service = dist::make_named(dist_name);
      cfg.load = load;
      cfg.num_requests = scaled(base_reqs, scale);
      // Relaxation to steady state slows like (1 - load)^-2, so the
      // high-load rows discard a larger warm-up prefix before measuring.
      if (load >= 0.9) cfg.warmup_fraction = 1.0 / 3.0;
      cfg.seed = seed;
      cfg.engine = engine_for(path);
      cfg.max_parallelism = threads_for(path, threads);
      util::Stopwatch watch;
      auto sim = path == Path::kScalar ? fjsim::scalar_homogeneous(cfg)
                                       : fjsim::run_homogeneous(cfg);
      const auto tail = tail_percentiles(path, sim.responses);
      const double seconds = watch.elapsed_seconds();
      return RunOutcome{seconds, sim.total_tasks, tail};
    };
    return Workload{std::move(name), "homogeneous", std::move(run)};
  };

  std::vector<Workload> workloads;
  // The acceptance workload: the >= 1.5x batched speedup target is measured
  // on this row.  1M retained requests per run is the top of the paper's
  // regime for stable p99 estimates (Section 5 uses 1e5..1e6 samples per
  // point); at this size the tail-extraction term (full sort pre-change vs
  // multi-percentile selection now) is a visible part of the pipeline.
  workloads.push_back(homogeneous("homog-exp-n32-load90", "Exponential", 32,
                                  0.90, 1, fjsim::Policy::kSingle, 1000000));
  workloads.push_back(homogeneous("homog-weibull-n100-load80", "Weibull", 100,
                                  0.80, 1, fjsim::Policy::kSingle, 20000));
  workloads.push_back(homogeneous("homog-rr-n16-r3-load85", "Exponential", 16,
                                  0.85, 3, fjsim::Policy::kRoundRobin, 30000));

  workloads.push_back(Workload{
      "hetero-mixed-n64", "heterogeneous", [=](Path path) {
        fjsim::HeterogeneousConfig cfg;
        const auto names = dist::named_distributions();
        for (std::size_t n = 0; n < 64; ++n) {
          cfg.services.push_back(dist::make_named(names[n % names.size()]));
        }
        cfg.lambda = fjsim::lambda_for_max_load(cfg.services, 0.85);
        cfg.num_requests = scaled(20000, scale);
        cfg.seed = seed;
        cfg.engine = engine_for(path);
        cfg.max_parallelism = threads_for(path, threads);
        const std::uint64_t tasks =
            (fjsim::warmup_requests(cfg.warmup_fraction, cfg.num_requests) +
             cfg.num_requests) *
            cfg.services.size();
        util::Stopwatch watch;
        auto sim = path == Path::kScalar ? fjsim::scalar_heterogeneous(cfg)
                                         : fjsim::run_heterogeneous(cfg);
        const auto tail = tail_percentiles(path, sim.responses);
        const double seconds = watch.elapsed_seconds();
        return RunOutcome{seconds, tasks, tail};
      }});

  workloads.push_back(Workload{
      "subset-n100-k16-load80", "subset", [=](Path path) {
        fjsim::SubsetConfig cfg;
        cfg.num_nodes = 100;
        cfg.k_fixed = 16;
        cfg.service = dist::make_named("Exponential");
        cfg.load = 0.80;
        cfg.num_requests = scaled(30000, scale);
        cfg.seed = seed;
        cfg.engine = engine_for(path);
        cfg.max_parallelism = threads_for(path, threads);
        // The subset engine has no tiles; batch = 1 makes its demand
        // buffer draw one virtual sample() per task.
        cfg.batch = path == Path::kScalar ? 1 : 0;
        util::Stopwatch watch;
        auto sim = fjsim::run_subset(cfg);
        const auto tail = tail_percentiles(path, sim.responses);
        const double seconds = watch.elapsed_seconds();
        return RunOutcome{seconds, sim.total_tasks, tail};
      }});

  workloads.push_back(Workload{
      "pipeline-3stage-load80", "pipeline", [=](Path path) {
        fjsim::PipelineConfig cfg;
        cfg.stages.push_back({16, dist::make_named("Exponential")});
        cfg.stages.push_back({8, dist::make_named("Erlang-2")});
        cfg.stages.push_back({4, dist::make_named("HyperExp2")});
        cfg.load = 0.80;
        cfg.num_requests = scaled(20000, scale);
        cfg.seed = seed;
        cfg.engine = engine_for(path);
        cfg.max_parallelism = threads_for(path, threads);
        std::uint64_t nodes = 0;
        for (const auto& s : cfg.stages) nodes += s.num_nodes;
        const std::uint64_t tasks =
            (fjsim::warmup_requests(cfg.warmup_fraction, cfg.num_requests) +
             cfg.num_requests) *
            nodes;
        util::Stopwatch watch;
        auto sim = path == Path::kScalar ? fjsim::scalar_pipeline(cfg)
                                         : fjsim::run_pipeline(cfg);
        const auto tail = tail_percentiles(path, sim.responses);
        const double seconds = watch.elapsed_seconds();
        return RunOutcome{seconds, tasks, tail};
      }});
  return workloads;
}

/// The vector family's p99 may sit at most this far (relative) from the
/// legacy engine's; observed gaps are ~2%, so a wider one is a sampler or
/// kernel bug, not sampling noise.
constexpr double kVectorP99Band = 0.15;

/// One report row per (workload, path), gated on median task throughput.
BenchRow& path_row(BenchReport& report, const Workload& w, const char* path,
                   const PathResult& r) {
  BenchRow& row = report.row(w.name + "/" + path);
  row.info.set("seconds_p50", r.seconds_p50);
  row.info.set("tasks_per_sec_p95", r.rate_p95);
  row.metric("tasks_per_sec_p50", r.rate_p50, "tasks/s", Better::kHigher,
             0.10);
  return row;
}

int run(const BenchOptions& options, const std::string& scale_name,
        std::size_t reps, const std::string& out,
        const std::string& metrics_out) {
  const auto workloads = build_workloads(options);

  BenchReport report("bench_replay", scale_name);
  report.shape.set("simd_dispatch", fjsim::vector_dispatch_level());
  report.info.set("seed", options.seed);
  report.info.set("reps", reps);
  report.info.set("threads", options.threads);
  report.info.set("default_batch", fjsim::kDefaultReplayBatch);
  report.info.set("scalar_pipeline",
                  "per-task virtual sample() + sort-based percentiles "
                  "(pre-change)");
  report.info.set("batched_pipeline",
                  "fused/block demand draws + selection-based percentiles");
  report.info.set("vector_pipeline",
                  "SIMD lane engine (lockstep xoshiro blocks, inverse-CDF "
                  "sampling, vectorized Lindley tiles) + selection-based "
                  "percentiles");

  util::Table table({"workload", "tasks/run", "scalar_Mt/s", "batched_Mt/s",
                     "vector_Mt/s", "vec_t2_Mt/s", "vec_speedup",
                     "identical"});
  for (const Workload& w : workloads) {
    PathAccumulator scalar(w, Path::kScalar, reps);
    PathAccumulator batched(w, Path::kBatched, reps);
    PathAccumulator vec(w, Path::kVector, reps);
    PathAccumulator vec_t2(w, Path::kVectorT2, reps);
    // Interleave the reps so slow clock / turbo drift hits every path
    // equally: each speedup is a ratio of medians over the same window.
    for (std::size_t rep = 0; rep < reps; ++rep) {
      scalar.rep();
      batched.rep();
      vec.rep();
      vec_t2.rep();
    }
    // Bitwise cross-checks: the batched pipeline must reproduce the scalar
    // pipeline's tail quantiles exactly (== on the doubles, no tolerance),
    // and the sharded vector run must reproduce the single-thread vector
    // run exactly -- that is the engine's determinism contract.
    const bool identical = scalar.warm().tail == batched.warm().tail;
    const bool vector_identical = vec.warm().tail == vec_t2.warm().tail;
    const double p99_legacy = batched.warm().tail[2];
    const double p99_rel = (vec.warm().tail[2] - p99_legacy) / p99_legacy;
    const PathResult s = scalar.finish();
    const PathResult b = batched.finish();
    const PathResult v = vec.finish();
    const PathResult t2 = vec_t2.finish();

    BenchRow& scalar_row = path_row(report, w, "scalar", s);
    scalar_row.info.set("kind", w.kind);
    scalar_row.info.set("tasks_per_run", s.tasks);
    scalar_row.info.set("p99_response", s.p99);
    BenchRow& batched_row = path_row(report, w, "batched", b);
    batched_row.info.set("speedup_vs_scalar_p50", b.rate_p50 / s.rate_p50);
    batched_row.checks["identical_to_scalar"] = identical;
    BenchRow& vector_row = path_row(report, w, "vector", v);
    vector_row.info.set("speedup_vs_batched_p50", v.rate_p50 / b.rate_p50);
    vector_row.info.set("p99_rel_to_batched", p99_rel);
    vector_row.checks["p99_within_15pct_of_batched"] =
        std::abs(p99_rel) <= kVectorP99Band;
    BenchRow& t2_row = path_row(report, w, "vector_t2", t2);
    t2_row.info.set("speedup_vs_batched_p50", t2.rate_p50 / b.rate_p50);
    t2_row.checks["identical_to_vector"] = vector_identical;

    table.row()
        .str(w.name)
        .integer(static_cast<long long>(s.tasks))
        .num(s.rate_p50 / 1e6, 2)
        .num(b.rate_p50 / 1e6, 2)
        .num(v.rate_p50 / 1e6, 2)
        .num(t2.rate_p50 / 1e6, 2)
        .num(v.rate_p50 / b.rate_p50, 2)
        .str(identical && vector_identical ? "yes" : "NO");
  }
  report.row("process").metric("peak_rss_kib",
                               static_cast<double>(peak_rss_kib()), "KiB",
                               Better::kLower, 0.25);
  emit(table, options);

  if (!metrics_out.empty()) {
    const obs::RunReport telemetry =
        obs::RunReport::capture(obs::Registry::global(), "bench_replay");
    telemetry.write(metrics_out);
    std::printf("wrote %s (run telemetry)\n", metrics_out.c_str());
  }
  return report.finish(out);
}

}  // namespace
}  // namespace forktail::bench

int main(int argc, char** argv) {
  using namespace forktail;
  util::CliFlags flags;
  flags.declare("reps", "5", "timed repetitions per (workload, path)");
  flags.declare("out", "BENCH_replay.json",
                "output JSON path (empty disables the file)");
  flags.declare("metrics-out", "BENCH_replay.metrics.json",
                "run-telemetry report path (.prom for Prometheus text; "
                "empty disables)");
  bench::BenchOptions options;
  if (!bench::parse_options(argc, argv, flags, options)) return 0;
  const auto reps = flags.get_int("reps");
  if (reps < 1) throw std::invalid_argument("--reps must be >= 1");
  if (options.threads == 0) options.threads = 1;

  bench::print_banner("bench_replay",
                      "Batched replay engine: throughput vs the scalar "
                      "reference path",
                      options);
  return bench::run(options, flags.get_string("scale"),
                    static_cast<std::size_t>(reps), flags.get_string("out"),
                    flags.get_string("metrics-out"));
}
