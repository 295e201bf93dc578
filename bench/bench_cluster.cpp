// Cluster-scale event-engine benchmark: the calendar-queue engine
// (sim/engine.hpp, typed POD events) against the frozen binary-heap +
// std::function engine (tests/support/heap_engine.hpp) it replaced.
//
//   bench_cluster [--scale smoke|default|full] [--seed N] [--reps N]
//                 [--csv true] [--out BENCH_cluster.json]
//                 [--metrics-out BENCH_cluster.metrics.json]
//
// Rows (see docs/performance.md, part 3):
//   * fj-n1000-k16-load70  -- the ACCEPTANCE row: 1000 fork nodes, fixed
//     k = 16, nominal load 0.70, 10M measured requests at --scale full.
//     The tracked BENCH_cluster.json must show >= 3x events/sec p50 over
//     the heap engine here.  record_responses = false keeps memory bounded
//     by in-flight concurrency, not the request count.
//   * fj-n100-all-load70   -- all-nodes fork-join (k = N) on the same pair.
//   * closed-loop-n1000-k16 -- the SLO admission loop at cluster scale;
//     baseline = per-request response vector (record_responses = true),
//     candidate = histogram only (record_responses = false).  The speedup
//     is expected near 1x; the row exists for the bit-identity flag (the
//     bounded-memory mode must not change a single other output bit) and
//     that mode's throughput.
//   * engine-cancel-heavy  -- engine microbenchmark, ~50% hedging-style
//     cancels: rounds of schedule-cancellable / cancel-half / drain.  The
//     calendar engine compacts tombstones (compactions > 0); the heap
//     engine carries them to pop.
//
// The report (bench/common.hpp's forktail.bench.v1 envelope) has one row
// per (workload, path) with the median event rate as its gated metric.
// Every candidate row checks bit-identity with its baseline path
// (`identical_to_baseline`); at --scale full the acceptance row also
// checks the >= 3x speedup bar (`speedup_at_least_3x` -- smaller runs are
// too short to gate on a ratio).  A false check exits 1, and a run that is
// not deterministic across repetitions throws.
#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "dist/factory.hpp"
#include "obs/report.hpp"
#include "sched/closed_loop.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "stats/percentile.hpp"
#include "support/fj_baseline.hpp"
#include "support/heap_engine.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace forktail::bench {
namespace {

/// Which implementation a run exercises:
///  * kBaseline  -- the pre-change path (binary-heap engine, std::function
///    handlers, O(total_requests) driver state; for the closed loop: the
///    full per-request response vector).
///  * kCandidate -- the calendar-queue engine with typed POD events (for
///    the closed loop: histogram-only responses).
enum class Path { kBaseline, kCandidate };

/// One timed run: wall seconds, the throughput numerator, and a bitwise
/// fingerprint both paths (and every repetition) must reproduce exactly.
struct RunOutcome {
  double seconds = 0.0;
  std::uint64_t count = 0;  ///< events (or requests) per run
  std::vector<double> fingerprint;
};

struct Workload {
  std::string name;
  std::string kind;
  std::string unit;  ///< what `count` counts: "events" or "requests"
  std::string baseline_label;
  std::string candidate_label;
  bool acceptance = false;
  std::size_t nodes = 0;
  std::uint64_t requests = 0;
  std::function<RunOutcome(Path path)> run;
};

/// Timing summary of one (workload, path): per-rep event throughput.
struct PathResult {
  std::uint64_t count = 0;
  double rate_p50 = 0.0;  ///< count/sec, median of reps
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
    if (o.fingerprint != warm_.fingerprint) {
      throw std::logic_error("bench_cluster: " + workload_->name +
                             " is not deterministic across repetitions");
    }
    rates_.push_back(static_cast<double>(o.count) / o.seconds);
    seconds_.push_back(o.seconds);
  }

  const RunOutcome& warm() const { return warm_; }

  PathResult finish() {
    PathResult out;
    out.count = warm_.count;
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

/// Schedule one cancellable no-op event through each engine's own API: a
/// typed event on the calendar engine (whose bound dispatcher ignores it),
/// an empty closure on the heap engine.
std::uint64_t schedule_noop(sim::Engine& engine, double time) {
  return engine.schedule_cancellable_event(time, sim::EventKind::kTimer,
                                           sim::EventPayload{});
}
std::uint64_t schedule_noop(sim::HeapEngine& engine, double time) {
  return engine.schedule_cancellable(time, [] {});
}
void bind_noop(sim::Engine& engine) {
  engine.bind(nullptr, [](void*, sim::Engine&, const sim::Event&) {});
}
void bind_noop(sim::HeapEngine&) {}

/// ~50%-cancel engine microbenchmark, generic over the two engine types
/// (identical schedule/cancel sequence => identical firing order).  Each
/// round schedules `batch` cancellable no-op events at deterministic
/// uniform offsets, cancels every other one before draining, then runs the
/// engine dry.  Returns {final now, fired, cancelled} as the fingerprint.
template <typename EngineT>
RunOutcome run_cancel_heavy(std::uint64_t seed, std::size_t batch,
                            std::size_t rounds) {
  util::Rng rng(seed);
  EngineT engine;
  bind_noop(engine);
  std::vector<typename EngineT::EventId> ids;
  ids.reserve(batch);
  util::Stopwatch watch;
  for (std::size_t r = 0; r < rounds; ++r) {
    ids.clear();
    const double base = engine.now();
    for (std::size_t i = 0; i < batch; ++i) {
      ids.push_back(schedule_noop(engine, base + 100.0 * rng.uniform()));
    }
    for (std::size_t i = 0; i < batch; i += 2) engine.cancel(ids[i]);
    engine.run();
  }
  RunOutcome out;
  out.seconds = watch.elapsed_seconds();
  out.count = engine.events_processed();
  out.fingerprint = {engine.now(),
                     static_cast<double>(engine.events_processed()),
                     static_cast<double>(engine.events_cancelled())};
  return out;
}

std::vector<Workload> build_workloads(const BenchOptions& options,
                                      std::uint64_t* compactions_out) {
  const double scale = options.scale;
  const std::uint64_t seed = options.seed;

  const auto forkjoin = [=](std::string name, std::size_t nodes,
                            sim::TaskCountMode k_mode, int k_fixed,
                            double load, std::uint64_t base_reqs,
                            bool acceptance) {
    const std::uint64_t requests = scaled(base_reqs, scale);
    auto run = [=](Path path) {
      sim::FjConfig cfg;
      cfg.num_nodes = nodes;
      cfg.service = dist::make_named("Exponential");
      cfg.k_mode = k_mode;
      cfg.k_fixed = k_fixed;
      cfg.num_requests = requests;
      cfg.seed = seed;
      // Memory must stay bounded by in-flight concurrency at 10M requests:
      // neither path keeps the per-request response vector.
      cfg.record_responses = false;
      cfg.lambda = sim::lambda_for_nominal_load(cfg, load);
      util::Stopwatch watch;
      const sim::FjResult res = path == Path::kBaseline
                                    ? sim::run_fj_simulation_baseline(cfg)
                                    : sim::run_fj_simulation(cfg);
      RunOutcome out;
      out.seconds = watch.elapsed_seconds();
      out.count = res.events_processed;
      out.fingerprint = {res.pooled_task_stats.mean(),
                         res.pooled_task_stats.variance(),
                         static_cast<double>(res.pooled_task_stats.count()),
                         res.sim_end_time,
                         static_cast<double>(res.total_tasks),
                         static_cast<double>(res.events_processed)};
      return out;
    };
    Workload w{std::move(name),
               "forkjoin",
               "events",
               "heap engine + std::function driver",
               "calendar engine + typed events",
               acceptance,
               nodes,
               requests,
               std::move(run)};
    return w;
  };

  std::vector<Workload> workloads;
  // The acceptance workload (ISSUE 7): 1000 nodes, fixed k = 16, load 0.70.
  // 2M measured requests at default scale; --scale full (x5) is the 10M-
  // request configuration the tracked baseline is generated at.
  workloads.push_back(forkjoin("fj-n1000-k16-load70", 1000,
                               sim::TaskCountMode::kFixed, 16, 0.70,
                               2'000'000, /*acceptance=*/true));
  workloads.push_back(forkjoin("fj-n100-all-load70", 100,
                               sim::TaskCountMode::kAllNodes, 0, 0.70,
                               40'000, /*acceptance=*/false));

  {
    const std::uint64_t requests = scaled(2'000'000, scale);
    auto run = [=](Path path) {
      sched::ClosedLoopConfig cfg;
      cfg.num_nodes = 1000;
      cfg.service = dist::make_named("Exponential");
      cfg.tasks_per_request = 16;
      // Nominal per-node load 0.60 at k/N task fan-out; a loose SLO keeps
      // stage-2 admission (the expensive best-k search) off the common path.
      cfg.lambda = 0.60 * 1000.0 / 16.0;
      cfg.slo = {99.0, 25.0};
      cfg.num_requests = requests;
      cfg.seed = seed;
      cfg.record_responses = path == Path::kBaseline;
      util::Stopwatch watch;
      const sched::ClosedLoopResult res = sched::run_closed_loop(cfg);
      RunOutcome out;
      out.seconds = watch.elapsed_seconds();
      out.count = res.offered;
      out.fingerprint = {static_cast<double>(res.admitted),
                         static_cast<double>(res.rejected),
                         static_cast<double>(res.violations),
                         res.violation_rate,
                         res.mean_predicted_latency,
                         res.response_histogram.percentile(99.0),
                         res.pooled_task_stats.mean(),
                         res.pooled_task_stats.variance(),
                         static_cast<double>(res.pooled_task_stats.count())};
      return out;
    };
    workloads.push_back(Workload{"closed-loop-n1000-k16",
                                 "closed_loop",
                                 "requests",
                                 "response vector + histogram",
                                 "histogram only",
                                 /*acceptance=*/false,
                                 1000,
                                 requests,
                                 std::move(run)});
  }

  {
    const std::size_t batch = 131072;
    const std::size_t rounds =
        static_cast<std::size_t>(scaled(16, scale, /*floor=*/2));
    auto run = [=](Path path) {
      return path == Path::kBaseline
                 ? run_cancel_heavy<sim::HeapEngine>(seed, batch, rounds)
                 : run_cancel_heavy<sim::Engine>(seed, batch, rounds);
    };
    workloads.push_back(Workload{"engine-cancel-heavy",
                                 "engine",
                                 "events",
                                 "heap engine, tombstones carried to pop",
                                 "calendar engine, ~50% dead compaction",
                                 /*acceptance=*/false,
                                 0,
                                 static_cast<std::uint64_t>(batch) * rounds,
                                 std::move(run)});
    // Record that compaction actually ran (structural claim in the JSON).
    sim::Engine engine;
    bind_noop(engine);
    util::Rng rng(seed);
    std::vector<sim::Engine::EventId> ids;
    for (std::size_t i = 0; i < batch; ++i) {
      ids.push_back(schedule_noop(engine, 100.0 * rng.uniform()));
    }
    for (std::size_t i = 0; i < batch; i += 2) engine.cancel(ids[i]);
    engine.run();
    *compactions_out = engine.compactions();
  }
  return workloads;
}

/// The acceptance row's events/sec p50 must beat the heap engine by this
/// factor at --scale full (1000 nodes / 10M requests).
constexpr double kAcceptanceSpeedup = 3.0;

/// One report row per (workload, path), gated on the median event rate.
BenchRow& path_row(BenchReport& report, const Workload& w, const char* path,
                   const std::string& label, const PathResult& r) {
  BenchRow& row = report.row(w.name + "/" + path);
  row.info.set("label", label);
  row.info.set("seconds_p50", r.seconds_p50);
  row.info.set("events_per_sec_p95", r.rate_p95);
  row.metric("events_per_sec_p50", r.rate_p50, w.unit + "/s",
             Better::kHigher, 0.10);
  return row;
}

}  // namespace
}  // namespace forktail::bench

int main(int argc, char** argv) {
  using namespace forktail;
  util::CliFlags flags;
  flags.declare("reps", "3", "timed repetitions per (workload, path)");
  flags.declare("out", "BENCH_cluster.json",
                "output JSON path (empty disables the file)");
  flags.declare("metrics-out", "BENCH_cluster.metrics.json",
                "run-telemetry report path (.prom for Prometheus text; "
                "empty disables)");
  bench::BenchOptions options;
  if (!bench::parse_options(argc, argv, flags, options)) return 0;
  const auto reps_flag = flags.get_int("reps");
  if (reps_flag < 1) throw std::invalid_argument("--reps must be >= 1");
  const auto reps = static_cast<std::size_t>(reps_flag);
  const std::string scale = flags.get_string("scale");
  const std::string metrics_out = flags.get_string("metrics-out");

  bench::print_banner("bench_cluster",
                      "Calendar-queue event engine vs the binary-heap "
                      "baseline at cluster scale",
                      options);

  std::uint64_t compactions = 0;
  const auto workloads = bench::build_workloads(options, &compactions);

  bench::BenchReport report("bench_cluster", scale);
  report.info.set("seed", options.seed);
  report.info.set("reps", reps);
  report.info.set("baseline_engine",
                  "binary heap + std::function handlers "
                  "(tests/support/heap_engine.hpp, pre-change driver)");
  report.info.set("candidate_engine",
                  "two-level calendar queue + typed POD events "
                  "(sim/engine.hpp)");
  report.info.set("cancel_heavy_compactions", compactions);

  util::Table table({"workload", "unit", "count/run", "base_Mev/s",
                     "cand_Mev/s", "speedup", "identical"});
  for (const bench::Workload& w : workloads) {
    bench::PathAccumulator baseline(w, bench::Path::kBaseline, reps);
    bench::PathAccumulator candidate(w, bench::Path::kCandidate, reps);
    // Interleave the reps so clock / turbo drift hits both paths equally:
    // each speedup is a ratio of medians over the same window.
    for (std::size_t rep = 0; rep < reps; ++rep) {
      baseline.rep();
      candidate.rep();
    }
    // Bitwise cross-check: the calendar engine must reproduce the heap
    // engine's outputs exactly (== on the doubles, no tolerance) -- the
    // determinism contract of the rewrite.
    const bool identical =
        baseline.warm().fingerprint == candidate.warm().fingerprint;
    const bench::PathResult b = baseline.finish();
    const bench::PathResult c = candidate.finish();
    const double speedup = c.rate_p50 / b.rate_p50;

    bench::BenchRow& base_row =
        bench::path_row(report, w, "baseline", w.baseline_label, b);
    base_row.info.set("kind", w.kind);
    base_row.info.set("acceptance", w.acceptance);
    base_row.info.set("nodes", w.nodes);
    base_row.info.set("requests", w.requests);
    base_row.info.set("events_per_run", c.count);
    bench::BenchRow& cand_row =
        bench::path_row(report, w, "candidate", w.candidate_label, c);
    cand_row.info.set("speedup_p50", speedup);
    cand_row.checks["identical_to_baseline"] = identical;
    if (w.acceptance && scale == "full") {
      cand_row.checks["speedup_at_least_3x"] =
          speedup >= bench::kAcceptanceSpeedup;
    }

    table.row()
        .str(w.name)
        .str(w.unit)
        .integer(static_cast<long long>(c.count))
        .num(b.rate_p50 / 1e6, 2)
        .num(c.rate_p50 / 1e6, 2)
        .num(speedup, 2)
        .str(identical ? "yes" : "NO");
  }
  report.row("process").metric("peak_rss_kib",
                               static_cast<double>(bench::peak_rss_kib()),
                               "KiB", bench::Better::kLower, 0.25);
  bench::emit(table, options);

  if (!metrics_out.empty()) {
    const obs::RunReport telemetry =
        obs::RunReport::capture(obs::Registry::global(), "bench_cluster");
    telemetry.write(metrics_out);
    std::printf("wrote %s (run telemetry)\n", metrics_out.c_str());
  }
  return report.finish(flags.get_string("out"));
}
