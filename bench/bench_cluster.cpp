// Cluster-scale event-engine benchmark: the calendar-queue engine
// (sim/engine.hpp, typed POD events) against the frozen binary-heap +
// std::function engine (tests/support/heap_engine.hpp) it replaced.
//
//   bench_cluster [--scale smoke|default|full] [--seed N] [--reps N]
//                 [--csv true] [--min-speedup X] [--out BENCH_cluster.json]
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
//     baseline = 1 stats shard + per-request response vector, candidate =
//     16 shards + histogram-only.  The speedup is expected near 1x; the row
//     exists for the bit-identity flag (sharding must not change a single
//     output bit) and the bounded-memory mode's throughput.
//   * engine-cancel-heavy  -- engine microbenchmark, ~50% hedging-style
//     cancels: rounds of schedule-cancellable / cancel-half / drain.  The
//     calendar engine compacts tombstones (compactions > 0); the heap
//     engine carries them to pop.
//
// Every row asserts bit-identity between its two paths at runtime (exit 1
// on divergence) and across repetitions; --min-speedup fails the run when
// the acceptance row comes in under the bar (0 disables, the default --
// CI smoke runs are too noisy/small to gate on a ratio).
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

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
///    handlers, O(total_requests) driver state; for the closed loop: one
///    stats shard + full response vector).
///  * kCandidate -- the calendar-queue engine with typed POD events (for
///    the closed loop: 16 stats shards + histogram-only responses).
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

long peak_rss_kib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return usage.ru_maxrss / 1024;  // bytes on macOS
#else
    return usage.ru_maxrss;  // KiB on Linux
#endif
  }
#endif
  return -1;
}

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

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
      cfg.stats_shards = path == Path::kBaseline ? 1 : 16;
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
                         res.node_tasks.pooled.mean(),
                         res.node_tasks.pooled.variance(),
                         static_cast<double>(res.node_tasks.samples)};
      return out;
    };
    workloads.push_back(Workload{"closed-loop-n1000-k16",
                                 "closed_loop",
                                 "requests",
                                 "1 stats shard + response vector",
                                 "16 stats shards + histogram only",
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

struct WorkloadResult {
  const Workload* workload = nullptr;
  PathResult baseline;
  PathResult candidate;
  bool identical = false;  ///< baseline == candidate fingerprint (bitwise)
  double speedup() const { return candidate.rate_p50 / baseline.rate_p50; }
};

void write_json(const std::string& path, const BenchOptions& options,
                const std::string& scale_name, std::size_t reps,
                std::uint64_t compactions,
                const std::vector<WorkloadResult>& results) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("bench_cluster: cannot write " + path);
  os << "{\n";
  os << "  \"benchmark\": \"bench_cluster\",\n";
  os << "  \"scale\": \"" << scale_name << "\",\n";
  os << "  \"seed\": " << options.seed << ",\n";
  os << "  \"reps\": " << reps << ",\n";
  os << "  \"baseline_engine\": \"binary heap + std::function handlers "
        "(tests/support/heap_engine.hpp, pre-change driver)\",\n";
  os << "  \"candidate_engine\": \"two-level calendar queue + typed POD "
        "events (sim/engine.hpp)\",\n";
  os << "  \"cancel_heavy_compactions\": " << compactions << ",\n";
  os << "  \"peak_rss_kib\": " << peak_rss_kib() << ",\n";
  os << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    const auto path_json = [&](const char* label, const PathResult& p) {
      os << "      \"" << label << "\": {\n";
      os << "        \"seconds_p50\": " << json_num(p.seconds_p50) << ",\n";
      os << "        \"events_per_sec_p50\": " << json_num(p.rate_p50)
         << ",\n";
      os << "        \"events_per_sec_p95\": " << json_num(p.rate_p95)
         << "\n";
      os << "      }";
    };
    os << "    {\n";
    os << "      \"name\": \"" << r.workload->name << "\",\n";
    os << "      \"kind\": \"" << r.workload->kind << "\",\n";
    os << "      \"unit\": \"" << r.workload->unit << "\",\n";
    os << "      \"acceptance\": "
       << (r.workload->acceptance ? "true" : "false") << ",\n";
    os << "      \"nodes\": " << r.workload->nodes << ",\n";
    os << "      \"requests\": " << r.workload->requests << ",\n";
    os << "      \"events_per_run\": " << r.candidate.count << ",\n";
    os << "      \"baseline_label\": \"" << r.workload->baseline_label
       << "\",\n";
    os << "      \"candidate_label\": \"" << r.workload->candidate_label
       << "\",\n";
    os << "      \"identical\": " << (r.identical ? "true" : "false")
       << ",\n";
    path_json("baseline", r.baseline);
    os << ",\n";
    path_json("candidate", r.candidate);
    os << ",\n";
    os << "      \"speedup_p50\": " << json_num(r.speedup()) << "\n";
    os << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

}  // namespace
}  // namespace forktail::bench

int main(int argc, char** argv) {
  using namespace forktail;
  util::CliFlags flags;
  flags.declare("reps", "3", "timed repetitions per (workload, path)");
  flags.declare("min-speedup", "0",
                "fail unless the acceptance row speedup is >= this "
                "(0 disables)");
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
  const double min_speedup = flags.get_double("min-speedup");
  const std::string out = flags.get_string("out");
  const std::string metrics_out = flags.get_string("metrics-out");

  bench::print_banner("bench_cluster",
                      "Calendar-queue event engine vs the binary-heap "
                      "baseline at cluster scale",
                      options);

  std::uint64_t compactions = 0;
  const auto workloads = bench::build_workloads(options, &compactions);

  std::vector<bench::WorkloadResult> results;
  results.reserve(workloads.size());
  bool all_identical = true;
  for (const bench::Workload& w : workloads) {
    bench::WorkloadResult r;
    r.workload = &w;
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
    r.identical = baseline.warm().fingerprint == candidate.warm().fingerprint;
    r.baseline = baseline.finish();
    r.candidate = candidate.finish();
    all_identical = all_identical && r.identical;
    results.push_back(r);
  }

  util::Table table({"workload", "unit", "count/run", "base_Mev/s",
                     "cand_Mev/s", "speedup", "identical"});
  for (const bench::WorkloadResult& r : results) {
    table.row()
        .str(r.workload->name)
        .str(r.workload->unit)
        .integer(static_cast<long long>(r.candidate.count))
        .num(r.baseline.rate_p50 / 1e6, 2)
        .num(r.candidate.rate_p50 / 1e6, 2)
        .num(r.speedup(), 2)
        .str(r.identical ? "yes" : "NO");
  }
  bench::emit(table, options);

  if (!out.empty()) {
    bench::write_json(out, options, flags.get_string("scale"), reps,
                      compactions, results);
    std::printf("wrote %s (peak RSS %ld KiB, %llu compactions in the "
                "cancel-heavy probe)\n",
                out.c_str(), bench::peak_rss_kib(),
                static_cast<unsigned long long>(compactions));
  }
  if (!metrics_out.empty()) {
    const obs::RunReport report =
        obs::RunReport::capture(obs::Registry::global(), "bench_cluster");
    report.write(metrics_out);
    std::printf("wrote %s (run telemetry%s)\n", metrics_out.c_str(),
                obs::enabled() ? "" : ", observability compiled out");
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "bench_cluster: a workload diverged between the heap and "
                 "calendar paths -- determinism regression\n");
    return 1;
  }
  if (min_speedup > 0.0) {
    for (const bench::WorkloadResult& r : results) {
      if (r.workload->acceptance && r.speedup() < min_speedup) {
        std::fprintf(stderr,
                     "bench_cluster: acceptance row %s speedup %.2fx is "
                     "under the %.2fx bar\n",
                     r.workload->name.c_str(), r.speedup(), min_speedup);
        return 1;
      }
    }
  }
  return 0;
}
