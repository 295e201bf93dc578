// forktail — command-line tail-latency prediction.
//
// The operational surface of the library for people who just have numbers:
// feed measured task moments in, get percentiles out.
//
//   forktail predict  --mean 42 --variance 1764 --k 100 [--p 95,99,99.9]
//   forktail predict  --nodes stats.csv [--p 99]       # CSV: mean,variance
//   forktail mixture  --mean 42 --variance 1764 --k-lo 80 --k-hi 120 [--p 99]
//   forktail pipeline --stage retrieval:4.1:80:64 --stage rank:2.2:9:16
//   forktail budget   --slo-latency 200 --slo-p 99 --k 100 [--scv 1.0]
//   forktail samples  --mean 42 --variance 1764 --k 100 --precision 0.05
//   forktail sweep    --dists Exponential,Weibull --node-counts 10,100
//                     --loads 0.5,0.9 --replicas 3 --threads 4
//   forktail run      examples/homogeneous.json [--predict all] [--p 95,99]
//                     [--scale smoke] [--metrics-out report.json]
//
// All times are in whatever unit the inputs use; the tool is unit-agnostic.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/forktail.hpp"
#include "fjsim/config.hpp"
#include "obs/report.hpp"
#include "scenario/run.hpp"
#include "serve/server.hpp"
#include "sweep.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/text_file.hpp"

namespace {

using namespace forktail;

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

/// The --p list: comma-separated percentiles, each token parsed in full.
std::vector<double> parse_percentiles(const std::string& text) {
  std::vector<double> ps;
  for (const auto& item : split_list(text)) {
    ps.push_back(util::parse_double("p", item));
  }
  if (ps.empty()) throw std::invalid_argument("no percentiles given");
  return ps;
}

std::vector<core::TaskStats> read_node_csv(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::vector<core::TaskStats> nodes;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string mean_s;
    std::string var_s;
    if (!std::getline(ls, mean_s, ',') || !std::getline(ls, var_s, ',')) {
      throw std::runtime_error("malformed line " + std::to_string(line_no) +
                               " in " + path + " (want: mean,variance)");
    }
    nodes.push_back({std::stod(mean_s), std::stod(var_s)});
  }
  if (nodes.empty()) throw std::runtime_error("no node rows in " + path);
  return nodes;
}

int cmd_predict(int argc, const char* const* argv) {
  util::CliFlags flags;
  flags.declare("mean", "0", "measured task response mean");
  flags.declare("variance", "0", "measured task response variance");
  flags.declare("k", "1", "tasks forked per request");
  flags.declare("nodes", "", "CSV of per-node mean,variance (inhomogeneous)");
  flags.declare("p", "99", "comma-separated percentiles");
  if (!flags.parse(argc, argv)) return 0;
  const auto ps = parse_percentiles(flags.get_string("p"));

  if (!flags.get_string("nodes").empty()) {
    const auto nodes = read_node_csv(flags.get_string("nodes"));
    std::printf("inhomogeneous prediction over %zu nodes (Eq. 4)\n",
                nodes.size());
    for (double p : ps) {
      std::printf("  p%-6g %12.4g\n", p,
                  core::inhomogeneous_quantile(nodes, p));
    }
    return 0;
  }
  const core::TaskStats stats{flags.get_double("mean"),
                              flags.get_double("variance")};
  const double k = flags.get_double("k");
  const core::GenExp ge = core::GenExp::fit_moments(stats.mean, stats.variance);
  std::printf("fitted %s for k = %g tasks (Eq. 13)\n", ge.to_string().c_str(), k);
  for (double p : ps) {
    std::printf("  p%-6g %12.4g\n", p, core::homogeneous_quantile(stats, k, p));
  }
  return 0;
}

int cmd_mixture(int argc, const char* const* argv) {
  util::CliFlags flags;
  flags.declare("mean", "0", "measured task response mean");
  flags.declare("variance", "0", "measured task response variance");
  flags.declare("k-lo", "1", "lower bound of the uniform task-count range");
  flags.declare("k-hi", "1", "upper bound of the uniform task-count range");
  flags.declare("p", "99", "comma-separated percentiles");
  if (!flags.parse(argc, argv)) return 0;
  const core::TaskStats stats{flags.get_double("mean"),
                              flags.get_double("variance")};
  const auto mixture = core::TaskCountMixture::uniform_int(
      static_cast<int>(flags.get_int("k-lo")),
      static_cast<int>(flags.get_int("k-hi")));
  std::printf("K ~ U[%lld, %lld], mean fan-out %.1f (Eqs. 8-9)\n",
              static_cast<long long>(flags.get_int("k-lo")),
              static_cast<long long>(flags.get_int("k-hi")),
              mixture.mean_tasks());
  for (double p : parse_percentiles(flags.get_string("p"))) {
    std::printf("  p%-6g %12.4g\n", p,
                core::mixture_quantile(stats, mixture, p));
  }
  return 0;
}

int cmd_pipeline(int argc, const char* const* argv) {
  // --stage takes name:mean:variance:k and may repeat; CliFlags keeps only
  // the last value, so parse stages manually and forward the rest.
  std::vector<core::StageSpec> stages;
  std::vector<const char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--stage" && i + 1 < argc) {
      std::istringstream is(argv[++i]);
      std::string name;
      std::string mean_s;
      std::string var_s;
      std::string k_s;
      if (!std::getline(is, name, ':') || !std::getline(is, mean_s, ':') ||
          !std::getline(is, var_s, ':') || !std::getline(is, k_s, ':')) {
        throw std::invalid_argument(
            "--stage wants name:mean:variance:k, got: " + std::string(argv[i]));
      }
      stages.push_back({name,
                        {util::parse_double("stage", mean_s),
                         util::parse_double("stage", var_s)},
                        util::parse_double("stage", k_s)});
    } else {
      rest.push_back(argv[i]);
    }
  }
  util::CliFlags flags;
  flags.declare("p", "99", "comma-separated percentiles");
  if (!flags.parse(static_cast<int>(rest.size()), rest.data())) return 0;
  if (stages.empty()) {
    throw std::invalid_argument("pipeline: need at least one --stage");
  }
  const core::PipelinePredictor predictor(stages);
  std::printf("%zu-stage workflow: total mean %.4g, stddev %.4g\n",
              predictor.num_stages(), predictor.total_mean(),
              std::sqrt(predictor.total_variance()));
  const auto breakdown = predictor.mean_breakdown();
  for (std::size_t s = 0; s < predictor.num_stages(); ++s) {
    const auto& lat = predictor.stage_latencies()[s];
    std::printf("  stage %-12s mean %10.4g  (%4.1f%% of total)\n",
                lat.name.c_str(), lat.mean, 100.0 * breakdown[s]);
  }
  std::printf("bottleneck stage at p99: %s\n",
              predictor.stage_latencies()[predictor.bottleneck_stage(99.0)]
                  .name.c_str());
  for (double p : parse_percentiles(flags.get_string("p"))) {
    std::printf("  end-to-end p%-6g %12.4g\n", p, predictor.quantile(p));
  }
  return 0;
}

int cmd_budget(int argc, const char* const* argv) {
  util::CliFlags flags;
  flags.declare("slo-latency", "0", "tail-latency bound");
  flags.declare("slo-p", "99", "SLO percentile");
  flags.declare("k", "1", "tasks forked per request");
  flags.declare("scv", "1.0", "assumed task squared CV (1 = exponential)");
  if (!flags.parse(argc, argv)) return 0;
  const core::TailSlo slo{flags.get_double("slo-p"),
                          flags.get_double("slo-latency")};
  const auto budget = core::derive_task_budget(slo, flags.get_double("k"),
                                               flags.get_double("scv"));
  std::printf(
      "task budget for p%g <= %g at k = %g (SCV hint %g):\n"
      "  mean     <= %.6g\n  variance <= %.6g\n"
      "(shape caveat: see docs/model.md section 5 -- prefer the SLO-based\n"
      " search when the measured CV differs from the hint)\n",
      slo.percentile, slo.latency, flags.get_double("k"),
      flags.get_double("scv"), budget.mean, budget.variance);
  return 0;
}

int cmd_samples(int argc, const char* const* argv) {
  util::CliFlags flags;
  flags.declare("mean", "0", "measured task response mean");
  flags.declare("variance", "0", "measured task response variance");
  flags.declare("k", "1", "tasks forked per request");
  flags.declare("p", "99", "target percentile");
  flags.declare("precision", "0.05", "relative 1-sigma precision target");
  if (!flags.parse(argc, argv)) return 0;
  const core::TaskStats stats{flags.get_double("mean"),
                              flags.get_double("variance")};
  const double k = flags.get_double("k");
  const double p = flags.get_double("p");
  const auto n = core::samples_for_precision(stats, k, p,
                                             flags.get_double("precision"));
  const auto u = core::prediction_uncertainty(stats, k, p, n);
  std::printf(
      "samples for %.1f%% precision on p%g at k = %g: %llu\n"
      "(prediction %.6g +- %.2f%% at that window size)\n",
      100.0 * flags.get_double("precision"), p, k,
      static_cast<unsigned long long>(n), u.value, 100.0 * u.stderr_rel);
  return 0;
}

int cmd_sweep(int argc, const char* const* argv) {
  // Simulation-backed error sweep (the Figure 5 black-box pipeline) over a
  // user-chosen (distribution x N x load) grid, parallelized across grid
  // cells; `--threads` changes wall-clock only, never the table.
  util::CliFlags flags;
  flags.declare("dists", "Exponential,Weibull",
                "comma-separated service distributions");
  flags.declare("node-counts", "10,100",
                "comma-separated fork-node counts (k = N)");
  flags.declare("loads", "0.5,0.8", "comma-separated per-server loads in (0,1)");
  flags.declare("replicas", "1", "independent sim replications per cell");
  flags.declare("percentile", "99", "target percentile");
  flags.declare("metrics-out", "forktail_metrics.json",
                "run-telemetry report path (.prom for Prometheus text; "
                "empty disables)");
  bench::BenchOptions options;
  if (!bench::parse_options(argc, argv, flags, options)) return 0;

  bench::SweepSpec spec;
  spec.distributions = split_list(flags.get_string("dists"));
  spec.node_counts.clear();
  for (const auto& n : split_list(flags.get_string("node-counts"))) {
    const std::int64_t nodes = util::parse_int("node-counts", n);
    if (nodes < 1) {
      throw std::invalid_argument("flag --node-counts expects counts >= 1, got: " +
                                  n);
    }
    spec.node_counts.push_back(static_cast<std::size_t>(nodes));
  }
  spec.loads.clear();
  for (const auto& l : split_list(flags.get_string("loads"))) {
    spec.loads.push_back(util::parse_double("loads", l));
  }
  if (spec.distributions.empty() || spec.node_counts.empty() ||
      spec.loads.empty()) {
    throw std::invalid_argument("sweep: empty --dists/--node-counts/--loads");
  }
  spec.replicas = static_cast<int>(flags.get_int("replicas"));
  spec.percentile = flags.get_double("percentile");

  bench::print_banner("sweep",
                      "Black-box k = N error sweep (Eq. 13 predictor)",
                      options);
  bench::run_error_sweep(
      spec,
      [](const dist::Distribution& /*service*/, double /*lambda*/,
         const core::TaskStats& measured, double k, double percentile) {
        return core::homogeneous_quantile(measured, k, percentile);
      },
      options);
  const std::string metrics_out = flags.get_string("metrics-out");
  if (!metrics_out.empty()) {
    obs::RunReport::capture(obs::Registry::global(), "sweep").write(metrics_out);
    std::printf("wrote %s (run telemetry)\n", metrics_out.c_str());
  }
  return 0;
}

int cmd_run(int argc, const char* const* argv) {
  // Execute one declarative scenario file end to end: parse + validate the
  // spec, dispatch it through the simulator registry, measure the requested
  // percentiles, and evaluate the requested predictors on the outcome.
  std::string path;
  std::vector<const char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (path.empty() && arg.rfind("--", 0) != 0) {
      path = arg;
    } else {
      rest.push_back(argv[i]);
    }
  }
  util::CliFlags flags;
  flags.declare("predict", "forktail",
                "comma-separated predictor names; 'all' runs every model "
                "applicable to the scenario, 'none' skips prediction");
  flags.declare("p", "99", "comma-separated percentiles");
  flags.declare("scale", "default",
                "sample-count scale: smoke (0.1x), default, full (5x)");
  flags.declare("threads", "0",
                "worker cap for the node replay (0 = thread-pool width); "
                "results are bit-identical for every value");
  flags.declare("out", "", "scenario-report JSON path (empty disables)");
  flags.declare("metrics-out", "",
                "run-telemetry report path (.prom for Prometheus text; "
                "empty disables)");
  if (!flags.parse(static_cast<int>(rest.size()), rest.data())) return 0;
  if (path.empty()) {
    throw std::invalid_argument(
        "run: need a scenario file (forktail run examples/homogeneous.json)");
  }

  scenario::ScenarioSpec spec = scenario::load_scenario_file(path);
  const double factor =
      util::scale_factor(util::parse_scale(flags.get_string("scale")));
  if (factor != 1.0) spec.requests = bench::scaled(spec.requests, factor);
  if (flags.get_int("threads") > 0) {
    spec.max_parallelism = static_cast<std::size_t>(flags.get_int("threads"));
  }

  std::vector<std::string> predictors;
  const std::string predict = flags.get_string("predict");
  if (predict != "none") {
    predictors = split_list(predict);
    if (predictors.empty()) {
      throw std::invalid_argument(
          "flag --predict names no predictor; pass 'none' to skip prediction");
    }
  }

  const auto report = scenario::run_scenario(
      spec, predictors, parse_percentiles(flags.get_string("p")));
  const auto& outcome = report.outcome;
  std::printf(
      "scenario %s: %s, N = %zu, load %g%%, %llu requests, seed %llu, "
      "%s engine\n",
      spec.name.c_str(), scenario::topology_name(spec.topology).c_str(),
      spec.nodes, spec.load * 100.0,
      static_cast<unsigned long long>(spec.requests),
      static_cast<unsigned long long>(spec.seed),
      fjsim::engine_name(outcome.engine));
  std::printf("  lambda %.6g, mean fan-out %g, %zu measured responses\n",
              outcome.lambda, outcome.mean_k, outcome.responses.size());
  for (std::size_t i = 0; i < report.percentiles.size(); ++i) {
    std::printf("  p%-6g measured %12.4g ms", report.percentiles[i],
                report.measured_ms[i]);
    const baselines::Bracket& b = report.brackets[i];
    if (b.certified) std::printf("  certified [%.4g, %.4g]", b.lower, b.upper);
    std::printf("\n");
  }
  for (const auto& row : report.predictions) {
    for (std::size_t i = 0; i < report.percentiles.size(); ++i) {
      std::printf("  p%-6g %-13s %12.4g ms  (error %+.1f%%)%s\n",
                  report.percentiles[i], row.predictor.c_str(),
                  row.predicted_ms[i], row.error_pct[i],
                  row.in_bracket[i] ? "" : "  ** outside certified bracket **");
    }
  }

  const std::string out = flags.get_string("out");
  if (!out.empty()) {
    util::write_text_file(out, scenario::to_json(report).dump() + "\n");
    std::printf("wrote %s (scenario report)\n", out.c_str());
  }
  const std::string metrics_out = flags.get_string("metrics-out");
  if (!metrics_out.empty()) {
    obs::RunReport::capture(obs::Registry::global(), "run", spec.name,
                            report.degraded)
        .write(metrics_out);
    std::printf("wrote %s (run telemetry)\n", metrics_out.c_str());
  }
  return 0;
}

/// SIGTERM/SIGINT request a clean drain (async-signal-safe flag only; the
/// serve main loop polls it).
volatile std::sig_atomic_t g_serve_signal = 0;

extern "C" void serve_signal_handler(int signum) {
  g_serve_signal = signum;
}

int cmd_serve(int argc, const char* const* argv) {
  // Long-running prediction daemon: UDP sample ingest (forktail.wire.v1),
  // TCP query protocol + Prometheus scrape, clean drain on SIGTERM/SIGINT
  // with a final RunReport.  See docs/serve.md.
  std::string path;
  std::vector<const char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (path.empty() && arg.rfind("--", 0) != 0) {
      path = arg;
    } else {
      rest.push_back(argv[i]);
    }
  }
  util::CliFlags flags;
  flags.declare("port-file", "",
                "write the bound \"<udp> <tcp>\" ports here once listening "
                "(for ephemeral-port harnesses; empty disables)");
  flags.declare("max-seconds", "0",
                "exit cleanly after this many seconds (0 = run until "
                "SIGTERM/SIGINT)");
  flags.declare("metrics-out", "",
                "final RunReport path written on shutdown (.prom for "
                "Prometheus text; empty disables)");
  flags.declare("drain-throttle-us", "0",
                "test knob: microseconds the shard worker sleeps per "
                "drained batch (simulates a slow consumer to exercise "
                "shedding; 0 disables)");
  if (!flags.parse(static_cast<int>(rest.size()), rest.data())) return 0;
  if (path.empty()) {
    throw std::invalid_argument(
        "serve: need a scenario file (forktail serve examples/serve.json)");
  }

  const scenario::ScenarioSpec spec = scenario::load_scenario_file(path);
  scenario::validate(spec);

  serve::ServeConfig config;
  config.udp_port = static_cast<std::uint16_t>(spec.serve.udp_port);
  config.tcp_port = static_cast<std::uint16_t>(spec.serve.tcp_port);
  config.service = static_cast<std::uint16_t>(spec.serve.service);
  config.nodes = spec.nodes;
  config.shards = spec.serve.shards;
  config.window_seconds = spec.serve.window_seconds;
  config.min_samples = spec.serve.min_samples;
  config.skew_tolerance = spec.serve.skew_tolerance;
  config.ring_capacity = spec.serve.ring_capacity;
  config.liveness_timeout = spec.serve.liveness_timeout;
  config.sweep_interval = spec.serve.sweep_interval;
  config.stall_threshold = spec.serve.stall_threshold;
  config.scenario_name = spec.name;
  const auto throttle = flags.get_int("drain-throttle-us");
  if (throttle < 0) {
    throw std::invalid_argument("--drain-throttle-us must be >= 0");
  }
  config.drain_throttle_us = static_cast<std::uint32_t>(throttle);
  const double max_seconds = flags.get_double("max-seconds");
  if (max_seconds < 0.0) {
    throw std::invalid_argument("--max-seconds must be >= 0");
  }

  serve::Server server(config);
  server.start();
  std::printf(
      "forktail serve: scenario %s, %zu nodes, %zu shards, window %g s\n"
      "  ingest  udp://0.0.0.0:%u (forktail.wire.v1)\n"
      "  queries tcp://0.0.0.0:%u (length-prefixed JSON; HTTP GET = scrape)\n",
      spec.name.c_str(), config.nodes, config.shards, config.window_seconds,
      server.udp_port(), server.tcp_port());
  std::fflush(stdout);

  const std::string port_file = flags.get_string("port-file");
  if (!port_file.empty()) {
    std::ofstream os(port_file);
    if (!os) {
      server.stop();
      throw std::runtime_error("serve: cannot write " + port_file);
    }
    os << server.udp_port() << " " << server.tcp_port() << "\n";
  }

  g_serve_signal = 0;
  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGINT, serve_signal_handler);

  const auto started = std::chrono::steady_clock::now();
  while (g_serve_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (max_seconds > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
                .count() >= max_seconds) {
      break;
    }
  }
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);

  // Clean drain: stop the reader, flush the rings, then report.
  server.stop();
  const char* why = g_serve_signal == SIGTERM   ? "SIGTERM"
                    : g_serve_signal == SIGINT  ? "SIGINT"
                                                : "--max-seconds";
  std::printf(
      "forktail serve: %s -> clean drain (%llu samples ingested, "
      "%llu batches shed%s)\n",
      why, static_cast<unsigned long long>(server.samples_ingested()),
      static_cast<unsigned long long>(server.batches_shed()),
      server.any_degraded() ? ", served degraded predictions" : "");

  const std::string metrics_out = flags.get_string("metrics-out");
  if (!metrics_out.empty()) {
    obs::RunReport::capture(obs::Registry::global(), "forktail serve",
                            spec.name, server.any_degraded())
        .write(metrics_out);
    std::printf("wrote %s (final run report)\n", metrics_out.c_str());
  }
  return 0;
}

void usage() {
  std::fputs(
      "usage: forktail <command> [flags]\n"
      "commands:\n"
      "  predict   homogeneous (--mean/--variance/--k) or per-node CSV\n"
      "            (--nodes) tail prediction\n"
      "  mixture   random fan-out K ~ U[k-lo, k-hi]\n"
      "  pipeline  multi-stage workflow (--stage name:mean:var:k, repeat)\n"
      "  budget    SLO -> per-task performance budget (Section 6)\n"
      "  samples   measurement window size for a precision target\n"
      "  sweep     simulation-backed error sweep over a (dist, N, load)\n"
      "            grid; --threads parallelizes cells deterministically\n"
      "  run       execute a declarative scenario JSON (examples/*.json):\n"
      "            simulate, measure percentiles, evaluate --predict models\n"
      "  serve     always-on prediction daemon for a scenario: UDP sample\n"
      "            ingest (forktail.wire.v1), TCP queries + Prometheus\n"
      "            scrape; clean drain on SIGTERM with a final RunReport\n"
      "run `forktail <command> --help` for the command's flags\n",
      stderr);
}

}  // namespace

// Exit codes (pinned by tests/cli/run_cli_errors.cmake):
//   0  success
//   1  usage error    -- bad command line (missing command, unknown command
//                        or predictor, malformed flag values)
//   2  config error   -- unreadable / malformed / invalid scenario or JSON
//                        input (fjsim::ConfigError, util::JsonParseError)
//   3  runtime error  -- everything else (I/O failures, simulation errors)
// Every failure path prints exactly one diagnostic line to stderr.
int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string command = argv[1];
  try {
    if (command == "predict") return cmd_predict(argc - 1, argv + 1);
    if (command == "mixture") return cmd_mixture(argc - 1, argv + 1);
    if (command == "pipeline") return cmd_pipeline(argc - 1, argv + 1);
    if (command == "budget") return cmd_budget(argc - 1, argv + 1);
    if (command == "samples") return cmd_samples(argc - 1, argv + 1);
    if (command == "sweep") return cmd_sweep(argc - 1, argv + 1);
    if (command == "run") return cmd_run(argc - 1, argv + 1);
    if (command == "serve") return cmd_serve(argc - 1, argv + 1);
    std::fprintf(stderr, "forktail: unknown command: %s\n", command.c_str());
    return 1;
  } catch (const fjsim::ConfigError& e) {
    std::fprintf(stderr, "forktail: config error: %s\n", e.what());
    return 2;
  } catch (const util::JsonParseError& e) {
    std::fprintf(stderr, "forktail: config error: %s\n", e.what());
    return 2;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "forktail: usage error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "forktail: runtime error: %s\n", e.what());
    return 3;
  }
}
