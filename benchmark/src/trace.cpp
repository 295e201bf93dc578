// ftbench_trace: the benchmark's traced run.  Spans are recorded here, in
// the benchmark's own code, around each call into a layer of the tree
// under test; nothing inside the library is instrumented.
//
// Two planes; the serve plane is also replayed untraced, and the median
// traced-minus-untraced difference of three pairs is the tracing overhead:
//
//   serve  a prefix of a serve workload's datagram stream replayed
//          single-threaded through wire decode -> IngestShard submit /
//          drain / sweep, with that workload's queries answered by shard
//          snapshot -> homogeneous_quantile between datagrams, the way
//          Server::predict does; then Server::predict and a TCP round
//          trip on an in-process daemon holding the same samples.
//   run    `forktail run --predict all --threads 1` re-done call by call
//          (parse, simulate, percentile, bracket, predict, report) for
//          each scenario file; the report JSON is written out so run.py
//          can compare it with the CLI's.
//
// The replay mirrors today's Server::predict and `forktail run`.  Whether
// it still does is reported as a note, never a failed check: a correct
// change to either (a per-node fit, a new report field) makes the replica
// stale without making the program wrong.
//
// usage: ftbench_trace --serve-config FILE --workload NAME --seed N
//          --scenarios A.json,B.json,... --report-dir DIR --spans-out FILE
//          --out FILE
// NAME is a benchmark workload; it fixes the serve stream replayed.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "client.hpp"
#include "core/predictor.hpp"
#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "serve/ingest.hpp"
#include "serve/server.hpp"
#include "stats/percentile.hpp"
#include "stats/summary.hpp"
#include "util/json.hpp"
#include "workload.hpp"

namespace {

using namespace ftbench;
using forktail::util::Json;
namespace serve = forktail::serve;
namespace scenario = forktail::scenario;

// ------------------------------------------------------------------ spans

enum Layer : std::uint32_t {
  kDecode, kReject, kSubmit, kDrain, kSweep,
  kQuery, kJsonParse, kSnapshot, kFit, kJsonDump, kServerPredict, kRtt,
  kScenario, kParse, kSimulate, kPercentile, kBracket, kPredict, kReport,
  kLayers
};
constexpr const char* kLayerNames[kLayers] = {
    "wire.decode", "wire.reject", "ingest.submit", "ingest.drain", "ingest.sweep",
    "query", "query.json_parse", "query.snapshot", "query.fit", "query.json_dump",
    "query.server_predict", "query.rtt",
    "run.scenario", "run.parse", "run.simulate", "run.percentile", "run.bracket",
    "run.predict", "run.report"};
constexpr std::uint32_t kNoParent = ~0u;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::uint32_t layer;
  std::uint32_t parent;
  std::uint32_t request;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

/// In-memory span recorder; written out once at exit.  Disabled, a scope
/// costs one branch and reads no clock.
class Tracer {
 public:
  bool enabled = false;
  std::vector<Span> spans;

  class Scope {
   public:
    Scope(Tracer& t, Layer layer, std::uint32_t request) : t_(t) {
      if (!t_.enabled) return;
      index_ = static_cast<std::uint32_t>(t_.spans.size());
      const std::uint32_t parent = t_.open_.empty() ? kNoParent : t_.open_.back();
      t_.spans.push_back({layer, parent, request, now_ns(), 0});
      t_.open_.push_back(index_);
    }
    ~Scope() {
      if (!t_.enabled) return;
      t_.spans[index_].end_ns = now_ns();
      t_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::uint32_t index_ = 0;
  };

 private:
  std::vector<std::uint32_t> open_;
};

struct LayerStats {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::vector<double> durations_ns;
};

std::vector<LayerStats> aggregate(const std::vector<Span>& spans) {
  std::vector<LayerStats> stats(kLayers);
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent != kNoParent) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    LayerStats& l = stats[s.layer];
    ++l.count;
    l.total_ns += d;
    l.self_ns += d - child_ns[i];
    l.durations_ns.push_back(d);
  }
  return stats;
}

// ---------------------------------------------------------------- options

struct Options {
  std::string serve_config;
  std::string workload;  ///< the benchmark workload traced
  Workload serve_workload = Workload::kQueryHetero;  ///< the stream replayed
  double serve_prefix = 0.0;  ///< seconds of it replayed
  std::uint64_t seed = 1;
  std::vector<std::string> scenarios;
  std::string report_dir;
  std::string spans_out;
  std::string out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "ftbench_trace: %s (see the usage comment in trace.cpp)\n",
               why.c_str());
  std::exit(2);
}

/// Each serve workload replays a prefix of its own stream; run-suite
/// replays a short query-hetero stream, so every per-layer metric is
/// measured on every workload.
bool set_serve_stream(Options& opt) {
  if (opt.workload == "run-suite") {
    opt.serve_workload = Workload::kQueryHetero;
    opt.serve_prefix = 1.5;
    return true;
  }
  if (!parse_workload(opt.workload, opt.serve_workload)) return false;
  opt.serve_prefix = opt.serve_workload == Workload::kQueryHetero ? 3.0 : 4.0;
  return true;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--serve-config") {
        opt.serve_config = value;
      } else if (flag == "--workload") {
        opt.workload = value;
        if (!set_serve_stream(opt)) usage("unknown workload " + value);
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--scenarios") {
        std::istringstream is(value);
        for (std::string item; std::getline(is, item, ',');) {
          if (!item.empty()) opt.scenarios.push_back(item);
        }
      } else if (flag == "--report-dir") {
        opt.report_dir = value;
      } else if (flag == "--spans-out") {
        opt.spans_out = value;
      } else if (flag == "--out") {
        opt.out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (opt.serve_config.empty() || opt.workload.empty() || opt.scenarios.empty() ||
      opt.report_dir.empty() || opt.out.empty()) {
    usage("need --serve-config, --workload, --scenarios, --report-dir, --out");
  }
  return opt;
}

serve::ServeConfig serve_config(const std::string& path) {
  const scenario::ScenarioSpec spec = scenario::load_scenario_file(path);
  serve::ServeConfig c;
  c.service = static_cast<std::uint16_t>(spec.serve.service);
  c.nodes = spec.nodes;
  c.shards = spec.serve.shards;
  c.window_seconds = spec.serve.window_seconds;
  c.min_samples = spec.serve.min_samples;
  c.skew_tolerance = spec.serve.skew_tolerance;
  c.ring_capacity = spec.serve.ring_capacity;
  c.liveness_timeout = spec.serve.liveness_timeout;
  c.sweep_interval = spec.serve.sweep_interval;
  c.stall_threshold = spec.serve.stall_threshold;
  c.scenario_name = spec.name;
  return c;
}

// ------------------------------------------------------------ serve plane

struct ServeOutcome {
  double wall_ns = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::uint64_t samples_drained = 0;
  double window_samples = 0.0;
  double last_quantile_ms = 0.0;
  double last_k = 0.0;
};

/// The daemon's ingest layout (contiguous node ranges per shard) driven
/// single-threaded, with Server::predict's query path between datagrams.
class Replay {
 public:
  Replay(const serve::ServeConfig& config, const Options& opt)
      : config_(config),
        opt_(opt),
        warmup_s_(plan_for(opt.serve_workload, opt.serve_prefix).warmup_seconds),
        node_shard_(config.nodes),
        node_local_(config.nodes) {
    const std::size_t base = config.nodes / config.shards;
    const std::size_t rem = config.nodes % config.shards;
    for (std::size_t s = 0, next = 0; s < config.shards; ++s) {
      serve::ShardConfig sc;
      sc.local_nodes = base + (s < rem ? 1 : 0);
      sc.window_seconds = config.window_seconds;
      sc.min_samples = config.min_samples;
      sc.skew_tolerance = config.skew_tolerance;
      sc.ring_capacity = config.ring_capacity;
      shards_.push_back(std::make_unique<serve::IngestShard>(sc));
      for (std::uint32_t l = 0; l < sc.local_nodes; ++l, ++next) {
        node_shard_[next] = static_cast<std::uint32_t>(s);
        node_local_[next] = l;
      }
    }
  }

  ServeOutcome out;

  /// Replay the first serve_prefix seconds of the workload's stream with
  /// its queries (open loop between datagrams, or 2000 back to back after
  /// the stream for the closed-loop workload), then the malformed pass.
  void run(Tracer& tr) {
    Stream stream(opt_.serve_workload, opt_.seed, opt_.serve_prefix);
    const Plan plan = plan_for(opt_.serve_workload, opt_.serve_prefix);
    const std::uint64_t start = now_ns();
    const double interval = static_cast<double>(kBatch) / plan.base_rate;
    const double drain_every = 1e-3;  // the worker drains continuously under load
    double next_drain = drain_every, next_sweep = 0.0, next_query = 0.0;
    serve::WireBatch batch;
    for (std::uint64_t j = 0;; ++j) {
      const double due = static_cast<double>(j) * interval;
      if (due >= opt_.serve_prefix) break;
      while (plan.query_interval_s > 0.0 && next_query <= due) {
        query(next_query, tr);
        next_query += plan.query_interval_s;
      }
      if (due >= next_drain) {
        drain(due, tr);
        next_drain += drain_every;
      }
      if (due >= next_sweep) {
        Tracer::Scope span(tr, kSweep, 0);
        for (auto& shard : shards_) shard->sweep(due, config_.liveness_timeout);
        next_sweep += config_.sweep_interval;
      }
      Stream::Datagram d;
      if (!stream.make(j, due, d)) continue;
      serve::WireError err;
      {
        Tracer::Scope span(tr, d.corruption != Corruption::kNone && wire_level(d.corruption)
                                   ? kReject : kDecode, 0);
        err = serve::decode(d.data, d.len, batch);
      }
      if (err != serve::WireError::kNone || batch.service != config_.service ||
          batch.node >= config_.nodes) {
        continue;
      }
      Tracer::Scope span(tr, kSubmit, 0);
      shards_[node_shard_[batch.node]]->submit(node_local_[batch.node], batch);
    }
    drain(opt_.serve_prefix, tr);
    for (const auto& shard : shards_) samples_seen_ += shard->samples_ingested();
    out.samples_drained = samples_seen_;
    if (plan.query_interval_s <= 0.0) {
      for (int i = 0; i < 2000; ++i) query(opt_.serve_prefix, tr);
    }

    // Decode cost of malformed input: corrupted copies of the stream's
    // first datagrams, cycling through the six reasons decode() detects.
    Stream again(opt_.serve_workload, opt_.seed, opt_.serve_prefix);
    std::vector<std::uint8_t> copy(serve::kMaxDatagramBytes);
    for (std::uint64_t j = 0, n = 0; n < 6000; ++j) {
      Stream::Datagram d;
      if (!again.make(j, 0.0, d) || d.corruption != Corruption::kNone) continue;
      std::copy(d.data, d.data + d.len, copy.begin());
      const auto kind = static_cast<Corruption>(1 + n++ % 6);
      const std::size_t len = corrupt(copy.data(), d.len, kind);
      Tracer::Scope span(tr, kReject, 0);
      serve::decode(copy.data(), len, batch);
    }
    out.wall_ns = static_cast<double>(now_ns() - start);
    for (const auto& shard : shards_) {
      out.window_samples += shard->snapshot(opt_.serve_prefix).pooled.count;
    }
  }

  /// One predict request: JSON parse, shard snapshot + merge, GE fit,
  /// JSON reply -- the work of the daemon's query op.
  void query(double now, Tracer& tr) {
    const auto id = static_cast<std::uint32_t>(out.queries++);
    Tracer::Scope q(tr, kQuery, id);
    double p;
    {
      Tracer::Scope span(tr, kJsonParse, id);
      const Json req = Json::parse(R"({"op":"predict","p":99})");
      p = req.at("p").as_number();
    }
    double count = 0.0, mean = 0.0, m2 = 0.0;
    std::size_t filled = 0, seen = 0, live = 0, stale = 0;
    double staleness = 0.0;
    {
      // What Server::predict does before the fit: snapshot every shard and
      // merge the pooled moments with the combine law.
      Tracer::Scope span(tr, kSnapshot, id);
      for (const auto& shard : shards_) {
        const auto snap = shard->snapshot(now);
        filled += snap.pooled.filled_nodes;
        seen += snap.seen_nodes;
        live += snap.live_nodes;
        stale += snap.stale_nodes;
        staleness = std::max(staleness, snap.staleness_ms);
        if (snap.pooled.count > 0.0) {
          count += snap.pooled.count;
          mean += snap.pooled.count * snap.pooled.mean;
          m2 += snap.pooled.count *
                (snap.pooled.variance + snap.pooled.mean * snap.pooled.mean);
        }
      }
      if (count > 0.0) {
        mean /= count;
        m2 = std::max(0.0, m2 / count - mean * mean);
      }
    }
    const double k = static_cast<double>(live > 0 ? live : filled);
    double quantile = 0.0;
    const bool served = filled > 0 && m2 > 0.0;
    if (served) {
      Tracer::Scope span(tr, kFit, id);
      quantile = forktail::core::homogeneous_quantile({mean, m2}, k, p);
    } else if (now >= warmup_s_) {
      ++out.failed;
    }
    {
      Tracer::Scope span(tr, kJsonDump, id);
      Json j = Json::object();
      j.set("served", served);
      if (served) j.set("quantile_ms", quantile);
      j.set("p", p);
      j.set("k", k);
      j.set("staleness_ms", staleness);
      j.set("degraded", stale > 0 || filled < seen);
      Json reasons = Json::array();
      if (filled < seen) reasons.push_back("underfilled_windows");
      if (stale > 0) reasons.push_back("stale_agents");
      j.set("reasons", std::move(reasons));
      j.set("filled_nodes", static_cast<std::uint64_t>(filled));
      j.set("seen_nodes", static_cast<std::uint64_t>(seen));
      j.set("live_nodes", static_cast<std::uint64_t>(live));
      j.set("stale_nodes", static_cast<std::uint64_t>(stale));
      j.set("ingested_samples", samples_seen_);
      if (j.dump(0).empty()) ++out.failed;
    }
    out.last_quantile_ms = quantile;
    out.last_k = k;
  }

 private:
  void drain(double now, Tracer& tr) {
    Tracer::Scope span(tr, kDrain, 0);
    for (auto& shard : shards_) shard->drain(now);
  }

  const serve::ServeConfig& config_;
  const Options& opt_;
  double warmup_s_;  ///< queries before this are not judged (windows filling)
  std::vector<std::unique_ptr<serve::IngestShard>> shards_;
  std::vector<std::uint32_t> node_shard_, node_local_;
  std::uint64_t samples_seen_ = 0;
};

struct ServerOutcome {
  double served_ms = 0.0;
  double share_pct = 0.0;  ///< (snapshot + fit) / Server::predict, interleaved
};

/// Server::predict and a TCP round trip on an in-process daemon holding
/// the last 0.2 s of the same stream (every node filled, as in the replay).
/// Each Server::predict alternates with one replayed query on `replay`'s
/// shards, so the two are timed under the same machine conditions.
ServerOutcome server_pass(const Options& opt, const serve::ServeConfig& config, Tracer& tr,
                          Replay& replay) {
  serve::ServeConfig c = config;
  c.udp_port = 0;
  c.tcp_port = 0;
  serve::Server server(c);
  server.start();

  Stream stream(opt.serve_workload, opt.seed, opt.serve_prefix);
  const Plan plan = plan_for(opt.serve_workload, opt.serve_prefix);
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.udp_port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const double interval = static_cast<double>(kBatch) / plan.base_rate;
  const double from = opt.serve_prefix - 0.2;
  std::uint64_t sent = 0;
  const double t0 = mono_s();
  for (std::uint64_t j = 0;; ++j) {
    const double due = static_cast<double>(j) * interval;
    if (due >= opt.serve_prefix) break;
    Stream::Datagram d;
    if (!stream.make(j, due, d) || due < from || d.corruption != Corruption::kNone) continue;
    // Pace at 100k datagrams/s, well inside the reader's rate, so none drop.
    sleep_until(t0 + static_cast<double>(sent++) * 1e-5);
    ::sendto(fd, d.data, d.len, 0, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  }
  ::close(fd);
  for (int i = 0; i < 100 && server.samples_ingested() < sent * kBatch; ++i) {
    sleep_until(mono_s() + 0.01);
  }

  ServerOutcome out;
  Tracer side;
  side.enabled = true;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    {
      Tracer::Scope span(tr, kServerPredict, i);
      out.served_ms = server.predict(kQueryP, replay.out.last_k).quantile_ms;
    }
    replay.query(opt.serve_prefix, side);
  }
  const std::vector<LayerStats> side_stats = aggregate(side.spans);
  std::vector<double> predict_ns;
  for (const Span& s : tr.spans) {
    if (s.layer == kServerPredict) predict_ns.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  std::vector<double> snapshot = side_stats[kSnapshot].durations_ns;
  std::vector<double> fit = side_stats[kFit].durations_ns;
  out.share_pct = 100.0 * (percentile(snapshot, 50.0) + percentile(fit, 50.0)) /
                  percentile(predict_ns, 50.0);

  Client client;
  client.connect_to(server.tcp_port());
  std::string reply;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    Tracer::Scope span(tr, kRtt, i);
    client.call(R"({"op":"predict","p":99})", reply);
  }
  server.stop();
  return out;
}

// -------------------------------------------------------------- run plane

struct RunOutcome {
  double wall_ns = 0.0;
  double total_tasks = 0.0;
  std::uint64_t scenarios = 0;
};

RunOutcome run_plane(const Options& opt, Tracer& tr) {
  RunOutcome out;
  const std::uint64_t start = now_ns();
  const std::vector<double> percentiles = {99.0};
  for (const std::string& path : opt.scenarios) {
    const auto id = static_cast<std::uint32_t>(out.scenarios++);
    Tracer::Scope top(tr, kScenario, id);
    scenario::ScenarioSpec spec;
    {
      Tracer::Scope span(tr, kParse, id);
      spec = scenario::load_scenario_file(path);
      spec.max_parallelism = 1;
    }
    scenario::ScenarioReport report;
    {
      Tracer::Scope span(tr, kSimulate, id);
      report.outcome = scenario::SimulatorRegistry::global().run(spec);
    }
    report.percentiles = percentiles;
    {
      Tracer::Scope span(tr, kPercentile, id);
      report.measured_ms =
          forktail::stats::percentiles(report.outcome.responses, percentiles);
    }
    {
      Tracer::Scope span(tr, kBracket, id);
      for (const double p : percentiles) {
        report.brackets.push_back(scenario::certified_bracket(report.outcome, p));
      }
    }
    {
      Tracer::Scope span(tr, kPredict, id);
      for (const scenario::Predictor* predictor :
           scenario::PredictorRegistry::global().applicable(report.outcome)) {
        scenario::PredictionRow row;
        row.predictor = predictor->name();
        for (std::size_t i = 0; i < percentiles.size(); ++i) {
          const double predicted = predictor->predict(report.outcome, percentiles[i]);
          row.predicted_ms.push_back(predicted);
          row.error_pct.push_back(
              forktail::stats::relative_error_pct(predicted, report.measured_ms[i]));
          const auto& bracket = report.brackets[i];
          row.in_bracket.push_back(!bracket.certified || bracket.contains(predicted));
        }
        report.predictions.push_back(std::move(row));
      }
      if (report.outcome.faulty) {
        const auto dp = scenario::predict_degraded(report.outcome, percentiles.back());
        report.degraded = dp.degraded;
        report.degraded_reasons = dp.reasons;
      }
    }
    std::string text;
    {
      Tracer::Scope span(tr, kReport, id);
      text = scenario::to_json(report).dump() + "\n";
    }
    out.total_tasks += static_cast<double>(report.outcome.total_tasks);
    const std::string name = std::filesystem::path(path).stem().string();
    std::ofstream(opt.report_dir + "/" + name + ".json") << text;
  }
  out.wall_ns = static_cast<double>(now_ns() - start);
  return out;
}

// ---------------------------------------------------------------- report

std::string table(const std::vector<LayerStats>& stats, double serve_ns, double run_ns) {
  std::ostringstream os;
  char line[200];
  std::snprintf(line, sizeof line, "%-22s %9s %11s %11s %11s %8s\n", "layer", "count",
                "self ms", "p50 us", "p99 us", "share");
  os << line;
  for (std::uint32_t i = 0; i < kLayers; ++i) {
    LayerStats l = stats[i];
    if (l.count == 0) continue;
    const double p50 = percentile(l.durations_ns, 50.0) * 1e-3;
    const double p99 = percentile(l.durations_ns, 99.0) * 1e-3;
    std::snprintf(line, sizeof line, "%-22s %9llu %11.3f %11.3f %11.3f ", kLayerNames[i],
                  static_cast<unsigned long long>(l.count), l.self_ns * 1e-6, p50, p99);
    os << line;
    // Share of the plane's in-process time; the server pass runs outside
    // the replay, so its layers have none.
    if (i == kServerPredict || i == kRtt) {
      os << "       -\n";
    } else {
      const double e2e = i >= kScenario ? run_ns : serve_ns;
      std::snprintf(line, sizeof line, "%7.2f%%\n", 100.0 * l.self_ns / e2e);
      os << line;
    }
  }
  return os.str();
}

int run(const Options& opt) {
  const serve::ServeConfig config = serve_config(opt.serve_config);
  Json metrics = Json::object();
  Json checks = Json::array();  // a failed one fails the run
  Json notes = Json::array();   // whether the replica still mirrors the tree
  const auto add = [](Json& list, const std::string& name, bool ok, const std::string& detail) {
    Json c = Json::object();
    c.set("name", name);
    c.set("ok", ok);
    c.set("detail", detail);
    list.push_back(std::move(c));
  };

  // An untimed warm-up replay first (the first pass pays page faults later
  // ones do not), then three alternating untraced / traced replays; the
  // tracing overhead is the median of the three differences.  The last
  // traced replay records into `tr` and is kept for the server pass.
  Tracer off;
  {
    Replay warm(config, opt);
    warm.run(off);
  }
  Tracer tr;
  tr.enabled = true;
  std::unique_ptr<Replay> replay;
  std::vector<double> overhead;
  double serve_off_ns = 0.0;
  for (int pair = 0; pair < 3; ++pair) {
    {
      Replay untraced(config, opt);
      untraced.run(off);
      serve_off_ns = untraced.out.wall_ns;
    }
    Tracer scratch;
    scratch.enabled = true;
    replay = std::make_unique<Replay>(config, opt);
    replay->run(pair == 2 ? tr : scratch);
    overhead.push_back(100.0 * (replay->out.wall_ns - serve_off_ns) / serve_off_ns);
  }
  const ServeOutcome serve_on = replay->out;
  const RunOutcome run_on = run_plane(opt, tr);
  const ServerOutcome server = server_pass(opt, config, tr, *replay);

  // Per-call costs are medians, so one preempted call does not move them;
  // plane totals are sums.
  const std::vector<LayerStats> stats = aggregate(tr.spans);
  const auto median_ns = [&](Layer l) {
    std::vector<double> d = stats[l].durations_ns;
    return percentile(d, 50.0);
  };

  metrics.set("wire.decode_ns", median_ns(kDecode));
  metrics.set("wire.reject_ns", median_ns(kReject));
  metrics.set("ingest.submit_ns", median_ns(kSubmit));
  metrics.set("ingest.drain_ns_per_sample",
              stats[kDrain].total_ns / static_cast<double>(serve_on.samples_drained));
  metrics.set("ingest.sweep_us", median_ns(kSweep) * 1e-3);
  metrics.set("ingest.window_samples", serve_on.window_samples);
  const double json_us = (median_ns(kJsonParse) + median_ns(kJsonDump)) * 1e-3;
  const double snapshot_us = median_ns(kSnapshot) * 1e-3;
  const double fit_us = median_ns(kFit) * 1e-3;
  const double server_us = median_ns(kServerPredict) * 1e-3;
  metrics.set("query.json_us", json_us);
  metrics.set("query.snapshot_us", snapshot_us);
  metrics.set("query.fit_us", fit_us);
  metrics.set("query.server_predict_us", server_us);
  metrics.set("query.transport_us", median_ns(kRtt) * 1e-3 - server_us);
  const double query_share = server.share_pct;
  metrics.set("query.plane_share_pct", query_share);

  const double ms = 1e-6;
  metrics.set("run.parse_ms", stats[kParse].total_ns * ms);
  metrics.set("run.simulate_ms", stats[kSimulate].total_ns * ms);
  metrics.set("run.sim_ns_per_task", stats[kSimulate].total_ns / run_on.total_tasks);
  metrics.set("run.percentile_ms", stats[kPercentile].total_ns * ms);
  metrics.set("run.bracket_ms", stats[kBracket].total_ns * ms);
  metrics.set("run.predict_ms", stats[kPredict].total_ns * ms);
  metrics.set("run.report_ms", stats[kReport].total_ns * ms);
  metrics.set("run.in_process_ms", stats[kScenario].total_ns * ms);
  const double run_share = 100.0 * (stats[kScenario].total_ns - stats[kScenario].self_ns) /
                           stats[kScenario].total_ns;
  metrics.set("run.layers_share_pct", run_share);
  const double trace_overhead = percentile(overhead, 50.0);
  metrics.set("trace.overhead_pct", trace_overhead);
  metrics.set("trace.spans", static_cast<double>(tr.spans.size()));

  char detail[200];
  // On a homogeneous fleet every correct algorithm (pooled fit or per-node
  // product) gives the same answer; on query-hetero's fleet they differ by
  // design, so the answers are compared only here.
  if (opt.serve_workload != Workload::kQueryHetero) {
    std::snprintf(detail, sizeof detail,
                  "in-process Server::predict %.4f ms vs replayed shards %.4f ms (k = %.0f)",
                  server.served_ms, serve_on.last_quantile_ms, serve_on.last_k);
    add(checks, "replay_matches_server",
        std::abs(server.served_ms - serve_on.last_quantile_ms) <=
            0.03 * serve_on.last_quantile_ms,
        detail);
  }
  if (opt.workload == "query-hetero") {
    std::snprintf(detail, sizeof detail,
                  "snapshot + fit = %.1f%% of Server::predict (%.3f us), timed interleaved",
                  query_share, server_us);
    add(notes, "query_plane_share", query_share >= 90.0, detail);
  }
  if (opt.workload == "run-suite") {
    std::snprintf(detail, sizeof detail, "scenario layers cover %.2f%% of in-process time",
                  run_share);
    add(checks, "run_layers_share", run_share >= 90.0, detail);
  }

  std::string text = table(stats, serve_on.wall_ns, stats[kScenario].total_ns);
  char tail[300];
  std::snprintf(tail, sizeof tail,
                "serve replay %.1f ms in-process (%llu queries); scenario pass %.1f ms; "
                "tracing overhead %+.2f%% of the serve replay (median of 3 pairs, "
                "%zu spans)\n",
                serve_on.wall_ns * ms, static_cast<unsigned long long>(serve_on.queries),
                run_on.wall_ns * ms, trace_overhead, tr.spans.size());
  text += tail;

  if (!opt.spans_out.empty()) {
    std::ofstream spans(opt.spans_out);
    spans << "id,parent,request,name,start_ns,end_ns\n";
    for (std::size_t i = 0; i < tr.spans.size(); ++i) {
      const Span& s = tr.spans[i];
      spans << i << ',' << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
            << ',' << s.request << ',' << kLayerNames[s.layer] << ',' << s.start_ns << ','
            << s.end_ns << '\n';
    }
  }

  Json doc = Json::object();
  bool ok = true;
  for (const Json& c : checks.items()) ok = ok && c.at("ok").as_bool();
  doc.set("correct", ok);
  doc.set("attempted", serve_on.queries + run_on.scenarios);
  doc.set("failed", serve_on.failed);
  doc.set("metrics", std::move(metrics));
  doc.set("checks", std::move(checks));
  doc.set("notes", std::move(notes));
  doc.set("table", text);
  std::ofstream(opt.out) << doc.dump(2) << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftbench_trace: %s\n", e.what());
    return 3;
  }
}
