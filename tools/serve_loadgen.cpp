// serve_loadgen: UDP load generator + query probe for the serve daemon.
//
// Three jobs, one binary:
//
//   1. Load: simulate a fleet of agents (>= 1000) blasting forktail.wire.v1
//      datagrams at the daemon's UDP ingest port over loopback, each agent
//      on its own monotone clock, samples drawn from an exponential
//      service.  A --malformed-fraction knob corrupts that fraction of
//      datagrams, cycling through every rejection reason the wire and
//      ingest layers know, so the daemon's typed-rejection counters can be
//      exercised (and gated) from outside the process.
//   2. Measure: a query client polls the TCP predict op during the run and
//      collects the served staleness_ms distribution; at the end it pulls
//      the daemon's RunReport (report op), folds the serve.* counters into
//      a JSON report (--out), and checks it: load was sent and ingested,
//      predictions were served with a staleness distribution, a nonzero
//      malformed fraction moved the typed rejection counters, the daemon
//      reported its RSS, and it never ingested more than was sent.  A
//      failed check exits 1.
//   3. Probe (--probe): one predict query, response JSON on stdout.  The
//      soak harness uses this to assert the daemon still serves -- with
//      stated degradation reasons -- after its agents were kill -9'd.
//
// With --spawn the daemon runs in-process on ephemeral ports (still over
// real loopback sockets), so one command produces a self-contained run;
// with --udp-port/--tcp-port it targets an external `forktail serve`
// daemon.  One sender thread drives an exponential(5) service 0 from seed
// 1, and the query client asks for p99 every 50 ms.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using forktail::serve::WireBatch;
using forktail::util::Json;

constexpr double kQueryIntervalMs = 50.0;
constexpr double kPercentile = 99.0;
constexpr std::uint16_t kService = 0;
constexpr std::uint64_t kSeed = 1;

struct Options {
  std::uint16_t udp_port = 0;
  std::uint16_t tcp_port = 0;
  bool spawn = false;        ///< run the daemon in-process (ephemeral ports)
  std::size_t agents = 1000;
  std::size_t batch = 64;    ///< samples per datagram (<= wire cap)
  double seconds = 2.0;
  double malformed_fraction = 0.0;
  std::string out;
  bool probe = false;
};

[[noreturn]] void usage_error(const std::string& why) {
  std::cerr << "serve_loadgen: " << why << "\n"
            << "usage: forktail_serve_loadgen (--spawn | --udp-port P --tcp-port P)\n"
            << "         [--agents N] [--batch M] [--seconds S]\n"
            << "         [--malformed-fraction F] [--out report.json]\n"
            << "       forktail_serve_loadgen --probe --tcp-port P\n";
  std::exit(1);
}

double parse_double(const std::string& flag, const std::string& value) {
  try {
    return std::stod(value);
  } catch (const std::exception&) {
    usage_error("bad value for " + flag + ": " + value);
  }
}

std::uint64_t parse_u64(const std::string& flag, const std::string& value) {
  try {
    return std::stoull(value);
  } catch (const std::exception&) {
    usage_error("bad value for " + flag + ": " + value);
  }
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--udp-port") {
      opt.udp_port = static_cast<std::uint16_t>(parse_u64(arg, value()));
    } else if (arg == "--tcp-port") {
      opt.tcp_port = static_cast<std::uint16_t>(parse_u64(arg, value()));
    } else if (arg == "--spawn") {
      opt.spawn = true;
    } else if (arg == "--agents") {
      opt.agents = parse_u64(arg, value());
    } else if (arg == "--batch") {
      opt.batch = parse_u64(arg, value());
    } else if (arg == "--seconds") {
      opt.seconds = parse_double(arg, value());
    } else if (arg == "--malformed-fraction") {
      opt.malformed_fraction = parse_double(arg, value());
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--probe") {
      opt.probe = true;
    } else {
      usage_error("unknown flag " + arg);
    }
  }
  if (opt.probe) {
    if (opt.tcp_port == 0 && !opt.spawn) usage_error("--probe needs --tcp-port");
    return opt;
  }
  if (!opt.spawn && (opt.udp_port == 0 || opt.tcp_port == 0)) {
    usage_error("need --spawn or both --udp-port and --tcp-port");
  }
  if (opt.agents == 0) usage_error("--agents must be >= 1");
  if (opt.batch == 0 || opt.batch > forktail::serve::kMaxSamplesPerDatagram) {
    usage_error("--batch must be in [1, 256]");
  }
  if (opt.seconds <= 0.0) usage_error("--seconds must be > 0");
  if (opt.malformed_fraction < 0.0 || opt.malformed_fraction > 1.0) {
    usage_error("--malformed-fraction must be in [0, 1]");
  }
  return opt;
}

// ------------------------------------------------------------- TCP client

/// Minimal blocking client for the daemon's length-prefixed JSON protocol.
/// All syscalls retry on EINTR; send/recv handle partial transfers.
class QueryClient {
 public:
  ~QueryClient() { close_fd(); }

  bool connect_to(std::uint16_t port) {
    close_fd();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    int rc;
    do {
      rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    } while (rc < 0 && errno == EINTR);
    // Each query is one small frame that waits for its reply: with Nagle
    // on, it would sit out the peer's delayed ACK (~40 ms) first.
    const int one = 1;
    if (rc < 0 ||
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
      close_fd();
      return false;
    }
    return true;
  }

  bool connected() const { return fd_ >= 0; }

  /// One request/response round trip; empty string on transport failure
  /// (the connection is dropped so the next call reconnects).
  std::string call(std::uint16_t port, const std::string& body) {
    if (fd_ < 0 && !connect_to(port)) return {};
    if (!send_frame(body)) {
      close_fd();
      return {};
    }
    std::string reply;
    if (!recv_frame(reply)) {
      close_fd();
      return {};
    }
    return reply;
  }

 private:
  void close_fd() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool send_all(const std::uint8_t* data, std::size_t len) {
    std::size_t sent = 0;
    while (sent < len) {
      const ssize_t n = ::send(fd_, data + sent, len - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool recv_exact(std::uint8_t* data, std::size_t len) {
    std::size_t got = 0;
    while (got < len) {
      const ssize_t n = ::recv(fd_, data + got, len - got, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) return false;  // peer closed mid-frame
      got += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Header and body go out in one buffer, so one send() carries the
  /// whole frame.
  bool send_frame(const std::string& body) {
    const std::uint32_t len = static_cast<std::uint32_t>(body.size());
    std::vector<std::uint8_t> frame(4 + body.size());
    frame[0] = static_cast<std::uint8_t>(len >> 24);
    frame[1] = static_cast<std::uint8_t>(len >> 16);
    frame[2] = static_cast<std::uint8_t>(len >> 8);
    frame[3] = static_cast<std::uint8_t>(len);
    std::memcpy(frame.data() + 4, body.data(), body.size());
    return send_all(frame.data(), frame.size());
  }

  bool recv_frame(std::string& body) {
    std::uint8_t header[4];
    if (!recv_exact(header, 4)) return false;
    const std::uint32_t len = (static_cast<std::uint32_t>(header[0]) << 24) |
                              (static_cast<std::uint32_t>(header[1]) << 16) |
                              (static_cast<std::uint32_t>(header[2]) << 8) |
                              static_cast<std::uint32_t>(header[3]);
    if (len > (1u << 20)) return false;  // daemon frames are small
    body.resize(len);
    return len == 0 ||
           recv_exact(reinterpret_cast<std::uint8_t*>(body.data()), len);
  }

  int fd_ = -1;
};

// ------------------------------------------------------------ UDP senders

/// Kinds of deliberate corruption, cycled through in order so every typed
/// rejection counter moves whenever malformed_fraction > 0.  The first six
/// are wire-layer rejections; the last three are ingest-layer ones
/// (unknown node / unknown service / stale timestamp).
enum class Corruption : std::uint8_t {
  kTruncate,
  kBadMagic,
  kBadVersion,
  kBadCount,
  kChecksum,
  kNanSample,
  kUnknownNode,
  kUnknownService,
  kStaleTimestamp,
};
constexpr std::size_t kCorruptionKinds = 9;

struct SenderStats {
  std::uint64_t datagrams = 0;       ///< well-formed datagrams sent
  std::uint64_t samples = 0;         ///< samples inside well-formed datagrams
  std::uint64_t malformed = 0;       ///< corrupted datagrams sent
  std::uint64_t send_errors = 0;     ///< sendto() failures (not EINTR)
};

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Re-checksum a mutated datagram so only the intended field is wrong.
void refresh_checksum(std::vector<std::uint8_t>& dgram) {
  const std::size_t body = dgram.size() - forktail::serve::kWireChecksumBytes;
  const std::uint32_t sum = forktail::serve::wire_checksum(dgram.data(), body);
  std::memcpy(dgram.data() + body, &sum, sizeof(sum));
}

void corrupt(std::vector<std::uint8_t>& dgram, Corruption kind,
             std::size_t fleet_nodes, std::uint16_t service) {
  switch (kind) {
    case Corruption::kTruncate:
      dgram.resize(dgram.size() - 7);
      break;
    case Corruption::kBadMagic:
      dgram[0] ^= 0xFF;
      refresh_checksum(dgram);
      break;
    case Corruption::kBadVersion:
      dgram[4] = 0x7F;
      refresh_checksum(dgram);
      break;
    case Corruption::kBadCount: {
      dgram[20] = 0;
      dgram[21] = 0;
      refresh_checksum(dgram);
      break;
    }
    case Corruption::kChecksum:
      dgram.back() ^= 0xFF;
      break;
    case Corruption::kNanSample: {
      const double nan = std::nan("");
      std::memcpy(dgram.data() + forktail::serve::kWireHeaderBytes, &nan,
                  sizeof(nan));
      refresh_checksum(dgram);
      break;
    }
    case Corruption::kUnknownNode: {
      const std::uint32_t node = static_cast<std::uint32_t>(fleet_nodes) + 7;
      std::memcpy(dgram.data() + 8, &node, sizeof(node));
      refresh_checksum(dgram);
      break;
    }
    case Corruption::kUnknownService: {
      const std::uint16_t bad = static_cast<std::uint16_t>(service + 1);
      std::memcpy(dgram.data() + 6, &bad, sizeof(bad));
      refresh_checksum(dgram);
      break;
    }
    case Corruption::kStaleTimestamp: {
      const std::uint64_t ancient = 1;
      std::memcpy(dgram.data() + 12, &ancient, sizeof(ancient));
      refresh_checksum(dgram);
      break;
    }
  }
}

void sender_loop(const Options& opt, std::uint16_t udp_port,
                 std::atomic<bool>& stop, SenderStats& stats) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    stats.send_errors += 1;
    return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(udp_port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  forktail::util::Rng rng = forktail::util::Rng(kSeed).split(1);
  WireBatch batch;
  batch.service = kService;
  batch.count = static_cast<std::uint16_t>(opt.batch);
  std::vector<std::uint8_t> dgram;
  // Round-robin over the fleet so every agent's window keeps filling and
  // its liveness stays fresh.
  std::size_t agent = 0;
  std::uint64_t corruption_cycle = 0;

  while (!stop.load(std::memory_order_acquire)) {
    batch.node = static_cast<std::uint32_t>(agent);
    if (++agent >= opt.agents) agent = 0;
    batch.timestamp_ns = steady_now_ns();
    for (std::size_t i = 0; i < opt.batch; ++i) {
      batch.samples[i] = 5.0 * -std::log(rng.uniform_pos());
    }
    dgram = forktail::serve::encode(batch);

    const bool mangle = opt.malformed_fraction > 0.0 &&
                        rng.uniform() < opt.malformed_fraction;
    if (mangle) {
      corrupt(dgram,
              static_cast<Corruption>(corruption_cycle++ % kCorruptionKinds),
              opt.agents, kService);
    }

    ssize_t n;
    do {
      n = ::sendto(fd, dgram.data(), dgram.size(), 0,
                   reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      stats.send_errors += 1;
      // Loopback send failures are transient (ENOBUFS under pressure);
      // back off a moment instead of spinning on the error.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    if (mangle) {
      stats.malformed += 1;
    } else {
      stats.datagrams += 1;
      stats.samples += opt.batch;
    }
  }
  ::close(fd);
}

// -------------------------------------------------------------- reporting

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double counter_of(const Json& report, const std::string& name) {
  if (!report.is_object() || !report.contains("counters")) return 0.0;
  const Json& counters = report.at("counters");
  if (!counters.contains(name)) return 0.0;
  return counters.at(name).as_number();
}

double gauge_of(const Json& report, const std::string& name) {
  if (!report.is_object() || !report.contains("gauges")) return 0.0;
  const Json& gauges = report.at("gauges");
  if (!gauges.contains(name)) return 0.0;
  return gauges.at(name).as_number();
}

int run_probe(std::uint16_t tcp_port) {
  QueryClient client;
  Json request = Json::object();
  request.set("op", "predict");
  request.set("p", kPercentile);
  const std::string reply = client.call(tcp_port, request.dump(0));
  if (reply.empty()) {
    std::cerr << "serve_loadgen: probe: no response from port " << tcp_port
              << "\n";
    return 3;
  }
  std::cout << reply << "\n";
  return 0;
}

int run_load(const Options& opt) {
  // Optionally host the daemon in-process: same socket path, one command.
  std::unique_ptr<forktail::serve::Server> local;
  std::uint16_t udp_port = opt.udp_port;
  std::uint16_t tcp_port = opt.tcp_port;
  if (opt.spawn) {
    forktail::serve::ServeConfig config;
    config.nodes = opt.agents;
    config.service = kService;
    config.shards = 2;
    config.min_samples = 8;
    config.scenario_name = "serve-loadgen";
    local = std::make_unique<forktail::serve::Server>(config);
    local->start();
    udp_port = local->udp_port();
    tcp_port = local->tcp_port();
  }

  if (opt.probe) return run_probe(tcp_port);

  std::atomic<bool> stop{false};
  SenderStats total;
  const auto t0 = std::chrono::steady_clock::now();
  std::thread sender(sender_loop, std::cref(opt), udp_port, std::ref(stop),
                     std::ref(total));

  // Query plane: poll predict while the load runs, collecting the served
  // staleness distribution the acceptance criteria gate on.
  QueryClient client;
  std::vector<double> staleness_ms;
  std::uint64_t queries = 0;
  std::uint64_t queries_degraded = 0;
  bool last_served = false;
  Json predict_request = Json::object();
  predict_request.set("op", "predict");
  predict_request.set("p", kPercentile);
  const std::string predict_body = predict_request.dump(0);

  const auto deadline =
      t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(opt.seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(kQueryIntervalMs));
    const std::string reply = client.call(tcp_port, predict_body);
    if (reply.empty()) continue;
    try {
      const Json doc = Json::parse(reply);
      queries += 1;
      if (doc.contains("served") && doc.at("served").as_bool()) {
        last_served = true;
        staleness_ms.push_back(doc.at("staleness_ms").as_number());
      }
      if (doc.contains("degraded") && doc.at("degraded").as_bool()) {
        queries_degraded += 1;
      }
    } catch (const std::exception&) {
      // A torn reply counts as no reply; the client reconnects.
    }
  }

  stop.store(true, std::memory_order_release);
  sender.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Let the daemon drain its rings before reading the final counters so
  // the ingest accounting reflects everything we sent.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Json request = Json::object();
  request.set("op", "report");
  Json report;
  const std::string reply = client.call(tcp_port, request.dump(0));
  if (!reply.empty()) {
    try {
      report = Json::parse(reply);
    } catch (const std::exception&) {
      report = Json();
    }
  }

  static const char* kReasons[] = {"truncated",      "bad_magic",
                                   "bad_version",    "bad_count",
                                   "checksum",       "bad_sample",
                                   "unknown_node",   "unknown_service",
                                   "stale_timestamp"};
  Json rejected = Json::object();
  double rejected_total = 0.0;
  for (const char* reason : kReasons) {
    const double n =
        counter_of(report, std::string("serve.wire.rejected.") + reason);
    rejected.set(reason, n);
    rejected_total += n;
  }

  const double ingested = counter_of(report, "serve.samples");
  const double shed = counter_of(report, "serve.shed");

  Json staleness = Json::object();
  staleness.set("count", static_cast<std::uint64_t>(staleness_ms.size()));
  staleness.set("p50", percentile(staleness_ms, 50.0));
  staleness.set("p99", percentile(staleness_ms, 99.0));
  staleness.set("max",
                staleness_ms.empty()
                    ? 0.0
                    : *std::max_element(staleness_ms.begin(),
                                        staleness_ms.end()));

  Json doc = Json::object();
  doc.set("agents", static_cast<std::uint64_t>(opt.agents));
  doc.set("batch", static_cast<std::uint64_t>(opt.batch));
  doc.set("seconds", opt.seconds);
  doc.set("malformed_fraction", opt.malformed_fraction);
  doc.set("sent_datagrams", total.datagrams);
  doc.set("sent_samples", total.samples);
  doc.set("malformed_sent", total.malformed);
  doc.set("send_errors", total.send_errors);
  doc.set("elapsed_s", elapsed);
  doc.set("send_rate_per_s",
          elapsed > 0.0 ? static_cast<double>(total.samples) / elapsed : 0.0);
  doc.set("ingested_samples", ingested);
  doc.set("ingest_rate_per_s", elapsed > 0.0 ? ingested / elapsed : 0.0);
  doc.set("shed_batches", shed);
  doc.set("rejected", rejected);
  doc.set("rejected_total", rejected_total);
  doc.set("staleness_ms", staleness);
  doc.set("queries", queries);
  doc.set("queries_degraded", queries_degraded);
  doc.set("served", last_served);
  doc.set("rss_kib", gauge_of(report, "serve.rss_kib"));
  const double peak_rss_kib = gauge_of(report, "serve.peak_rss_kib");
  doc.set("peak_rss_kib", peak_rss_kib);

  if (local) local->stop();

  std::cout << "serve_loadgen: " << total.datagrams << " datagrams ("
            << total.samples << " samples, " << total.malformed
            << " malformed) in " << elapsed << " s -> "
            << (elapsed > 0.0 ? static_cast<double>(total.samples) / elapsed
                              : 0.0)
            << " samples/s sent, " << ingested << " ingested, " << shed
            << " batches shed\n";
  std::cout << "serve_loadgen: " << queries << " queries, staleness p99 "
            << percentile(staleness_ms, 99.0) << " ms\n";

  if (!opt.out.empty()) {
    std::ofstream out(opt.out);
    if (!out) {
      std::cerr << "serve_loadgen: cannot write " << opt.out << "\n";
      return 3;
    }
    out << doc.dump(2) << "\n";
    std::cout << "serve_loadgen: wrote " << opt.out << "\n";
  }

  // Malformed datagrams mostly bounce, but a stale-timestamp one that
  // happens to be a node's first batch legitimately lands, so they count
  // toward the ingest bound too: more than that means double-counting.
  const double sent_bound =
      static_cast<double>(total.samples + total.malformed * opt.batch);
  const bool malformed = opt.malformed_fraction > 0.0;
  const std::pair<bool, const char*> checks[] = {
      {total.datagrams > 0, "no datagrams were sent"},
      {ingested > 0.0, "the daemon ingested nothing"},
      {queries > 0, "no predict queries completed"},
      {last_served, "the final prediction was not served"},
      {!staleness_ms.empty(), "no served staleness samples collected"},
      {percentile(staleness_ms, 99.0) >= 0.0, "staleness p99 is negative"},
      {!malformed || total.malformed > 0,
       "malformed fraction set but nothing malformed sent"},
      {!malformed || rejected_total > 0.0,
       "malformed datagrams sent but no typed rejection counter moved"},
      {peak_rss_kib > 0.0, "the daemon reported no peak RSS"},
      {ingested <= sent_bound, "ingested more samples than were sent"},
  };
  int status = 0;
  for (const auto& [ok, what] : checks) {
    if (ok) continue;
    std::cerr << "serve_loadgen: check failed: " << what << "\n";
    status = 1;
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  try {
    return run_load(opt);
  } catch (const std::exception& error) {
    std::cerr << "serve_loadgen: " << error.what() << "\n";
    return 3;
  }
}
