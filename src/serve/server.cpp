#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>

#include "core/predictor.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "stats/welford.hpp"
#include "util/json.hpp"

namespace forktail::serve {

namespace {

/// Query-protocol limits: one framed request is a small JSON document.
constexpr std::size_t kMaxRequestBytes = 64 * 1024;
constexpr std::size_t kMaxHttpHeaderBytes = 8 * 1024;
constexpr std::size_t kMaxConnections = 128;
constexpr int kPollTimeoutMs = 100;

struct ServeMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& datagrams = reg.counter("serve.datagrams");
  obs::Counter& recv_errors = reg.counter("serve.recv_errors");
  obs::Counter& rejected_unknown_node =
      reg.counter("serve.wire.rejected.unknown_node");
  obs::Counter& rejected_unknown_service =
      reg.counter("serve.wire.rejected.unknown_service");
  obs::Counter& queries = reg.counter("serve.queries");
  obs::Counter& queries_degraded = reg.counter("serve.queries.degraded");
  obs::Counter& tcp_conns = reg.counter("serve.tcp.conns");
  obs::Counter& tcp_rejected_conns = reg.counter("serve.tcp.rejected_conns");
  obs::Counter& tcp_bad_frames = reg.counter("serve.tcp.bad_frames");
  obs::Counter& bad_requests = reg.counter("serve.bad_requests");
  obs::Counter& ingest_stalls = reg.counter("serve.ingest_stalls");
  obs::Gauge& stalled = reg.gauge("serve.ingest_stalled");
  obs::Gauge& queue_depth = reg.gauge("serve.queue_depth");
  obs::Gauge& rss_kib = reg.gauge("serve.rss_kib");
  obs::Gauge& peak_rss_kib = reg.gauge("serve.peak_rss_kib");
  obs::Gauge& agents_live = reg.gauge("serve.agents.live");
  obs::Gauge& agents_stale = reg.gauge("serve.agents.stale");
  obs::Gauge& staleness_gauge = reg.gauge("serve.staleness_ms");
  obs::Gauge& uptime = reg.gauge("serve.uptime_s");
  obs::Histogram& query_staleness =
      reg.histogram("serve.query.staleness_ms");
  obs::Counter* wire_rejected[kWireErrorCount] = {};

  ServeMetrics() {
    for (int i = 0; i < static_cast<int>(kWireErrorCount); ++i) {
      const auto err = static_cast<WireError>(i + 1);
      wire_rejected[i] = &reg.counter(std::string("serve.wire.rejected.") +
                                      wire_error_name(err));
    }
  }
  static ServeMetrics& get() {
    static ServeMetrics m;
    return m;
  }
  obs::Counter& wire(WireError err) {
    return *wire_rejected[static_cast<int>(err) - 1];
  }
};

/// VmRSS / VmHWM in KiB from /proc/self/status (0 when unreadable -- the
/// gauges then just stay at zero instead of the watchdog failing).
void read_rss_kib(long& rss, long& peak) {
  rss = 0;
  peak = 0;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      rss = std::strtol(line.c_str() + 6, nullptr, 10);
    } else if (line.rfind("VmHWM:", 0) == 0) {
      peak = std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
}

/// EINTR-safe close.
void close_fd(int& fd) {
  if (fd >= 0) {
    while (::close(fd) < 0 && errno == EINTR) {
    }
    fd = -1;
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

void append_frame(std::string& out, const std::string& body) {
  const auto len = static_cast<std::uint32_t>(body.size());
  out.push_back(static_cast<char>((len >> 24) & 0xFF));
  out.push_back(static_cast<char>((len >> 16) & 0xFF));
  out.push_back(static_cast<char>((len >> 8) & 0xFF));
  out.push_back(static_cast<char>(len & 0xFF));
  out += body;
}

std::string error_json(const std::string& what) {
  util::Json j = util::Json::object();
  j.set("error", what);
  return j.dump(0);
}

/// One TCP client.  Mode is sniffed from the first four bytes: "GET " means
/// a plain HTTP scrape, anything else the length-prefixed JSON protocol.
struct Conn {
  int fd = -1;
  std::vector<std::uint8_t> in;
  std::string out;
  std::size_t out_off = 0;
  enum class Mode : std::uint8_t { kUnknown, kFramed, kHttp } mode = Mode::kUnknown;
  bool close_after_flush = false;
  bool closed = false;

  bool has_output() const { return out_off < out.size(); }
};

}  // namespace

Server::Server(const ServeConfig& config) : config_(config) {
  if (config_.nodes == 0) {
    throw std::invalid_argument("serve: nodes must be >= 1");
  }
  if (config_.window_seconds <= 0.0) {
    throw std::invalid_argument("serve: window_seconds must be > 0");
  }
  if (config_.liveness_timeout <= 0.0) {
    throw std::invalid_argument("serve: liveness_timeout must be > 0");
  }
  if (config_.shards == 0) config_.shards = 1;
  if (config_.shards > config_.nodes) config_.shards = config_.nodes;
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;

  // Contiguous node -> shard ranges: shard i owns base (+1 for the first
  // `rem` shards) nodes, so global node g maps to a shard and a local
  // index with plain arithmetic held in the two lookup tables.
  const std::size_t base = config_.nodes / config_.shards;
  const std::size_t rem = config_.nodes % config_.shards;
  shard_local_nodes_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    const std::size_t width = base + (s < rem ? 1 : 0);
    shard_local_nodes_.push_back(static_cast<std::uint32_t>(width));
    ShardConfig sc;
    sc.local_nodes = width;
    sc.window_seconds = config_.window_seconds;
    sc.min_samples = config_.min_samples;
    sc.skew_tolerance = config_.skew_tolerance;
    sc.ring_capacity = config_.ring_capacity;
    shards_.push_back(std::make_unique<IngestShard>(sc));
  }
  start_time_ = std::chrono::steady_clock::now();
  ServeMetrics::get();  // pre-register every serve metric at construction
}

Server::~Server() { stop(); }

double Server::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_time_)
      .count();
}

std::uint64_t Server::samples_ingested() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->samples_ingested();
  return total;
}

std::uint64_t Server::batches_shed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->batches_shed();
  return total;
}

void Server::start() {
  if (running_.load(std::memory_order_acquire)) return;
  stop_.store(false, std::memory_order_release);
  stop_workers_.store(false, std::memory_order_release);

  // ---- UDP ingest socket: blocking with a receive timeout, so the reader
  // thread wakes to check the stop flag without spinning.
  udp_fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (udp_fd_ < 0) {
    throw std::runtime_error(std::string("serve: udp socket: ") +
                             std::strerror(errno));
  }
  const int rcvbuf = 8 * 1024 * 1024;  // best effort; kernel may clamp
  ::setsockopt(udp_fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  timeval tv{};
  tv.tv_usec = 100 * 1000;
  ::setsockopt(udp_fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(config_.udp_port);
  if (::bind(udp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string why = std::strerror(errno);
    close_fd(udp_fd_);
    throw std::runtime_error("serve: udp bind port " +
                             std::to_string(config_.udp_port) + ": " + why);
  }
  socklen_t alen = sizeof(addr);
  ::getsockname(udp_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  udp_port_ = ntohs(addr.sin_port);

  // ---- TCP query socket: non-blocking, poll()-driven.
  tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (tcp_fd_ < 0) {
    const std::string why = std::strerror(errno);
    close_fd(udp_fd_);
    throw std::runtime_error(std::string("serve: tcp socket: ") + why);
  }
  const int one = 1;
  ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in taddr{};
  taddr.sin_family = AF_INET;
  taddr.sin_addr.s_addr = htonl(INADDR_ANY);
  taddr.sin_port = htons(config_.tcp_port);
  if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&taddr), sizeof(taddr)) < 0 ||
      ::listen(tcp_fd_, 64) < 0) {
    const std::string why = std::strerror(errno);
    close_fd(udp_fd_);
    close_fd(tcp_fd_);
    throw std::runtime_error("serve: tcp bind/listen port " +
                             std::to_string(config_.tcp_port) + ": " + why);
  }
  set_nonblocking(tcp_fd_);
  socklen_t tlen = sizeof(taddr);
  ::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&taddr), &tlen);
  tcp_port_ = ntohs(taddr.sin_port);

  start_time_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  reader_ = std::thread([this] { reader_loop(); });
  workers_.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
  query_ = std::thread([this] { query_loop(); });
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

void Server::stop() {
  bool was_running = true;
  if (!running_.compare_exchange_strong(was_running, false)) return;

  // Drain order: silence the producer first, then let the workers flush
  // whatever is left in the rings, then take down the query/watchdog side.
  stop_.store(true, std::memory_order_release);
  if (reader_.joinable()) reader_.join();
  close_fd(udp_fd_);

  stop_workers_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  if (query_.joinable()) query_.join();
  if (watchdog_.joinable()) watchdog_.join();
  close_fd(tcp_fd_);
  refresh_gauges();
}

// ---------------------------------------------------------------- reader

void Server::reader_loop() {
  auto& metrics = ServeMetrics::get();
  std::vector<std::uint8_t> buf(kMaxDatagramBytes + 512);

  // Shard lookup tables (contiguous ranges, see constructor).
  std::vector<std::uint32_t> node_shard(config_.nodes);
  std::vector<std::uint32_t> node_local(config_.nodes);
  std::size_t next = 0;
  for (std::size_t s = 0; s < shard_local_nodes_.size(); ++s) {
    for (std::uint32_t l = 0; l < shard_local_nodes_[s]; ++l, ++next) {
      node_shard[next] = static_cast<std::uint32_t>(s);
      node_local[next] = l;
    }
  }

  // Reused for every datagram: decode() writes the header and `count`
  // samples, and only those cross the ring (IngestShard::submit).
  WireBatch batch;
  while (!stop_.load(std::memory_order_acquire)) {
    const ssize_t n = ::recvfrom(udp_fd_, buf.data(), buf.size(), 0, nullptr,
                                 nullptr);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;  // signal or receive-timeout tick; re-check stop flag
      }
      if (stop_.load(std::memory_order_acquire)) break;
      metrics.recv_errors.add(1);
      continue;
    }
    metrics.datagrams.add(1);
    const WireError err = decode(buf.data(), static_cast<std::size_t>(n), batch);
    if (err != WireError::kNone) {
      metrics.wire(err).add(1);
      continue;
    }
    if (batch.service != config_.service) {
      metrics.rejected_unknown_service.add(1);
      continue;
    }
    if (batch.node >= config_.nodes) {
      metrics.rejected_unknown_node.add(1);
      continue;
    }
    shards_[node_shard[batch.node]]->submit(node_local[batch.node], batch);
  }
}

// ---------------------------------------------------------------- workers

void Server::worker_loop(std::size_t shard) {
  IngestShard& s = *shards_[shard];
  const double budget = static_cast<double>(s.drain_budget());
  double next_sweep = 0.0;
  double last_drain = now_s();
  for (;;) {
    const bool stopping = stop_workers_.load(std::memory_order_acquire);
    const double now = now_s();
    const std::size_t drained = s.drain(now);
    if (config_.drain_throttle_us > 0 && drained > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<std::uint64_t>(config_.drain_throttle_us) * drained));
    }
    if (now >= next_sweep) {
      s.sweep(now, config_.liveness_timeout);
      next_sweep = now + config_.sweep_interval;
    }
    if (drained == 0 && stopping) break;  // reader joined: ring flushed
    // Every drain that takes a batch ends with an epoch publish (a merge
    // over all the shard's windows), so re-draining a trickle at once would
    // publish every batch or two and keep the worker busy.  Pause instead,
    // unless the budget left a backlog: 0.5 ms, or less when the rate just
    // drained would fill half the ring sooner.
    if (drained < s.drain_budget()) {
      double pause_s = 500e-6;
      if (drained > 0) {
        pause_s = std::min(pause_s, 0.5 * budget * (now - last_drain) /
                                        static_cast<double>(drained));
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(pause_s));
    }
    last_drain = now;
  }
}

// ------------------------------------------------------------- predictions

Server::Prediction Server::predict(double p, double k) const {
  auto& metrics = ServeMetrics::get();
  const double now = now_s();

  Prediction pred;
  pred.p = p;

  // Each snapshot is a pointer copy of the shard's last published epoch:
  // no shard lock is taken and no window is merged here.
  stats::MomentSketch pooled;
  bool shed_recent = false;
  for (const auto& shard : shards_) {
    const auto snap = shard->snapshot(now);
    pred.filled_nodes += snap.pooled.filled_nodes;
    pred.seen_nodes += snap.seen_nodes;
    pred.live_nodes += snap.live_nodes;
    pred.stale_nodes += snap.stale_nodes;
    pred.staleness_ms = std::max(pred.staleness_ms, snap.staleness_ms);
    if (snap.last_shed_s >= now - config_.window_seconds) shed_recent = true;
    pooled.merge(snap.pooled.moments());
  }
  const double variance = pooled.variance();

  if (!(p > 0.0 && p < 100.0)) {
    pred.served = false;
    pred.degraded = true;
    pred.reasons.push_back("invalid_percentile");
  } else if (pred.filled_nodes == 0) {
    pred.served = false;
    pred.degraded = true;
    pred.reasons.push_back("no_data");
  } else {
    double kk = k > 0.0 ? k : config_.default_k;
    if (kk <= 0.0) {
      kk = static_cast<double>(pred.live_nodes > 0 ? pred.live_nodes
                                                   : pred.filled_nodes);
    }
    pred.k = kk;
    if (variance <= 0.0) {
      // Zero-variance window (every sample identical): the GE fit would be
      // degenerate, but the answer is exact -- serve the mean, say why.
      pred.quantile_ms = pooled.mean;
      pred.served = true;
      pred.reasons.push_back("zero_variance");
    } else {
      try {
        pred.quantile_ms =
            core::homogeneous_quantile({pooled.mean, variance}, kk, p);
        pred.served = true;
      } catch (const std::exception&) {
        pred.served = false;
        pred.reasons.push_back("fit_failed");
      }
    }
    if (pred.filled_nodes < pred.seen_nodes) {
      pred.reasons.push_back("underfilled_windows");
    }
    if (pred.stale_nodes > 0) pred.reasons.push_back("stale_agents");
    if (shed_recent) pred.reasons.push_back("recent_shed");
    pred.degraded = !pred.reasons.empty();
  }

  metrics.queries.add(1);
  if (pred.degraded) {
    metrics.queries_degraded.add(1);
    any_degraded_.store(true, std::memory_order_relaxed);
  }
  metrics.query_staleness.record(pred.staleness_ms);
  return pred;
}

std::string predict_reply_json(const Server::Prediction& pred,
                               std::uint64_t ingested_samples,
                               std::uint64_t shed_batches) {
  // Members in util::Json's (sorted) key order; each key literal carries
  // its separator so the body is one straight run of appends.
  std::string out;
  out.reserve(256);
  const auto number = [&out](const char* key, double v) {
    out += key;
    util::write_json_number(out, v);
  };
  const auto boolean = [&out](const char* key, bool v) {
    out += key;
    out += v ? "true" : "false";
  };
  boolean("{\"degraded\":", pred.degraded);
  number(",\"filled_nodes\":", static_cast<double>(pred.filled_nodes));
  number(",\"ingested_samples\":", static_cast<double>(ingested_samples));
  number(",\"k\":", pred.k);
  number(",\"live_nodes\":", static_cast<double>(pred.live_nodes));
  number(",\"p\":", pred.p);
  if (pred.served) number(",\"quantile_ms\":", pred.quantile_ms);
  out += ",\"reasons\":[";
  for (std::size_t i = 0; i < pred.reasons.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += util::json_escape(pred.reasons[i]);
    out += '"';
  }
  out += ']';
  number(",\"seen_nodes\":", static_cast<double>(pred.seen_nodes));
  boolean(",\"served\":", pred.served);
  number(",\"shed_batches\":", static_cast<double>(shed_batches));
  number(",\"stale_nodes\":", static_cast<double>(pred.stale_nodes));
  number(",\"staleness_ms\":", pred.staleness_ms);
  out += '}';
  return out;
}

void Server::refresh_gauges() const {
  auto& metrics = ServeMetrics::get();
  const double now = now_s();
  std::size_t depth = 0, live = 0, stale = 0;
  double staleness = 0.0;
  for (const auto& shard : shards_) {
    const auto snap = shard->snapshot(now);
    depth += snap.queue_depth;
    live += snap.live_nodes;
    stale += snap.stale_nodes;
    staleness = std::max(staleness, snap.staleness_ms);
  }
  metrics.queue_depth.set(static_cast<double>(depth));
  metrics.agents_live.set(static_cast<double>(live));
  metrics.agents_stale.set(static_cast<double>(stale));
  metrics.staleness_gauge.set(staleness);
  metrics.uptime.set(now);
  long rss = 0, peak = 0;
  read_rss_kib(rss, peak);
  if (rss > 0) metrics.rss_kib.set(static_cast<double>(rss));
  if (peak > 0) metrics.peak_rss_kib.set(static_cast<double>(peak));
}

std::string Server::scrape() const {
  refresh_gauges();
  return obs::RunReport::capture(obs::Registry::global(), "forktail serve",
                                 config_.scenario_name,
                                 any_degraded_.load(std::memory_order_relaxed))
      .to_prometheus();
}

// ---------------------------------------------------------------- watchdog

void Server::watchdog_loop() {
  auto& metrics = ServeMetrics::get();
  std::uint64_t last_samples = samples_ingested();
  double last_change_s = now_s();
  bool stalled = false;
  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    refresh_gauges();
    const std::uint64_t cur = samples_ingested();
    const double now = now_s();
    if (cur != last_samples) {
      last_samples = cur;
      last_change_s = now;
      if (stalled) {
        stalled = false;
        metrics.stalled.set(0.0);
        std::fprintf(stderr, "forktail serve: ingest recovered after stall\n");
      }
    } else if (!stalled && cur > 0 &&
               now - last_change_s > config_.stall_threshold) {
      stalled = true;
      metrics.stalled.set(1.0);
      metrics.ingest_stalls.add(1);
      std::fprintf(stderr,
                   "forktail serve: ingest stalled (no samples for %.1f s)\n",
                   now - last_change_s);
    }
  }
}

// ------------------------------------------------------------- query plane

std::string Server::handle_request(const std::string& body) {
  auto& metrics = ServeMetrics::get();
  try {
    const util::Json req = util::Json::parse(body);
    if (!req.is_object() || !req.contains("op") ||
        !req.at("op").is_string()) {
      metrics.bad_requests.add(1);
      return error_json("request must be an object with a string \"op\"");
    }
    const std::string& op = req.at("op").as_string();
    if (op == "ping") {
      util::Json j = util::Json::object();
      j.set("ok", true);
      j.set("uptime_s", now_s());
      return j.dump(0);
    }
    if (op == "predict") {
      const double p = req.contains("p") ? req.at("p").as_number() : 99.0;
      const double k = req.contains("k") ? req.at("k").as_number() : 0.0;
      return predict_reply_json(predict(p, k), samples_ingested(),
                                batches_shed());
    }
    if (op == "report") {
      refresh_gauges();
      return obs::RunReport::capture(
                 obs::Registry::global(), "forktail serve",
                 config_.scenario_name,
                 any_degraded_.load(std::memory_order_relaxed))
          .to_json();
    }
    if (op == "stats") {
      const double now = now_s();
      util::Json shards = util::Json::array();
      for (const auto& shard : shards_) {
        const auto snap = shard->snapshot(now);
        util::Json s = util::Json::object();
        s.set("filled_nodes",
              static_cast<std::uint64_t>(snap.pooled.filled_nodes));
        s.set("seen_nodes", static_cast<std::uint64_t>(snap.seen_nodes));
        s.set("live_nodes", static_cast<std::uint64_t>(snap.live_nodes));
        s.set("stale_nodes", static_cast<std::uint64_t>(snap.stale_nodes));
        s.set("staleness_ms", snap.staleness_ms);
        s.set("samples", shard->samples_ingested());
        s.set("shed_batches", snap.batches_shed);
        s.set("stale_rejected", shard->stale_rejected());
        s.set("queue_depth", static_cast<std::uint64_t>(snap.queue_depth));
        shards.push_back(std::move(s));
      }
      util::Json j = util::Json::object();
      j.set("shards", std::move(shards));
      j.set("uptime_s", now);
      return j.dump(0);
    }
    metrics.bad_requests.add(1);
    return error_json("unknown op \"" + op + "\"");
  } catch (const std::exception& e) {
    // Parse errors and type mismatches inside a well-framed request are a
    // client bug, not a framing loss: answer with a typed error and keep
    // the connection (framing is still in sync).
    metrics.bad_requests.add(1);
    return error_json(e.what());
  }
}

namespace {

/// Drive one connection's input buffer as far as it goes.  Returns false
/// when the connection hit a framing-level error and must close (after the
/// error response flushes) -- the stated resync story: framing state is
/// per-connection, so the client reconnects to resynchronize.
bool process_input(Conn& conn, Server& server,
                   const std::function<std::string(const std::string&)>& handle) {
  auto& metrics = ServeMetrics::get();
  for (;;) {
    if (conn.mode == Conn::Mode::kUnknown) {
      if (conn.in.size() < 4) return true;
      conn.mode = std::memcmp(conn.in.data(), "GET ", 4) == 0
                      ? Conn::Mode::kHttp
                      : Conn::Mode::kFramed;
    }
    if (conn.mode == Conn::Mode::kHttp) {
      // Wait for the end of the request head, answer with the scrape, close.
      static const std::uint8_t kCrlf2[] = {'\r', '\n', '\r', '\n'};
      const auto it = std::search(conn.in.begin(), conn.in.end(),
                                  std::begin(kCrlf2), std::end(kCrlf2));
      if (it == conn.in.end()) {
        if (conn.in.size() > kMaxHttpHeaderBytes) {
          conn.close_after_flush = true;
          return false;
        }
        return true;
      }
      const std::string page = server.scrape();
      conn.out += "HTTP/1.1 200 OK\r\n"
                  "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                  "Content-Length: " + std::to_string(page.size()) + "\r\n"
                  "Connection: close\r\n\r\n";
      conn.out += page;
      conn.in.clear();
      conn.close_after_flush = true;
      return true;
    }
    // Length-prefixed framing: 4-byte big-endian length, then the JSON body.
    if (conn.in.size() < 4) return true;
    const std::uint32_t len = (static_cast<std::uint32_t>(conn.in[0]) << 24) |
                              (static_cast<std::uint32_t>(conn.in[1]) << 16) |
                              (static_cast<std::uint32_t>(conn.in[2]) << 8) |
                              static_cast<std::uint32_t>(conn.in[3]);
    if (len == 0 || len > kMaxRequestBytes) {
      metrics.tcp_bad_frames.add(1);
      append_frame(conn.out, error_json("bad frame length " +
                                        std::to_string(len)));
      conn.close_after_flush = true;
      return false;
    }
    if (conn.in.size() < 4 + static_cast<std::size_t>(len)) return true;
    const std::string body(conn.in.begin() + 4, conn.in.begin() + 4 + len);
    conn.in.erase(conn.in.begin(), conn.in.begin() + 4 + len);
    append_frame(conn.out, handle(body));
  }
}

/// Flush as much buffered output as the socket accepts (partial writes keep
/// the remainder; EINTR retries; EAGAIN waits for the next POLLOUT).
void flush_output(Conn& conn) {
  while (conn.has_output()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    conn.closed = true;  // hard error or peer gone
    return;
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
    if (conn.close_after_flush) conn.closed = true;
  }
}

}  // namespace

void Server::query_loop() {
  auto& metrics = ServeMetrics::get();
  std::vector<Conn> conns;
  const auto handle = [this](const std::string& body) {
    return handle_request(body);
  };

  while (!stop_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    fds.reserve(conns.size() + 1);
    fds.push_back({tcp_fd_, POLLIN, 0});
    for (const Conn& conn : conns) {
      short events = POLLIN;
      if (conn.has_output()) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
    }

    const int rc = ::poll(fds.data(), fds.size(), kPollTimeoutMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Connections accepted below were not part of this poll; only the
    // first `polled` entries of conns have a matching fds[i + 1].
    const std::size_t polled = conns.size();

    // New connections (bounded; beyond the cap: accept, count, close).
    if (fds[0].revents & POLLIN) {
      for (;;) {
        const int cfd = ::accept(tcp_fd_, nullptr, nullptr);
        if (cfd < 0) {
          if (errno == EINTR) continue;
          break;  // EAGAIN or transient error: back to poll
        }
        if (conns.size() >= kMaxConnections) {
          metrics.tcp_rejected_conns.add(1);
          int tmp = cfd;
          close_fd(tmp);
          continue;
        }
        set_nonblocking(cfd);
        metrics.tcp_conns.add(1);
        Conn conn;
        conn.fd = cfd;
        conns.push_back(std::move(conn));
      }
    }

    for (std::size_t i = 0; i < polled; ++i) {
      Conn& conn = conns[i];
      const short revents = fds[i + 1].revents;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Peer gone; flush what we can and drop it.
        flush_output(conn);
        conn.closed = true;
      }
      if (!conn.closed && (revents & POLLIN)) {
        std::uint8_t chunk[4096];
        for (;;) {
          const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
          if (n > 0) {
            if (conn.in.size() + static_cast<std::size_t>(n) >
                kMaxRequestBytes + kMaxHttpHeaderBytes) {
              metrics.tcp_bad_frames.add(1);
              conn.closed = true;  // buffer bound: a client that never frames
              break;
            }
            conn.in.insert(conn.in.end(), chunk, chunk + n);
            continue;
          }
          if (n == 0) {
            conn.closed = conn.in.empty() && !conn.has_output();
            conn.close_after_flush = true;  // half-close: answer, then drop
            break;
          }
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          conn.closed = true;
          break;
        }
        if (!conn.closed) {
          process_input(conn, *this, handle);
        }
      }
      if (!conn.closed) flush_output(conn);
    }

    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](Conn& conn) {
                                 if (conn.closed) {
                                   close_fd(conn.fd);
                                   return true;
                                 }
                                 return false;
                               }),
                conns.end());
  }

  for (Conn& conn : conns) close_fd(conn.fd);
}

}  // namespace forktail::serve
