// serve::Server -- the always-on prediction daemon.
//
// Thread model (all spawned by start(), joined by stop()):
//
//   reader    -- one blocking-with-timeout UDP socket loop; decodes
//                forktail.wire.v1 datagrams, counts every rejection with a
//                typed reason, and routes accepted batches to their shard's
//                bounded ring.  Never blocks on a slow consumer (the ring
//                sheds, it does not grow) and never crashes on bad input.
//   workers   -- one per shard; drain the ring into the skew-tolerant
//                predictor windows and run the periodic liveness sweep,
//                publishing an immutable shard epoch after each (see
//                serve/ingest.hpp).  predict(), the stats op and the
//                gauges read those epochs and never wait for a drain.
//   query     -- one poll() loop serving the TCP request protocol
//                (4-byte big-endian length + JSON request, same framing
//                back) and plain HTTP GET -> Prometheus text scrape on the
//                same port.  Partial reads/writes and EINTR are handled;
//                an unparseable frame gets a typed error response and the
//                connection is closed (the resync story: framing state is
//                per-connection, so reconnect == resync).
//   watchdog  -- samples RSS into gauges, mirrors queue depth / liveness
//                gauges, and self-reports ingest stalls (no accepted
//                datagram for stall_threshold seconds while previously
//                ingesting) via the serve.ingest_stalled gauge + one
//                stderr line per episode.
//
// Predictions never refuse while any window has data: they degrade with
// stated reasons (underfilled windows, shed data, stale agents) and carry
// staleness_ms, following the PR 5/PR 9 degradation idiom.  stop() drains
// cleanly: reader first, then a final ring flush, then workers and query.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/ingest.hpp"

namespace forktail::serve {

struct ServeConfig {
  std::uint16_t udp_port = 0;  ///< sample ingest; 0 = ephemeral
  std::uint16_t tcp_port = 0;  ///< query + scrape; 0 = ephemeral
  std::uint16_t service = 0;   ///< wire service id this daemon serves
  std::size_t nodes = 64;      ///< fleet width (valid node ids [0, nodes))
  std::size_t shards = 2;      ///< ingest shards (worker threads)
  double window_seconds = 20.0;
  std::size_t min_samples = 30;
  double skew_tolerance = 0.5;      ///< backwards-clock clamp bound, seconds
  std::size_t ring_capacity = 1024; ///< batches per shard ring (shed bound)
  double liveness_timeout = 60.0;   ///< idle seconds before an agent is stale
  double sweep_interval = 0.5;      ///< liveness sweep cadence, seconds
  double stall_threshold = 5.0;     ///< watchdog ingest-stall horizon, seconds
  double default_k = 0.0;           ///< fan-out for queries (0 = live nodes)
  /// Test/CI knob: microseconds the shard worker sleeps per drained batch,
  /// simulating a slow consumer so overload shedding can be exercised
  /// deterministically.  0 (the default) disables it.
  std::uint32_t drain_throttle_us = 0;
  std::string scenario_name;  ///< label stamped into RunReports
};

class Server {
 public:
  explicit Server(const ServeConfig& config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind both sockets and spawn the thread set.  Throws
  /// std::runtime_error when a socket cannot be bound.
  void start();

  /// Clean drain: stop the reader, flush every shard ring, stop workers,
  /// close query connections.  Idempotent; also run by the destructor.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Actual bound ports (valid after start(); useful with port 0).
  std::uint16_t udp_port() const noexcept { return udp_port_; }
  std::uint16_t tcp_port() const noexcept { return tcp_port_; }

  /// One served prediction (the TCP "predict" op returns exactly this).
  struct Prediction {
    bool served = false;       ///< false only when no window has any data
    double quantile_ms = 0.0;
    double p = 99.0;
    double k = 0.0;
    double staleness_ms = 0.0; ///< worst live-agent data age at query time
    bool degraded = false;
    std::vector<std::string> reasons;  ///< stated degradation reasons
    std::size_t filled_nodes = 0;
    std::size_t seen_nodes = 0;
    std::size_t live_nodes = 0;
    std::size_t stale_nodes = 0;
  };
  /// Thread-safe; usable in-process (tests) and from the query protocol.
  /// `k` <= 0 falls back to config.default_k, then to the live node count.
  Prediction predict(double p, double k = 0.0) const;

  /// Prometheus text exposition of the global registry (the HTTP scrape
  /// body), with the serve gauges refreshed first.
  std::string scrape() const;

  /// True once any prediction was served degraded (stamped into the final
  /// RunReport by the CLI).
  bool any_degraded() const noexcept {
    return any_degraded_.load(std::memory_order_relaxed);
  }

  /// Cumulative accepted samples across shards.
  std::uint64_t samples_ingested() const noexcept;
  std::uint64_t batches_shed() const noexcept;

  /// Seconds since start() on the receiver's steady clock.
  double now_s() const;

 private:
  void reader_loop();
  void worker_loop(std::size_t shard);
  void query_loop();
  void watchdog_loop();
  void refresh_gauges() const;
  std::string handle_request(const std::string& body);

  ServeConfig config_;
  std::vector<std::unique_ptr<IngestShard>> shards_;
  std::vector<std::uint32_t> shard_local_nodes_;  ///< per-shard width

  int udp_fd_ = -1;
  int tcp_fd_ = -1;
  std::uint16_t udp_port_ = 0;
  std::uint16_t tcp_port_ = 0;

  std::atomic<bool> stop_{false};
  std::atomic<bool> stop_workers_{false};  ///< set after the reader joined
  std::atomic<bool> running_{false};
  mutable std::atomic<bool> any_degraded_{false};  ///< predict() is const
  std::thread reader_;
  std::vector<std::thread> workers_;
  std::thread query_;
  std::thread watchdog_;
  std::chrono::steady_clock::time_point start_time_{};
};

/// The TCP "predict" op's reply body for `pred` plus the two live
/// counters.  Byte-identical to building the same object with util::Json
/// and calling dump(0) (sorted keys, quantile_ms only when served), but
/// written straight into one string.
std::string predict_reply_json(const Server::Prediction& pred,
                               std::uint64_t ingested_samples,
                               std::uint64_t shed_batches);

}  // namespace forktail::serve
