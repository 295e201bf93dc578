// End-to-end daemon tests over real loopback sockets: ingest -> windows ->
// served predictions, the socket-visible rejection matrix, dead-agent
// degradation, overload shedding, the HTTP scrape, slow-trickling framed
// clients, and clean stop/drain, plus the predict reply writer's byte
// identity with util::Json.  Slow tier: each socket test spins up a Server
// with ephemeral ports.
#include "serve/server.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/wire.hpp"
#include "util/json.hpp"

namespace forktail::serve {
namespace {

using namespace std::chrono_literals;

class UdpClient {
 public:
  explicit UdpClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  }
  ~UdpClient() { ::close(fd_); }

  void send_raw(const std::vector<std::uint8_t>& bytes) {
    (void)::send(fd_, bytes.data(), bytes.size(), 0);
  }
  void send_batch(const WireBatch& batch) { send_raw(encode(batch)); }

 private:
  int fd_ = -1;
};

/// Blocking framed-protocol client (tests want simple synchronous calls).
class TcpClient {
 public:
  explicit TcpClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~TcpClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  void send_all(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    while (len > 0) {
      const ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return;
      }
      p += n;
      len -= static_cast<std::size_t>(n);
    }
  }

  void send_frame(const std::string& body) {
    const auto len = static_cast<std::uint32_t>(body.size());
    std::uint8_t hdr[4] = {static_cast<std::uint8_t>(len >> 24),
                           static_cast<std::uint8_t>(len >> 16),
                           static_cast<std::uint8_t>(len >> 8),
                           static_cast<std::uint8_t>(len)};
    send_all(hdr, 4);
    send_all(body.data(), body.size());
  }

  bool recv_exact(void* data, std::size_t len) {
    auto* p = static_cast<std::uint8_t*>(data);
    while (len > 0) {
      const ssize_t n = ::recv(fd_, p, len, 0);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      p += n;
      len -= static_cast<std::size_t>(n);
    }
    return true;
  }

  /// One framed response, or empty on close/error.
  std::string recv_frame() {
    std::uint8_t hdr[4];
    if (!recv_exact(hdr, 4)) return {};
    const std::uint32_t len = (static_cast<std::uint32_t>(hdr[0]) << 24) |
                              (static_cast<std::uint32_t>(hdr[1]) << 16) |
                              (static_cast<std::uint32_t>(hdr[2]) << 8) |
                              static_cast<std::uint32_t>(hdr[3]);
    std::string body(len, '\0');
    if (len > 0 && !recv_exact(body.data(), len)) return {};
    return body;
  }

  util::Json call(const std::string& request) {
    send_frame(request);
    const std::string resp = recv_frame();
    if (resp.empty()) return util::Json();
    return util::Json::parse(resp);
  }

  /// Read until the peer closes (HTTP mode).
  std::string recv_until_close() {
    std::string out;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        out.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return out;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

ServeConfig test_config() {
  ServeConfig config;
  config.nodes = 4;
  config.shards = 2;
  config.window_seconds = 30.0;
  config.min_samples = 3;
  config.skew_tolerance = 0.5;
  config.ring_capacity = 64;
  config.liveness_timeout = 60.0;
  config.sweep_interval = 0.1;
  config.scenario_name = "serve_test";
  return config;
}

WireBatch batch_for(std::uint32_t node, double t_s,
                    std::initializer_list<double> samples) {
  WireBatch batch;
  batch.node = node;
  batch.timestamp_ns = static_cast<std::uint64_t>(t_s * 1e9);
  batch.count = static_cast<std::uint16_t>(samples.size());
  std::size_t i = 0;
  for (double v : samples) batch.samples[i++] = v;
  return batch;
}

/// Poll until `pred` holds or ~5 s pass (UDP delivery is asynchronous).
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds budget = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return pred();
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// The predict reply as the query op used to build it: a util::Json tree
/// dumped compact.  The fixed-schema writer must match it byte for byte.
std::string predict_reply_oracle(const Server::Prediction& pred,
                                 std::uint64_t ingested, std::uint64_t shed) {
  util::Json j = util::Json::object();
  j.set("served", pred.served);
  if (pred.served) j.set("quantile_ms", pred.quantile_ms);
  j.set("p", pred.p);
  j.set("k", pred.k);
  j.set("staleness_ms", pred.staleness_ms);
  j.set("degraded", pred.degraded);
  util::Json reasons = util::Json::array();
  for (const auto& reason : pred.reasons) reasons.push_back(reason);
  j.set("reasons", std::move(reasons));
  j.set("filled_nodes", static_cast<std::uint64_t>(pred.filled_nodes));
  j.set("seen_nodes", static_cast<std::uint64_t>(pred.seen_nodes));
  j.set("live_nodes", static_cast<std::uint64_t>(pred.live_nodes));
  j.set("stale_nodes", static_cast<std::uint64_t>(pred.stale_nodes));
  j.set("ingested_samples", ingested);
  j.set("shed_batches", shed);
  return j.dump(0);
}

TEST(ServeServer, PredictReplyBytesMatchJsonDump) {
  Server::Prediction served;
  served.served = true;
  served.quantile_ms = 90.56619872813304;
  served.p = 99.0;
  served.k = 1000.0;  // dumps as 1e+03
  served.staleness_ms = 0.51054100000000003;
  served.filled_nodes = served.seen_nodes = served.live_nodes = 1000;

  Server::Prediction no_data;
  no_data.p = 99.9;
  no_data.degraded = true;
  no_data.reasons = {"no_data"};

  Server::Prediction invalid;
  invalid.p = 100.0;
  invalid.degraded = true;
  invalid.reasons = {"invalid_percentile"};
  invalid.staleness_ms = 12.25;
  invalid.filled_nodes = 3;
  invalid.seen_nodes = invalid.live_nodes = 4;

  Server::Prediction degraded;
  degraded.served = true;
  degraded.quantile_ms = 1.0 / 3.0;
  degraded.p = 95.5;
  degraded.k = 37.0;
  degraded.staleness_ms = 61234.5678;
  degraded.degraded = true;
  degraded.reasons = {"zero_variance", "underfilled_windows", "stale_agents",
                      "recent_shed"};
  degraded.filled_nodes = 30;
  degraded.seen_nodes = 64;
  degraded.live_nodes = 61;
  degraded.stale_nodes = 3;

  const std::uint64_t ingested = 123456789012ULL, shed = 6022;
  for (const auto* pred : {&served, &no_data, &invalid, &degraded}) {
    EXPECT_EQ(predict_reply_json(*pred, ingested, shed),
              predict_reply_oracle(*pred, ingested, shed));
    EXPECT_EQ(predict_reply_json(*pred, 0, 0),
              predict_reply_oracle(*pred, 0, 0));
  }
  EXPECT_NE(predict_reply_json(served, 0, 0).find("\"k\":1e+03"),
            std::string::npos);
}

TEST(ServeServer, IngestsAndServesPredictions) {
  Server server(test_config());
  server.start();
  ASSERT_NE(server.udp_port(), 0);
  ASSERT_NE(server.tcp_port(), 0);

  UdpClient udp(server.udp_port());
  for (std::uint32_t node = 0; node < 4; ++node) {
    for (int i = 0; i < 5; ++i) {
      udp.send_batch(
          batch_for(node, 1.0 + 0.1 * i, {10.0, 12.0, 14.0, 16.0}));
    }
  }
  ASSERT_TRUE(eventually([&] { return server.samples_ingested() >= 80; }));

  TcpClient tcp(server.tcp_port());
  ASSERT_TRUE(tcp.connected());
  const util::Json resp = tcp.call("{\"op\":\"predict\",\"p\":99,\"k\":4}");
  ASSERT_TRUE(resp.is_object());
  EXPECT_TRUE(resp.at("served").as_bool());
  EXPECT_GT(resp.at("quantile_ms").as_number(), 16.0);  // tail above max mean
  EXPECT_DOUBLE_EQ(resp.at("k").as_number(), 4.0);
  EXPECT_FALSE(resp.at("degraded").as_bool());
  EXPECT_LT(resp.at("staleness_ms").as_number(), 10000.0);
  EXPECT_EQ(resp.at("filled_nodes").as_number(), 4.0);

  server.stop();
}

TEST(ServeServer, EmptyDaemonDegradesWithNoData) {
  Server server(test_config());
  server.start();
  TcpClient tcp(server.tcp_port());
  const util::Json resp = tcp.call("{\"op\":\"predict\"}");
  ASSERT_TRUE(resp.is_object());
  EXPECT_FALSE(resp.at("served").as_bool());
  EXPECT_TRUE(resp.at("degraded").as_bool());
  ASSERT_GE(resp.at("reasons").size(), 1u);
  EXPECT_EQ(resp.at("reasons").items()[0].as_string(), "no_data");
  server.stop();
}

TEST(ServeServer, SocketLevelRejectionMatrix) {
  Server server(test_config());
  server.start();
  UdpClient udp(server.udp_port());

  const std::uint64_t before_truncated =
      counter_value("serve.wire.rejected.truncated");
  const std::uint64_t before_magic =
      counter_value("serve.wire.rejected.bad_magic");
  const std::uint64_t before_checksum =
      counter_value("serve.wire.rejected.checksum");
  const std::uint64_t before_node =
      counter_value("serve.wire.rejected.unknown_node");
  const std::uint64_t before_service =
      counter_value("serve.wire.rejected.unknown_service");

  auto valid = encode(batch_for(0, 1.0, {1.0, 2.0, 3.0}));

  auto truncated = valid;
  truncated.resize(10);
  udp.send_raw(truncated);

  auto bad_magic = valid;
  bad_magic[0] ^= 0xFF;
  udp.send_raw(bad_magic);

  auto bad_sum = valid;
  bad_sum.back() ^= 0x01;
  udp.send_raw(bad_sum);

  udp.send_batch(batch_for(99, 1.0, {1.0}));  // nodes = 4 -> unknown

  WireBatch wrong_service = batch_for(0, 1.0, {1.0});
  wrong_service.service = 31;
  udp.send_batch(wrong_service);

  udp.send_batch(batch_for(0, 2.0, {1.0, 2.0, 3.0}));  // control: accepted

  ASSERT_TRUE(eventually([&] { return server.samples_ingested() >= 3; }));
  EXPECT_TRUE(eventually([&] {
    return counter_value("serve.wire.rejected.truncated") > before_truncated &&
           counter_value("serve.wire.rejected.bad_magic") > before_magic &&
           counter_value("serve.wire.rejected.checksum") > before_checksum &&
           counter_value("serve.wire.rejected.unknown_node") > before_node &&
           counter_value("serve.wire.rejected.unknown_service") >
               before_service;
  }));
  server.stop();
}

TEST(ServeServer, DeadAgentDegradesPredictionsWithStatedReason) {
  ServeConfig config = test_config();
  config.nodes = 2;
  config.shards = 1;
  config.liveness_timeout = 0.4;
  config.sweep_interval = 0.05;
  Server server(config);
  server.start();
  UdpClient udp(server.udp_port());

  // Both agents report, then agent 1 "crashes" (stops sending).
  for (int i = 0; i < 3; ++i) {
    udp.send_batch(batch_for(0, 1.0 + i, {5.0, 5.0, 5.0}));
    udp.send_batch(batch_for(1, 1.0 + i, {50.0, 50.0, 50.0}));
  }
  ASSERT_TRUE(eventually([&] { return server.samples_ingested() >= 18; }));

  // Keep agent 0 alive past agent 1's liveness timeout.
  const auto deadline = std::chrono::steady_clock::now() + 1500ms;
  double t = 5.0;
  bool degraded_seen = false;
  TcpClient tcp(server.tcp_port());
  while (std::chrono::steady_clock::now() < deadline) {
    udp.send_batch(batch_for(0, t, {5.0, 5.0, 5.0}));
    t += 0.1;
    std::this_thread::sleep_for(100ms);
    const util::Json resp = tcp.call("{\"op\":\"predict\",\"p\":99}");
    if (!resp.is_object() || !resp.at("served").as_bool()) continue;
    if (resp.at("stale_nodes").as_number() >= 1.0 &&
        resp.at("degraded").as_bool()) {
      degraded_seen = true;
      bool has_stale_reason = false;
      for (const auto& reason : resp.at("reasons").items()) {
        if (reason.as_string() == "stale_agents") has_stale_reason = true;
      }
      EXPECT_TRUE(has_stale_reason);
      break;
    }
  }
  EXPECT_TRUE(degraded_seen);
  EXPECT_TRUE(server.any_degraded());
  server.stop();
}

TEST(ServeServer, OverloadShedsAndStatesIt) {
  ServeConfig config = test_config();
  config.nodes = 1;
  config.shards = 1;
  config.ring_capacity = 4;
  config.drain_throttle_us = 2000;  // slow consumer: 2 ms per batch
  Server server(config);
  server.start();
  UdpClient udp(server.udp_port());

  const std::uint64_t shed_before = counter_value("serve.shed");
  for (int i = 0; i < 3000; ++i) {
    udp.send_batch(batch_for(0, 1.0 + 0.001 * i, {1.0, 1.0, 1.0}));
  }
  ASSERT_TRUE(eventually([&] { return server.batches_shed() > 0; }));
  EXPECT_GT(counter_value("serve.shed"), shed_before);

  // The degradation must surface in served predictions.
  TcpClient tcp(server.tcp_port());
  const util::Json resp = tcp.call("{\"op\":\"predict\",\"p\":99}");
  ASSERT_TRUE(resp.is_object());
  bool has_shed_reason = false;
  for (const auto& reason : resp.at("reasons").items()) {
    if (reason.as_string() == "recent_shed") has_shed_reason = true;
  }
  EXPECT_TRUE(has_shed_reason);
  EXPECT_GT(resp.at("shed_batches").as_number(), 0.0);
  server.stop();
}

TEST(ServeServer, HttpScrapeServesPrometheusText) {
  Server server(test_config());
  server.start();
  UdpClient udp(server.udp_port());
  udp.send_batch(batch_for(0, 1.0, {1.0, 2.0, 3.0}));
  ASSERT_TRUE(eventually([&] { return server.samples_ingested() >= 3; }));

  TcpClient tcp(server.tcp_port());
  const std::string request = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  tcp.send_all(request.data(), request.size());
  const std::string page = tcp.recv_until_close();
  EXPECT_NE(page.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(page.find("forktail_serve_samples"), std::string::npos);
  EXPECT_NE(page.find("forktail_serve_datagrams"), std::string::npos);
  server.stop();
}

TEST(ServeServer, TricklingClientGetsCorrectFraming) {
  Server server(test_config());
  server.start();
  TcpClient tcp(server.tcp_port());
  ASSERT_TRUE(tcp.connected());

  // Send one request a byte at a time with delays: the server must
  // accumulate partial reads without corrupting framing.
  const std::string body = "{\"op\":\"ping\"}";
  const auto len = static_cast<std::uint32_t>(body.size());
  std::vector<std::uint8_t> stream = {static_cast<std::uint8_t>(len >> 24),
                                      static_cast<std::uint8_t>(len >> 16),
                                      static_cast<std::uint8_t>(len >> 8),
                                      static_cast<std::uint8_t>(len)};
  stream.insert(stream.end(), body.begin(), body.end());
  for (const std::uint8_t byte : stream) {
    tcp.send_all(&byte, 1);
    std::this_thread::sleep_for(5ms);
  }
  const std::string resp = tcp.recv_frame();
  ASSERT_FALSE(resp.empty());
  EXPECT_TRUE(util::Json::parse(resp).at("ok").as_bool());

  // The connection survives for a second, normally-paced request.
  const util::Json second = tcp.call("{\"op\":\"ping\"}");
  EXPECT_TRUE(second.at("ok").as_bool());
  server.stop();
}

TEST(ServeServer, MalformedFrameGetsTypedErrorThenClose) {
  Server server(test_config());
  server.start();
  TcpClient tcp(server.tcp_port());

  // Length prefix far over the cap: typed error response, then close.
  const std::uint8_t huge[4] = {0x7F, 0xFF, 0xFF, 0xFF};
  tcp.send_all(huge, 4);
  const std::string resp = tcp.recv_frame();
  ASSERT_FALSE(resp.empty());
  EXPECT_TRUE(util::Json::parse(resp).contains("error"));
  // Peer closes after the error flushes (resync = reconnect).
  std::uint8_t byte;
  EXPECT_FALSE(tcp.recv_exact(&byte, 1));

  // A fresh connection works fine.
  TcpClient again(server.tcp_port());
  EXPECT_TRUE(again.call("{\"op\":\"ping\"}").at("ok").as_bool());
  server.stop();
}

TEST(ServeServer, BadJsonInWellFramedRequestKeepsConnection) {
  Server server(test_config());
  server.start();
  TcpClient tcp(server.tcp_port());
  const util::Json err = tcp.call("{not json");
  ASSERT_TRUE(err.is_object());
  EXPECT_TRUE(err.contains("error"));
  // Framing was intact, so the connection still serves.
  EXPECT_TRUE(tcp.call("{\"op\":\"ping\"}").at("ok").as_bool());
  server.stop();
}

TEST(ServeServer, ReportOpReturnsRunReportJson) {
  Server server(test_config());
  server.start();
  TcpClient tcp(server.tcp_port());
  const util::Json report = tcp.call("{\"op\":\"report\"}");
  ASSERT_TRUE(report.is_object());
  EXPECT_EQ(report.at("schema").as_string(), "forktail.run_report.v1");
  EXPECT_EQ(report.at("tool").as_string(), "forktail serve");
  EXPECT_EQ(report.at("scenario").as_string(), "serve_test");
  server.stop();
}

TEST(ServeServer, StopDrainsQueuedBatches) {
  ServeConfig config = test_config();
  config.nodes = 1;
  config.shards = 1;
  config.drain_throttle_us = 500;  // ensure batches are still queued at stop
  Server server(config);
  server.start();
  UdpClient udp(server.udp_port());
  const int kBatches = 50;
  for (int i = 0; i < kBatches; ++i) {
    udp.send_batch(batch_for(0, 1.0 + 0.01 * i, {1.0, 2.0}));
  }
  // Give the kernel a beat to deliver everything to the reader...
  ASSERT_TRUE(eventually([&] {
    return counter_value("serve.datagrams") > 0 &&
           server.samples_ingested() > 0;
  }));
  std::this_thread::sleep_for(100ms);
  server.stop();  // ...then the drain must flush the ring before exit
  // Nothing the reader accepted may be lost: ingested + shed == accepted.
  EXPECT_EQ(server.batches_shed(), 0u);
  EXPECT_EQ(server.samples_ingested() % 2, 0u);
  EXPECT_GE(server.samples_ingested(), 2u);
}

TEST(ServeServer, StopIsIdempotentAndRestartable) {
  Server server(test_config());
  server.start();
  server.stop();
  server.stop();
  server.start();
  TcpClient tcp(server.tcp_port());
  EXPECT_TRUE(tcp.call("{\"op\":\"ping\"}").at("ok").as_bool());
  server.stop();
}

}  // namespace
}  // namespace forktail::serve
