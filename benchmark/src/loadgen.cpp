// ftbench_loadgen: open-loop load generator for one serve workload of the
// end-to-end benchmark.  benchmark/run.py starts `forktail serve`, then this
// against the daemon's ports and pid, and reads the JSON it writes.
//
// One process, at most three threads: the main thread is the UDP sender
// (on ingest-ladder it also owns the control connection that reads the
// daemon's counters at every rung boundary); one or two threads are query
// clients, one connection each.  Every datagram and every open-loop request
// is timed from its due time, so a stall is charged to everything it
// delays; the sender's own lateness is reported and a phase where it fell
// more than 1% of the phase behind is void.
//
// usage: ftbench_loadgen --workload NAME --seed N --seconds S
//                        --udp-port P --tcp-port P --pid PID --out FILE
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "client.hpp"
#include "util/json.hpp"
#include "workload.hpp"

namespace {

using namespace ftbench;
using forktail::util::Json;

constexpr double kMaxLossFrac = 1e-3;
constexpr double kMaxLagP99Ms = 100.0;
constexpr double kMaxIdleRttMs = 1.0;
constexpr double kVoidLateFrac = 0.01;
constexpr std::size_t kDaemonThreads = 6;  // main, reader, 2 workers, query, watchdog

struct Options {
  Workload workload = Workload::kIngestLadder;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  std::uint16_t udp_port = 0;
  std::uint16_t tcp_port = 0;
  int pid = 0;
  std::string out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "ftbench_loadgen: %s\nusage: ftbench_loadgen --workload NAME "
               "--seed N --seconds S --udp-port P --tcp-port P --pid PID "
               "--out FILE\n",
               why.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        if (!parse_workload(value, opt.workload)) usage("unknown workload " + value);
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--udp-port") {
        opt.udp_port = static_cast<std::uint16_t>(std::stoul(value));
      } else if (flag == "--tcp-port") {
        opt.tcp_port = static_cast<std::uint16_t>(std::stoul(value));
      } else if (flag == "--pid") {
        opt.pid = std::stoi(value);
      } else if (flag == "--out") {
        opt.out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (opt.udp_port == 0 || opt.tcp_port == 0 || opt.pid <= 0 || opt.out.empty() ||
      !(opt.seconds >= 5.0)) {
    usage("need --udp-port, --tcp-port, --pid, --out and --seconds >= 5");
  }
  return opt;
}

// ------------------------------------------------------------ daemon state

using Counters = std::map<std::string, double>;

bool read_counters(Client& client, Counters& out) {
  std::string reply;
  if (!client.call(R"({"op":"report"})", reply)) return false;
  try {
    const Json doc = Json::parse(reply);
    out.clear();
    for (const auto& [name, value] : doc.at("counters").fields()) {
      out[name] = value.as_number();
    }
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

double counter(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

/// Poll the counters until the daemon has drained what was sent (samples
/// and datagrams unchanged across two reads 50 ms apart), at most 3 s.
bool read_settled(Client& client, Counters& out) {
  Counters last;
  if (!read_counters(client, last)) return false;
  for (int i = 0; i < 60; ++i) {
    sleep_until(mono_s() + 0.05);
    if (!read_counters(client, out)) return false;
    if (counter(out, "serve.samples") == counter(last, "serve.samples") &&
        counter(out, "serve.datagrams") == counter(last, "serve.datagrams")) {
      return true;
    }
    last = out;
  }
  return true;
}

struct CpuSnapshot {
  double t_s = 0.0;
  std::vector<std::uint64_t> threads;
};

CpuSnapshot cpu_snapshot(int pid, double t0) {
  return {mono_s() - t0, thread_cpu_ns(pid)};
}

/// Daemon CPU nanoseconds (all threads) between two snapshots.
double cpu_ns(const CpuSnapshot& a, const CpuSnapshot& b) {
  std::uint64_t sum_a = 0, sum_b = 0;
  for (const auto ns : a.threads) sum_a += ns;
  for (const auto ns : b.threads) sum_b += ns;
  return static_cast<double>(sum_b - sum_a);
}

// ----------------------------------------------------------- query clients

struct Reply {
  double due_s = 0.0;
  double reply_s = 0.0;
  std::uint64_t ingested = 0;
  std::uint64_t shed = 0;  ///< batches the daemon's rings had shed by then
  double quantile_ms = 0.0;
  double k = 0.0;
  bool ok = false;  ///< transport fine and no error reply
  bool served = false;
  bool stale_named = false;
};

void parse_reply(const std::string& text, Reply& r) {
  const Json doc = Json::parse(text);
  if (!doc.is_object() || doc.contains("error")) return;
  r.served = doc.at("served").as_bool();
  if (r.served) r.quantile_ms = doc.at("quantile_ms").as_number();
  r.k = doc.at("k").as_number();
  r.ingested = static_cast<std::uint64_t>(doc.at("ingested_samples").as_number());
  r.shed = static_cast<std::uint64_t>(doc.at("shed_batches").as_number());
  for (const Json& reason : doc.at("reasons").items()) {
    if (reason.as_string() == "stale_agents") r.stale_named = true;
  }
  r.ok = true;
}

class QueryLog {
 public:
  void add(const Reply& r) {
    std::lock_guard<std::mutex> lock(mu_);
    replies_.push_back(r);
  }
  /// Replies whose request was due in [from_s, to_s).
  std::vector<Reply> due_between(double from_s, double to_s) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Reply> out;
    for (const Reply& r : replies_) {
      if (r.due_s >= from_s && r.due_s < to_s) out.push_back(r);
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Reply> replies_;
};

const std::string kPredict = R"({"op":"predict","p":99})";

Reply reply_of(double due_s, double reply_s, bool answered, const std::string& text) {
  Reply r;
  r.due_s = due_s;
  r.reply_s = reply_s;
  if (answered) {
    try {
      parse_reply(text, r);
    } catch (const std::exception&) {
      r.ok = false;
    }
  }
  return r;
}

/// Open loop: request i is due at start + i * interval, whatever happened to
/// request i - 1.  The client wakes early and spins, and busy-polls for the
/// reply, so its own wake-up latency stays out of the measured round trip.
void open_loop_queries(Client& client, QueryLog& log, double t0, double start_s,
                       double end_s, double interval_s, const std::atomic<bool>& stop) {
  std::string text;
  for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    const double due = start_s + static_cast<double>(i) * interval_s;
    if (due >= end_s) break;
    wait_until(t0 + due, 200e-6);
    const bool answered = client.call(kPredict, text, true);
    log.add(reply_of(due, mono_s() - t0, answered, text));
    if (!answered) sleep_until(mono_s() + 1e-3);  // reconnect after a pause
  }
}

/// Closed loop with `depth` requests in flight: a new request goes out as
/// each reply lands, so the daemon's query thread always has work and the
/// rate measures its service time rather than two threads' wake-ups.  Each
/// request is timed from when it was sent.
void pipelined_queries(Client& client, QueryLog& log, double t0, double start_s,
                       double end_s, std::size_t depth, const std::atomic<bool>& stop) {
  std::deque<double> in_flight;  // send times, in request order
  std::string text;
  sleep_until(t0 + start_s);
  for (;;) {
    const bool sending = !stop.load(std::memory_order_relaxed) && mono_s() - t0 < end_s;
    while (sending && in_flight.size() < depth) {
      const double now = mono_s() - t0;
      if (!client.send(kPredict)) break;
      in_flight.push_back(now);
    }
    if (in_flight.empty()) {
      if (!sending) break;  // every reply is in: the connection is free
      sleep_until(mono_s() + 1e-3);  // send failed: reconnect after a pause
      continue;
    }
    const bool answered = client.receive(text);
    log.add(reply_of(in_flight.front(), mono_s() - t0, answered, text));
    in_flight.pop_front();
    if (!answered) {  // the connection is gone, and every request on it
      for (const double sent : in_flight) log.add(reply_of(sent, mono_s() - t0, false, text));
      in_flight.clear();
    }
  }
}

// ------------------------------------------------------------------ sender

struct Phase {
  std::string name;
  double rate = 0.0;  ///< offered samples/s (corrupted slots included)
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t datagrams = 0;  ///< every datagram sent
  std::uint64_t good_samples = 0;  ///< samples in well-formed datagrams
  std::vector<float> late_ms;
  double late_p99_ms = 0.0;
  double behind_s = 0.0;  ///< how far past end_s the last send went
  bool is_void = false;
};

Phase make_phase(std::string name, double rate, double start_s, double end_s) {
  Phase p;
  p.name = std::move(name);
  p.rate = rate;
  p.start_s = start_s;
  p.end_s = end_s;
  return p;
}

class Sender {
 public:
  Sender(std::uint16_t port, int pid, double t0) : pid_(pid), t0_(t0) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd_ < 0) throw std::runtime_error("udp socket failed");
    const int sndbuf = 4 << 20;
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf);
    addr_.sin_family = AF_INET;
    addr_.sin_port = htons(port);
    addr_.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  }
  ~Sender() { ::close(fd_); }
  Sender(const Sender&) = delete;
  Sender& operator=(const Sender&) = delete;

  /// Due time of every well-formed datagram sent, in order: sample n
  /// (1-based, counted over well-formed datagrams) was due at
  /// due_log()[(n - 1) / kBatch].
  const std::vector<double>& due_log() const { return due_log_; }
  std::uint64_t good_samples() const { return due_log_.size() * kBatch; }
  std::uint64_t send_errors() const { return errors_; }
  double peak_rss_kib() const { return peak_rss_kib_; }
  void sample_rss(bool on) { rss_on_ = on; }

  /// Send the slots due in [phase.start_s, phase.end_s) at phase.rate.
  void run(Stream& stream, Phase& phase) {
    const double interval = static_cast<double>(kBatch) / phase.rate;
    late_ = &phase.late_ms;
    for (std::uint64_t j = 0;; ++j) {
      const double due = phase.start_s + static_cast<double>(j) * interval;
      if (due >= phase.end_s) break;
      double now = mono_s() - t0_;
      if (due > now) {
        flush();
        if (rss_on_ && now >= next_rss_s_) {
          peak_rss_kib_ = std::max(peak_rss_kib_, static_cast<double>(rss_kib(pid_)));
          next_rss_s_ = now + 0.1;
        }
        sleep_until(t0_ + due);
      }
      Stream::Datagram d;
      if (!stream.make(slot_++, due, d)) continue;
      if (d.corruption == Corruption::kNone) {
        due_log_.push_back(due);
        phase.good_samples += kBatch;
      }
      ++phase.datagrams;
      iov_[n_] = {d.data, d.len};
      due_[n_] = due;
      if (++n_ == kMaxBatch) flush();
    }
    flush();
    // A stall the sender caught up on still offered the phase's load; one
    // it had not caught up on by the end did not.
    phase.behind_s = mono_s() - t0_ - phase.end_s;
    phase.is_void = phase.behind_s > kVoidLateFrac * (phase.end_s - phase.start_s);
    std::vector<double> late(phase.late_ms.begin(), phase.late_ms.end());
    phase.late_p99_ms = percentile(late, 99.0);
  }

 private:
  static constexpr std::size_t kMaxBatch = 64;

  void flush() {
    if (n_ == 0) return;
    for (std::size_t i = 0; i < n_; ++i) {
      msgs_[i] = {};
      msgs_[i].msg_hdr.msg_name = &addr_;
      msgs_[i].msg_hdr.msg_namelen = sizeof addr_;
      msgs_[i].msg_hdr.msg_iov = &iov_[i];
      msgs_[i].msg_hdr.msg_iovlen = 1;
    }
    std::size_t sent = 0;
    for (int retries = 0; sent < n_ && retries < 1000;) {
      const int rc = ::sendmmsg(fd_, msgs_.data() + sent,
                                static_cast<unsigned>(n_ - sent), 0);
      if (rc > 0) {
        sent += static_cast<std::size_t>(rc);
      } else if (errno != EINTR) {
        ++retries;  // ENOBUFS/EAGAIN under pressure: back off briefly
        sleep_until(mono_s() + 50e-6);
      }
    }
    errors_ += n_ - sent;
    const double now = mono_s() - t0_;
    for (std::size_t i = 0; i < n_; ++i) {
      late_->push_back(static_cast<float>((now - due_[i]) * 1e3));
    }
    n_ = 0;
  }

  int fd_ = -1;
  int pid_;
  double t0_;
  sockaddr_in addr_{};
  std::array<mmsghdr, kMaxBatch> msgs_{};
  std::array<iovec, kMaxBatch> iov_{};
  std::array<double, kMaxBatch> due_{};
  std::size_t n_ = 0;
  std::vector<float>* late_ = nullptr;
  std::uint64_t slot_ = 0;
  std::vector<double> due_log_;
  std::uint64_t errors_ = 0;
  bool rss_on_ = false;
  double next_rss_s_ = 0.0;
  double peak_rss_kib_ = 0.0;
};

/// A fixed-rate phase sent as 1 s slices with a daemon CPU snapshot after
/// each, so per-unit CPU costs can be taken as a median over slices: a
/// burst of noise from outside the benchmark moves one slice, not the run.
struct Slice {
  double start_s;
  double end_s;
  double cpu_ns;
  double good_samples;
};

struct Sliced {
  Phase total;
  std::vector<Slice> slices;
  CpuSnapshot first, last;
};

Sliced run_sliced(Sender& sender, Stream& stream, Phase phase, int pid, double t0) {
  Sliced s;
  s.first = cpu_snapshot(pid, t0);
  CpuSnapshot prev = s.first;
  for (double a = phase.start_s; a < phase.end_s - 1e-9; a += 1.0) {
    Phase slice = make_phase(phase.name, phase.rate, a, std::min(a + 1.0, phase.end_s));
    sender.run(stream, slice);
    CpuSnapshot now = cpu_snapshot(pid, t0);
    s.slices.push_back({slice.start_s, slice.end_s, cpu_ns(prev, now),
                        static_cast<double>(slice.good_samples)});
    prev = std::move(now);
    phase.datagrams += slice.datagrams;
    phase.good_samples += slice.good_samples;
    phase.late_p99_ms = std::max(phase.late_p99_ms, slice.late_p99_ms);
    phase.behind_s = slice.behind_s;
  }
  phase.is_void = phase.behind_s > kVoidLateFrac * (phase.end_s - phase.start_s);
  s.total = std::move(phase);
  s.last = std::move(prev);
  return s;
}

/// Daemon CPU per sample sent, one value per slice.
std::vector<double> cpu_ns_per_sample(const Sliced& s) {
  std::vector<double> per;
  for (const Slice& slice : s.slices) {
    if (slice.good_samples > 0) per.push_back(slice.cpu_ns / slice.good_samples);
  }
  return per;
}

Json to_json(const std::vector<double>& values) {
  Json out = Json::array();
  for (const double v : values) out.push_back(v);
  return out;
}

// ----------------------------------------------------------------- results

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

class Results {
 public:
  void metric(const std::string& name, double value) { metrics_.set(name, value); }
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
  }
  bool all_ok() const {
    for (const Check& c : checks_) {
      if (!c.ok) return false;
    }
    return true;
  }
  Json to_json(Json extra) const {
    extra.set("metrics", metrics_);
    Json checks = Json::array();
    for (const Check& c : checks_) {
      Json j = Json::object();
      j.set("name", c.name);
      j.set("ok", c.ok);
      j.set("detail", c.detail);
      checks.push_back(std::move(j));
    }
    extra.set("checks", std::move(checks));
    return extra;
  }

 private:
  Json metrics_ = Json::object();
  std::vector<Check> checks_;
};

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

/// Ingest lag of each answered reply: reply time minus the due time of the
/// last sample the daemon had dealt with, ingested or shed.  Every
/// well-formed datagram is a full batch, so that is sample number
/// ingested_samples + kBatch * shed_batches, plus `dropped`: the samples
/// the kernel dropped before these replies.  A past loss then does not read
/// as lag forever after.
std::vector<double> lags_ms(const std::vector<Reply>& replies,
                            const std::vector<double>& due_log,
                            std::uint64_t dropped) {
  std::vector<double> lags;
  for (const Reply& r : replies) {
    if (!r.ok || r.ingested == 0) continue;
    const std::uint64_t index = (r.ingested + kBatch * r.shed + dropped - 1) / kBatch;
    if (index < due_log.size()) lags.push_back((r.reply_s - due_log[index]) * 1e3);
  }
  return lags;
}

/// Ingest lags of the open-loop requests due in [from_s, to_s) (request i
/// is due at i * interval_s), judged at now_s.  A request still blocked in
/// the daemon has no reply in the log yet; it counts as a lag of
/// now_s - due, since its asker has had no answer for that long.  So a
/// window whose predicts starve cannot pass on the few replies that got
/// through.
std::vector<double> window_lags_ms(const QueryLog& log, double interval_s, double from_s,
                                   double to_s, double now_s,
                                   const std::vector<double>& due_log, std::uint64_t dropped) {
  const std::vector<Reply> replies = log.due_between(from_s, to_s);
  std::vector<double> lags = lags_ms(replies, due_log, dropped);
  std::vector<double> logged;
  for (const Reply& r : replies) logged.push_back(r.due_s);
  std::sort(logged.begin(), logged.end());
  // The same expression open_loop_queries computes each due time with.
  for (auto i = static_cast<std::uint64_t>(from_s / interval_s);; ++i) {
    const double due = static_cast<double>(i) * interval_s;
    if (due >= to_s) break;
    if (due >= from_s && !std::binary_search(logged.begin(), logged.end(), due)) {
      lags.push_back((now_s - due) * 1e3);
    }
  }
  return lags;
}

std::vector<double> rtts_us(const std::vector<Reply>& replies) {
  std::vector<double> out;
  for (const Reply& r : replies) {
    if (r.ok) out.push_back((r.reply_s - r.due_s) * 1e6);
  }
  return out;
}

/// Per-thread busy fractions of the daemon between two snapshots, by
/// creation order: main, reader, worker x2, query, watchdog.
void busy_metrics(Results& results, const CpuSnapshot& a, const CpuSnapshot& b) {
  const double wall_ns = (b.t_s - a.t_s) * 1e9;
  const bool shape = a.threads.size() == kDaemonThreads &&
                     b.threads.size() == kDaemonThreads;
  results.check("daemon_threads", shape,
                fmt("%.0f threads (want 6: main, reader, 2 workers, query, watchdog)",
                    static_cast<double>(b.threads.size())));
  if (!shape || wall_ns <= 0.0) return;
  const auto busy = [&](std::size_t i) {
    return static_cast<double>(b.threads[i] - a.threads[i]) / wall_ns;
  };
  results.metric("reader.busy_frac", busy(1));
  results.metric("worker.busy_frac", 0.5 * (busy(2) + busy(3)));
  results.metric("query.busy_frac", busy(4));
}

struct Window {
  std::vector<Reply> replies;  ///< judged replies (after warm-up)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Window judge(const QueryLog& log, double warmup_s, double from_s, double to_s) {
  Window w;
  for (const Reply& r : log.due_between(from_s, to_s)) {
    ++w.attempted;
    if (r.due_s < warmup_s) continue;
    if (!r.ok || !r.served) ++w.failed;
    w.replies.push_back(r);
  }
  return w;
}

/// Latency, lag and failure metrics of one measurement window.
void query_metrics(Results& results, const Window& w, std::vector<double> lag) {
  std::vector<double> rtt = rtts_us(w.replies);
  results.metric("predict_p50_us", percentile(rtt, 50.0));
  results.metric("predict_p99_us", percentile(rtt, 99.0));
  results.metric("predict_count", static_cast<double>(rtt.size()));
  results.metric("ingest_lag_p50_ms", percentile(lag, 50.0));
  results.metric("ingest_lag_p99_ms", percentile(lag, 99.0));
  results.metric("ingest_lag_count", static_cast<double>(lag.size()));
  const double judged = static_cast<double>(w.replies.size());
  const double fail_frac = judged > 0 ? static_cast<double>(w.failed) / judged : 1.0;
  results.metric("query_fail_frac", fail_frac);
  results.check("query_fail_frac", judged > 0 && fail_frac <= kMaxLossFrac,
                fmt("%.0f of %.0f judged queries failed", static_cast<double>(w.failed), judged));
}

/// Loss split of one window from counter deltas: kernel drops (sent minus
/// datagrams the daemon read) and ring sheds.
struct Loss {
  double ingested = 0, kernel_drops = 0, shed = 0, frac = 0;
};

Loss loss_between(const Counters& a, const Counters& b, double sent_datagrams,
                  double good_samples) {
  Loss l;
  l.ingested = counter(b, "serve.samples") - counter(a, "serve.samples");
  l.kernel_drops =
      sent_datagrams - (counter(b, "serve.datagrams") - counter(a, "serve.datagrams"));
  l.shed = counter(b, "serve.shed") - counter(a, "serve.shed");
  l.frac = good_samples > 0 ? (good_samples - l.ingested) / good_samples : 0.0;
  return l;
}

void loss_metrics(Results& results, const Loss& l) {
  results.metric("ingest_loss_frac", l.frac);
  results.metric("udp.kernel_drops", l.kernel_drops);
  results.metric("ring.shed_batches", l.shed);
}

double median_served(const std::vector<Reply>& replies) {
  std::vector<double> q;
  for (const Reply& r : replies) {
    if (r.ok && r.served) q.push_back(r.quantile_ms);
  }
  return percentile(q, 50.0);
}

// --------------------------------------------------------------- workloads

int run(const Options& opt) {
  Stream stream(opt.workload, opt.seed, opt.seconds);
  const Plan plan = plan_for(opt.workload, opt.seconds);
  Results results;
  Json header = Json::object();
  header.set("seed", opt.seed);
  header.set("seconds", opt.seconds);

  Client clients[2];
  if (!clients[0].connect_to(opt.tcp_port)) throw std::runtime_error("cannot connect");

  // Pre-flight: idle predict round trips.  A client that splits a frame
  // into two writes without TCP_NODELAY reads ~40 ms here.
  {
    std::vector<double> rtt;
    std::string reply;
    for (int i = 0; i < 200; ++i) {
      const double start = mono_s();
      if (clients[0].call(R"({"op":"predict","p":99})", reply)) {
        rtt.push_back((mono_s() - start) * 1e3);
      }
    }
    const double p50 = percentile(rtt, 50.0);
    results.metric("idle_rtt_p50_ms", p50);
    results.check("idle_rtt", rtt.size() == 200 && p50 < kMaxIdleRttMs,
                  fmt("idle predict RTT p50 %.4f ms over %.0f calls (limit 1 ms)",
                      p50, static_cast<double>(rtt.size())));
    if (!results.all_ok()) {
      header.set("attempted", 200);
      header.set("failed", static_cast<std::uint64_t>(200 - rtt.size()));
      std::ofstream(opt.out) << results.to_json(header).dump(2) << "\n";
      return 1;
    }
  }

  const double t0 = mono_s();
  Sender sender(opt.udp_port, opt.pid, t0);
  QueryLog log;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Join the clients on every exit path, a throw while starting them included.
  struct Joiner {
    std::vector<std::thread>& threads;
    std::atomic<bool>& stop;
    ~Joiner() {
      stop.store(true);
      for (auto& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  } joiner{threads, stop};
  const double query_start = plan.query_interval_s > 0.0 ? 0.0 : plan.warmup_seconds;
  for (std::size_t c = 0; c < plan.query_clients; ++c) {
    if (c > 0 && !clients[c].connect_to(opt.tcp_port)) {
      throw std::runtime_error("cannot connect");
    }
    if (plan.query_interval_s > 0.0) {
      threads.emplace_back(open_loop_queries, std::ref(clients[c]), std::ref(log), t0,
                           query_start, opt.seconds, plan.query_interval_s,
                           std::cref(stop));
    } else {
      threads.emplace_back(pipelined_queries, std::ref(clients[c]), std::ref(log), t0,
                           query_start, opt.seconds, plan.query_depth, std::cref(stop));
    }
  }

  Counters start_counters;  // the daemon is fresh: every counter is zero
  Counters end_counters;
  double measure_from = plan.warmup_seconds;
  std::uint64_t attempted = 0, failed = 0;

  if (opt.workload == Workload::kIngestLadder) {
    Client control;
    if (!control.connect_to(opt.tcp_port)) throw std::runtime_error("cannot connect");
    sender.sample_rss(true);
    const Sliced base_run = run_sliced(
        sender, stream, make_phase("base", plan.base_rate, 0.0, plan.base_seconds),
        opt.pid, t0);
    const Phase& base = base_run.total;
    sender.sample_rss(false);
    sleep_until(t0 + base.end_s + plan.settle_seconds);
    Counters after;
    if (!read_counters(control, after)) throw std::runtime_error("report failed");
    const Loss base_loss = loss_between(start_counters, after,
                                        static_cast<double>(base.datagrams),
                                        static_cast<double>(base.good_samples));
    loss_metrics(results, base_loss);
    const Window w = judge(log, plan.warmup_seconds, 0.0, base.end_s);
    std::vector<double> base_lag =
        window_lags_ms(log, plan.query_interval_s, plan.warmup_seconds, base.end_s,
                       mono_s() - t0, sender.due_log(), 0);
    const bool base_lag_seen = !base_lag.empty();
    const double base_lag_p99 = percentile(base_lag, 99.0);
    query_metrics(results, w, std::move(base_lag));
    std::vector<double> per_slice = cpu_ns_per_sample(base_run);
    header.set("slice_cpu_ns", to_json(per_slice));
    results.metric("cpu_ns_per_sample", percentile(per_slice, 50.0));
    busy_metrics(results, base_run.first, base_run.last);
    results.metric("peak_rss_mib", sender.peak_rss_kib() / 1024.0);
    const double exact = exact_max_quantile(stream.means(), kQueryP);
    const double served = median_served(w.replies);
    results.metric("served_p99_ms", served);
    results.metric("exact_p99_ms", exact);
    results.metric("served_p99_err_pct", 100.0 * std::abs(served - exact) / exact);
    results.check("served_vs_exact", std::abs(served - exact) <= 0.03 * exact,
                  fmt("base-phase served p99 %.4f ms vs exact %.4f ms (limit 3%%)",
                      served, exact));
    results.check("base_not_void", !base.is_void,
                  fmt("generator late p99 %.3f ms in the base phase", base.late_p99_ms));

    const bool base_pass = !base.is_void && base_loss.frac <= kMaxLossFrac &&
                           base_lag_seen && base_lag_p99 <= kMaxLagP99Ms;
    double sustained = base_pass ? base.rate : base_loss.ingested / base.end_s;
    std::string stop_reason = base_pass ? "time" : "base-miss";
    Json steps = Json::array();
    const auto step_json = [&](const Phase& p, const Loss& l, double lag_p99, bool pass) {
      Json s = Json::object();
      s.set("rate", p.rate);
      s.set("loss_frac", l.frac);
      s.set("kernel_drops", l.kernel_drops);
      s.set("shed_batches", l.shed);
      s.set("lag_p99_ms", lag_p99);
      s.set("gen_late_p99_ms", p.late_p99_ms);
      s.set("void", p.is_void);
      s.set("pass", pass);
      steps.push_back(std::move(s));
    };
    step_json(base, base_loss, base_lag_p99, base_pass);
    double gen_late = base.late_p99_ms;
    Counters before = after;
    double t = base.end_s + plan.settle_seconds;
    // Climb by rung_factor until a rung misses, then bisect (geometric
    // midpoints) between the highest pass and the lowest miss.  A rung that
    // fails (loss, lag or void) is run once more at the same rate before it
    // counts as a miss: a stall of the shared CPUs is usually transient.
    double pass_rate = plan.base_rate;
    double miss_rate = 0.0;
    double retry_rate = 0.0;  // a failed rung is tried once more before it misses
    while (base_pass) {
      if (miss_rate == 0.0 && pass_rate >= plan.rung_cap) {
        stop_reason = "cap";
        break;
      }
      if (miss_rate > 0.0 && miss_rate / pass_rate < 1.01) {
        stop_reason = "resolved";
        break;
      }
      if (t + plan.rung_seconds + plan.settle_seconds > opt.seconds) break;
      const double rate = retry_rate > 0.0 ? retry_rate
                          : miss_rate == 0.0
                              ? std::min(pass_rate * plan.rung_factor, plan.rung_cap)
                              : std::sqrt(pass_rate * miss_rate);
      Phase rung = make_phase("rung", rate, t, t + plan.rung_seconds);
      // Kernel drops so far: every sample sent before the settled counters
      // was ingested, shed or dropped.
      const auto dropped = static_cast<std::uint64_t>(
          std::max(0.0, static_cast<double>(sender.good_samples()) -
                            counter(before, "serve.samples") -
                            static_cast<double>(kBatch) * counter(before, "serve.shed")));
      sender.run(stream, rung);
      sleep_until(t0 + rung.end_s + plan.settle_seconds);
      if (!read_counters(control, after)) throw std::runtime_error("report failed");
      const Loss l = loss_between(before, after, static_cast<double>(rung.datagrams),
                                  static_cast<double>(rung.good_samples));
      std::vector<double> lag =
          window_lags_ms(log, plan.query_interval_s, rung.start_s, rung.end_s,
                         mono_s() - t0, sender.due_log(), dropped);
      const bool lag_seen = !lag.empty();
      const double lag_p99 = percentile(lag, 99.0);
      const bool pass = !rung.is_void && l.frac <= kMaxLossFrac && lag_seen &&
                        lag_p99 <= kMaxLagP99Ms;
      step_json(rung, l, lag_p99, pass);
      gen_late = std::max(gen_late, rung.late_p99_ms);
      before = after;
      t = rung.end_s + plan.settle_seconds;
      if (!pass && retry_rate == 0.0) {
        retry_rate = rate;
        continue;
      }
      retry_rate = 0.0;
      (pass ? pass_rate : miss_rate) = rate;
    }
    if (base_pass) sustained = pass_rate;
    results.metric("sustained_samples_per_s", sustained);
    results.metric("gen_late_p99_ms", gen_late);
    header.set("ladder", std::move(steps));
    header.set("ladder_stop", stop_reason);
    stop.store(true);
    for (auto& th : threads) th.join();
    const Window all = judge(log, plan.warmup_seconds, 0.0, opt.seconds);
    attempted = all.attempted;
    failed = all.failed;
    if (!read_settled(control, end_counters)) throw std::runtime_error("report failed");
  } else {
    // Fixed-rate workloads: query-hetero measures after its warm-up phase,
    // ingest-hostile over the whole run.
    std::vector<Phase> phases;
    if (opt.workload == Workload::kIngestHostile) {
      measure_from = 0.0;
      phases.push_back(make_phase("run", plan.base_rate, 0.0, opt.seconds));
    } else {
      phases.push_back(make_phase("warmup", plan.base_rate, 0.0, measure_from));
      phases.push_back(make_phase("measure", plan.base_rate, measure_from, opt.seconds));
    }
    sender.sample_rss(true);
    std::vector<Sliced> runs;
    for (const Phase& phase : phases) {
      runs.push_back(run_sliced(sender, stream, phase, opt.pid, t0));
    }
    sender.sample_rss(false);
    const Sliced& measured = runs.back();
    stop.store(true);
    for (auto& th : threads) th.join();
    if (!read_settled(clients[0], end_counters)) throw std::runtime_error("report failed");

    double sent_datagrams = 0, good_samples = 0, gen_late = 0;
    bool any_void = false;
    for (const Sliced& run : runs) {
      const Phase& p = run.total;
      sent_datagrams += static_cast<double>(p.datagrams);
      good_samples += static_cast<double>(p.good_samples);
      gen_late = std::max(gen_late, p.late_p99_ms);
      any_void = any_void || p.is_void;
    }
    const Loss loss = loss_between(start_counters, end_counters, sent_datagrams, good_samples);
    loss_metrics(results, loss);
    results.check("ingest_loss", loss.frac <= kMaxLossFrac,
                  fmt("loss %.2e (%.0f kernel drops, %.0f sheds)", loss.frac,
                      loss.kernel_drops, loss.shed));
    results.check("generator_on_schedule", !any_void,
                  fmt("generator late p99 %.3f ms", gen_late));
    results.metric("gen_late_p99_ms", gen_late);
    results.metric("ingested_samples_per_s", loss.ingested / opt.seconds);
    results.metric("peak_rss_mib", sender.peak_rss_kib() / 1024.0);
    busy_metrics(results, measured.first, measured.last);

    const Window w = judge(log, plan.warmup_seconds, measure_from, opt.seconds);
    const Window all = judge(log, plan.warmup_seconds, 0.0, opt.seconds);
    attempted = all.attempted;
    failed = all.failed;
    query_metrics(results, w, lags_ms(w.replies, sender.due_log(), 0));

    if (opt.workload == Workload::kQueryHetero) {
      // Per slice: queries answered in it, and daemon CPU per query.
      std::vector<double> qps, cpu_per_query;
      for (const Slice& slice : measured.slices) {
        double answered = 0;
        for (const Reply& r : w.replies) {
          if (r.ok && r.reply_s >= slice.start_s && r.reply_s < slice.end_s) answered += 1;
        }
        if (answered == 0) continue;
        qps.push_back(answered / (slice.end_s - slice.start_s));
        cpu_per_query.push_back(slice.cpu_ns / answered);
      }
      header.set("slice_cpu_ns", to_json(cpu_per_query));
      header.set("slice_queries_per_s", to_json(qps));
      results.metric("queries_per_s", percentile(qps, 50.0));
      results.metric("cpu_ns_per_query", percentile(cpu_per_query, 50.0));
      const double exact = exact_max_quantile(stream.means(), kQueryP);
      const double served = median_served(w.replies);
      results.metric("served_p99_ms", served);
      results.metric("exact_p99_ms", exact);
      results.metric("served_p99_err_pct", 100.0 * std::abs(served - exact) / exact);
      // Loose on purpose: one pooled (mean, variance) fit over the whole
      // fleet reads about 35% under the exact answer, a per-node product
      // (Eq. 4) about 0%.  Both are correct algorithms; the error is the
      // metric above, not a check.
      results.check("served_p99_plausible", std::abs(served - exact) <= 0.4 * exact,
                    fmt("served p99 %.4f ms vs exact %.4f ms (limit 40%%)", served, exact));
    } else {
      std::vector<double> per_slice = cpu_ns_per_sample(measured);
      header.set("slice_cpu_ns", to_json(per_slice));
      results.metric("cpu_ns_per_sample", percentile(per_slice, 50.0));
      // Every agent is Exp(5): the exact answer for the reply's own k.
      std::vector<double> errs;
      for (const Reply& r : w.replies) {
        if (!r.ok || !r.served || r.k < 1.0) continue;
        const double exact =
            -kFastMeanMs * std::log1p(-std::pow(kQueryP / 100.0, 1.0 / r.k));
        errs.push_back(std::abs(r.quantile_ms - exact) / exact);
      }
      const double err = percentile(errs, 50.0);
      results.check("served_vs_exact", !errs.empty() && err <= 0.03,
                    fmt("median |served - exact(k)| / exact %.4f over %.0f replies (limit 0.03)",
                        err, static_cast<double>(errs.size())));

      // Every rejection counter moved by exactly what was corrupted.
      const bool lossless = loss.kernel_drops == 0 && loss.shed == 0;
      for (std::size_t k = 1; k <= kCorruptionKinds; ++k) {
        const auto kind = static_cast<Corruption>(k);
        const std::string reason = corruption_reason(kind);
        const double sent = static_cast<double>(stream.corrupted()[k]);
        const double counted = counter(end_counters, "serve.wire.rejected." + reason);
        const bool ok = lossless ? counted == sent
                                 : counted <= sent &&
                                       sent - counted <= loss.kernel_drops + loss.shed;
        results.check("rejected." + reason, sent > 0 && ok,
                      fmt("%.0f counted, %.0f corrupted", counted, sent));
      }
      // Replies name the silent agents once the sweep has evicted them.
      double judged = 0, named = 0;
      for (const Silence& s : stream.silences()) {
        for (const Reply& r : log.due_between(s.start_s + 1.5, s.end_s)) {
          if (!r.ok) continue;
          judged += 1;
          named += r.stale_named ? 1 : 0;
        }
      }
      results.check("stale_agents_named", judged > 0 && named == judged,
                    fmt("%.0f of %.0f replies during silences name stale_agents",
                        named, judged));
      const double evicted = counter(end_counters, "serve.agents.evicted");
      const double expected = static_cast<double>(stream.silences().size()) *
                              static_cast<double>(kAgents) / 5.0;
      results.metric("agents.evicted", evicted);
      results.check("agents_evicted", evicted == expected,
                    fmt("%.0f evictions, %.0f expected", evicted, expected));
      const double clamped = counter(end_counters, "serve.clock_clamped");
      results.metric("clock_clamped", clamped);
      results.check("clock_clamped", clamped > 0, fmt("%.0f samples clamped", clamped));
    }
  }
  results.metric("send_errors", static_cast<double>(sender.send_errors()));

  header.set("attempted", attempted);
  header.set("failed", failed);
  header.set("correct", results.all_ok());
  std::ofstream out(opt.out);
  out << results.to_json(std::move(header)).dump(2) << "\n";
  if (!out) throw std::runtime_error("cannot write " + opt.out);
  return results.all_ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  // Wake on schedule: the default 50 us timer slack would add up to that
  // much of the generator's own lateness to every request timed from its
  // due time (threads created later inherit the setting).
  ::prctl(PR_SET_TIMERSLACK, 1000UL);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftbench_loadgen: %s\n", e.what());
    return 3;
  }
}
