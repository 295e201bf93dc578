// Query-protocol client and /proc readers shared by the benchmark programs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ftbench {

/// Blocking client for the daemon's 4-byte big-endian length + JSON
/// protocol.  Each frame goes out in one send() with TCP_NODELAY set: a
/// header and body written separately wait on Nagle plus the peer's delayed
/// ACK (tens of milliseconds per request).
class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connect_to(std::uint16_t port);
  /// One round trip; false on any transport failure (the connection is
  /// closed and the next call reconnects).  With `spin` the reply is
  /// busy-polled instead of slept on, so the caller's own wake-up latency
  /// stays out of the measured round trip.
  bool call(const std::string& body, std::string& reply, bool spin = false) {
    return send(body) && receive(reply, spin);
  }
  /// The two halves of call(), for keeping several requests in flight
  /// (replies come back in request order).
  bool send(const std::string& body);
  bool receive(std::string& reply, bool spin = false);

 private:
  void close_fd();

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::string frame_;
};

/// Seconds on CLOCK_MONOTONIC (the clock the daemon's steady clock reads).
double mono_s();
/// Sleep until CLOCK_MONOTONIC reads `t_s`.
void sleep_until(double t_s);
/// Sleep until `spin_s` before `t_s`, then busy-wait: wakes on time even
/// where waking an idle CPU takes tens of microseconds.
void wait_until(double t_s, double spin_s);

/// CPU nanoseconds of each task (thread) of `pid`, ordered by thread id
/// (creation order for a process that never wraps its pid space), read from
/// /proc/<pid>/task/<tid>/schedstat.  Empty when the process is gone.
std::vector<std::uint64_t> thread_cpu_ns(int pid);
/// Resident set size of `pid` in KiB (VmRSS), 0 when unreadable.
long rss_kib(int pid);

}  // namespace ftbench
