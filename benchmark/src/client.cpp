#include "client.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>

namespace ftbench {

Client::~Client() { close_fd(); }

void Client::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Client::connect_to(std::uint16_t port) {
  close_fd();
  port_ = port;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int rc;
  do {
    rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    close_fd();
    return false;
  }
  return true;
}

bool Client::send(const std::string& body) {
  if (fd_ < 0 && !connect_to(port_)) return false;
  const auto len = static_cast<std::uint32_t>(body.size());
  frame_.assign({static_cast<char>(len >> 24), static_cast<char>(len >> 16),
                 static_cast<char>(len >> 8), static_cast<char>(len)});
  frame_ += body;
  for (std::size_t sent = 0; sent < frame_.size();) {
    const ssize_t n = ::send(fd_, frame_.data() + sent, frame_.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      close_fd();
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool Client::receive(std::string& reply, bool spin) {
  if (fd_ < 0) return false;
  const auto recv_exact = [&](char* data, std::size_t want) {
    for (std::size_t got = 0; got < want;) {
      const ssize_t n = ::recv(fd_, data + got, want - got, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    return true;
  };
  if (spin) {
    char probe;
    while (::recv(fd_, &probe, 1, MSG_PEEK | MSG_DONTWAIT) < 0 &&
           (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    }
  }
  unsigned char header[4];
  if (!recv_exact(reinterpret_cast<char*>(header), 4)) {
    close_fd();
    return false;
  }
  const std::uint32_t reply_len = (std::uint32_t{header[0]} << 24) |
                                  (std::uint32_t{header[1]} << 16) |
                                  (std::uint32_t{header[2]} << 8) | header[3];
  if (reply_len > (16u << 20)) {
    close_fd();
    return false;
  }
  reply.resize(reply_len);
  if (!recv_exact(reply.data(), reply_len)) {
    close_fd();
    return false;
  }
  return true;
}

double mono_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void sleep_until(double t_s) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t_s);
  ts.tv_nsec = static_cast<long>((t_s - static_cast<double>(ts.tv_sec)) * 1e9);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

void wait_until(double t_s, double spin_s) {
  sleep_until(t_s - spin_s);
  while (mono_s() < t_s) {
  }
}

std::vector<std::uint64_t> thread_cpu_ns(int pid) {
  std::vector<std::pair<long, std::uint64_t>> tasks;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return {};
  while (const dirent* entry = ::readdir(d)) {
    if (entry->d_name[0] < '0' || entry->d_name[0] > '9') continue;
    std::ifstream in(dir + "/" + entry->d_name + "/schedstat");
    std::uint64_t ns = 0;
    if (in >> ns) tasks.emplace_back(std::atol(entry->d_name), ns);
  }
  ::closedir(d);
  std::sort(tasks.begin(), tasks.end());
  std::vector<std::uint64_t> out;
  out.reserve(tasks.size());
  for (const auto& task : tasks) out.push_back(task.second);
  return out;
}

long rss_kib(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

}  // namespace ftbench
