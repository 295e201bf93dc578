#include "serve/liveness.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace forktail::serve {

LivenessTable::LivenessTable(std::size_t nodes) : entries_(nodes) {
  if (nodes == 0) {
    throw std::invalid_argument("LivenessTable: need at least one node");
  }
}

void LivenessTable::observe(std::size_t node, std::uint64_t agent_ns,
                            double now_s) {
  Entry& e = entries_.at(node);
  if (!e.seen) {
    e.seen = true;
    ++seen_count_;
  }
  if (e.stale) {
    e.stale = false;
    --stale_count_;
  }
  // Monotone per node: a reordered datagram must not move the liveness
  // horizon backwards.
  e.last_agent_ns = std::max(e.last_agent_ns, agent_ns);
  e.last_seen_s = std::max(e.last_seen_s, now_s);
}

std::vector<std::size_t> LivenessTable::sweep(double now_s, double timeout_s) {
  std::vector<std::size_t> newly_stale;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    if (!e.seen || e.stale) continue;
    if (now_s - e.last_seen_s > timeout_s) {
      e.stale = true;
      ++stale_count_;
      newly_stale.push_back(i);
    }
  }
  return newly_stale;
}

double LivenessTable::oldest_live_seen_s() const {
  double oldest = std::numeric_limits<double>::infinity();
  for (const Entry& e : entries_) {
    if (!e.seen || e.stale) continue;
    oldest = std::min(oldest, e.last_seen_s);
  }
  return oldest;
}

double LivenessTable::estimated_agent_now_s(std::size_t node,
                                            double now_s) const {
  const Entry& e = entries_.at(node);
  const double idle_s = std::max(0.0, now_s - e.last_seen_s);
  return static_cast<double>(e.last_agent_ns) * 1e-9 + idle_s;
}

}  // namespace forktail::serve
